"""No module of the package imports another module's underscored name, and
every public name has a caller outside the tests.

What one module calls in another is public; an underscored name is used
only inside its own module.  `_blockops` is the package-internal kernel
module: it is imported whole (``from . import _blockops``), and the names
it defines are public.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "heisenbath"


def test_no_relative_import_of_an_underscored_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    private = [
        f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module} import {alias.name}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


ROOT = PACKAGE.parents[1]

# Public names with no program caller, each kept for the reason given: an open
# ROADMAP item reads it, or a test uses it as an independent reference.
KEPT = {
    "printed_sandwich_defect": "the run manifest reports it (ROADMAP item 4)",
    "dyson_propagator": "the run manifest's unitarity defect reads it (ROADMAP item 4)",
    "MarkovReport.rhs_defect_bound": "integrated along the Lindblad trajectory (ROADMAP item 7)",
    "irreducible_2pt": "the naive_product validation row reads it (ROADMAP item 14)",
}


# Public methods whose bare name another definition shares (a method, field,
# attribute, function or class of the package) and that no read resolves to,
# each with the caller that reads it.  Empty: every such method is resolved.
SHARED_NAMES: dict = {}


def _public_definitions():
    """``name`` of every public top-level function and class of the package, and
    ``Class.name`` of every public method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _definitions_per_name() -> dict:
    """How many definitions of the package bind each name: top-level functions and
    classes, methods, class fields and ``self.name =`` attributes."""
    counts: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            owned = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                counts[node.name] = counts.get(node.name, 0) + 1
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        owned.add(item.name)
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        owned.add(item.target.id)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                        if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                            owned.add(sub.attr)
            for name in owned:
                counts[name] = counts.get(name, 0) + 1
    return counts


def _program_paths():
    """The package's modules but ``__init__``, `tools/` and `perfbench/`."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return paths + [*(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _program_references() -> set:
    """Every name an `ast.Name` or `ast.Attribute` reads in the package, `tools/`
    or `perfbench/`; the package's ``__init__`` imports are not reads."""
    names = set()
    for path in _program_paths():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _annotated_class(annotation):
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value
    return None


def _resolved_references() -> set:
    """``Class.name`` of every read ``x.name`` in the program whose receiver names
    its class: ``self`` or ``cls`` inside the class, the class itself, or a
    parameter annotated with the class."""
    found = set()

    def visit(node, typed):
        if isinstance(node, ast.ClassDef):
            typed = {**typed, "self": node.name, "cls": node.name}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            typed = dict(typed)
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
                cls = _annotated_class(getattr(arg, "annotation", None))
                if cls is not None:
                    typed[arg.arg] = cls
                elif arg.arg not in ("self", "cls"):
                    typed.pop(arg.arg, None)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{typed.get(node.value.id, node.value.id)}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, typed)

    for path in _program_paths():
        visit(ast.parse(path.read_text(), str(path)), {})
    return found


def test_every_public_name_has_a_program_caller():
    """A public function, class or method that only tests call is deleted,
    unless `KEPT` says why it stays; a kept name that gains a program caller
    leaves `KEPT`.  A method whose bare name no other definition shares is
    called when that name is read; one whose name is shared is called only
    when a read resolves to its class (`_resolved_references`), or when
    `SHARED_NAMES` says who reads it, so a dead method cannot hide behind a
    live name.  An entry there that a read resolves leaves it."""
    definitions = dict(_public_definitions())
    assert set(KEPT) <= set(definitions), set(KEPT) - set(definitions)
    assert set(SHARED_NAMES) <= set(definitions), set(SHARED_NAMES) - set(definitions)
    called, resolved, counts = _program_references(), _resolved_references(), _definitions_per_name()

    def has_caller(full, name):
        if full == name or counts[name] == 1:
            return name in called
        return full in resolved or full in SHARED_NAMES

    orphans = sorted(full for full, name in definitions.items() if not has_caller(full, name) and full not in KEPT)
    assert orphans == []
    assert sorted(full for full in KEPT if has_caller(full, definitions[full])) == []
    assert sorted(full for full in SHARED_NAMES if full in resolved) == []
