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


def _program_references() -> set:
    """Every name an `ast.Name` or `ast.Attribute` reads in the package, `tools/`
    or `perfbench/`; the package's ``__init__`` imports are not reads."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_program_caller():
    """A public function, class or method that only tests call is deleted,
    unless `KEPT` says why it stays; a kept name that gains a program caller
    leaves `KEPT`."""
    definitions = dict(_public_definitions())
    assert set(KEPT) <= set(definitions), set(KEPT) - set(definitions)
    called = _program_references()
    orphans = sorted(full for full, name in definitions.items() if name not in called and full not in KEPT)
    assert orphans == []
    assert sorted(full for full in KEPT if definitions[full] in called) == []
