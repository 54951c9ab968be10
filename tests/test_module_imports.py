"""No module of the package imports another module's underscored name.

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
