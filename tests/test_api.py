"""The public API: every name the package exports has a caller inside it."""

import ast
from pathlib import Path

import archsim

SRC = Path(archsim.__file__).parent


def _loaded_names(path):
    """The names ``path`` reads, bare (``Name``) or as an attribute."""
    loaded = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def test_every_exported_name_is_used_inside_the_package():
    """An exported name whose only callers are tests is test-only API.  A
    name's own ``def`` or ``class`` and the import lines that bring it in
    read no name, so only a use in another module counts."""
    used = set().union(*(_loaded_names(path) for path in SRC.glob("*.py")
                         if path.name != "__init__.py"))
    exported = set(archsim.__all__) - {"__version__"}
    assert sorted(exported - used) == []
