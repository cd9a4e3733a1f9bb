"""The public API: every name the package exports has a caller inside it,
and so does every public name a module defines.  No module checks an
invariant with ``assert``, which ``python -O`` strips."""

import ast
from pathlib import Path

import archsim

SRC = Path(archsim.__file__).parent
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _loaded_names(tree):
    """The names ``tree`` reads, bare (``Name``) or as an attribute."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def _defined_names(statement):
    """The names a module-level statement defines: a ``def``, a ``class``
    or a plain assignment's targets."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {node.id for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    return set()


def test_every_exported_name_is_used_inside_the_package():
    """An exported name whose only callers are tests is test-only API.  A
    name's own ``def`` or ``class`` and the import lines that bring it in
    read no name, so only a use in another module counts."""
    used = set().union(*(_loaded_names(ast.parse(path.read_text())) for path in MODULES))
    exported = set(archsim.__all__) - {"__version__"}
    assert sorted(exported - used) == []


def test_every_public_module_level_name_is_used_inside_the_package():
    """Each public function, class and constant a module defines is read by
    some other module-level statement of the package; a read inside the
    name's own definition (recursion) does not count, nor does
    ``__init__.py``, which only re-exports."""
    statements = [statement for path in MODULES
                  for statement in ast.parse(path.read_text(), str(path)).body]
    reads = [(_defined_names(statement), _loaded_names(statement)) for statement in statements]
    unused = sorted(
        name for defined, _ in reads for name in defined
        if not name.startswith("_")
        and not any(name in loaded and name not in other for other, loaded in reads)
    )
    assert unused == []


def test_no_module_holds_an_assert_statement():
    """Invariants are checks that raise, so they survive ``python -O``."""
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []
