"""The public API is the modules: the package root only names the
version, and every public name a module defines has a caller inside the
package.  No module checks an invariant with ``assert``, which
``python -O`` strips, and no module keeps a cache without a bound."""

import ast
import json
import os
import subprocess
import sys
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


def test_package_root_loads_no_module_and_defines_only_its_version():
    """``import archsim`` runs no submodule and defines no public name but
    ``__version__``: the modules are the API, so the root has nothing to
    re-export and no import cost.  A fresh interpreter sees what importing
    the root alone loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, archsim; print(json.dumps(["
         "sorted(m for m in sys.modules if m.startswith('archsim.')), "
         "sorted(n for n in vars(archsim) if not n.startswith('_')), "
         "hasattr(archsim, '__all__'), archsim.__version__]))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules, public, has_all, version = json.loads(proc.stdout)
    assert (modules, public, has_all) == ([], [], False)
    assert version


def test_every_public_module_level_name_is_used_inside_the_package():
    """Each public function, class and constant a module defines is read by
    some other module-level statement of the package; a read inside the
    name's own definition (recursion) does not count, nor does
    ``__init__.py``, which holds only the version."""
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


def _unbounded_caches(tree):
    """The lines of ``tree`` that import or name ``functools.cache``, or
    call ``lru_cache`` with ``maxsize`` None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node.lineno
        elif isinstance(node, ast.Call) and "lru_cache" in _loaded_names(node.func):
            maxsize = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(maxsize, ast.Constant) and maxsize.value is None:
                yield node.lineno


def test_no_module_keeps_a_cache_that_grows_without_bound():
    """Every cache in the package has a bound: an unbounded one keeps each
    key it has seen for the life of the process."""
    unbounded = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line in _unbounded_caches(ast.parse(path.read_text(), str(path)))]
    assert unbounded == []


def test_every_top_level_function_and_class_has_a_caller_inside_the_package():
    """Each top-level ``def`` and ``class`` of the modules, private ones
    too, is named by a code reference (a ``Name`` or an ``Attribute``, not
    a docstring mention) somewhere in the package outside its own body: no
    helper is left that only the tests or the bench call."""
    statements = [statement for path in MODULES
                  for statement in ast.parse(path.read_text(), str(path)).body]
    reads = [(statement, _loaded_names(statement)) for statement in statements]
    uncalled = sorted(
        statement.name for statement, _ in reads
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        and not any(statement.name in loaded for other, loaded in reads if other is not statement)
    )
    assert uncalled == []
