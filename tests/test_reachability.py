"""Every public definition in ``src/repro`` has a caller outside the tests.

The scan walks ``src/repro`` with :mod:`ast` and lists each public
top-level function and class and each public method (names that do not
start with ``_``). A name counts as used when a file under ``src/``,
``examples/`` or ``benchmarks/`` (their own ``test_*.py`` excluded)
reads it as a variable or an attribute outside the definition itself.
Strings do not count, so docstrings, ``__all__`` lists and
``lazy_exports`` maps re-export a name without using it. The match is
by name, not by type: ``x.run()`` anywhere uses every method ``run``.

``sim/reference.py`` is exempt: it is the differential oracle the
kernel's fingerprint suites compare against, and only tests call it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "benchmarks")
EXEMPT_MODULES = {PACKAGE / "sim" / "reference.py"}

#: Read-only views of state the simulator maintains. No program path
#: needs them, but tests observe behaviour through them (name -> a
#: test that reads it).
ALLOWED = {
    # cluster/network.py: an injected link outage is visible
    "link_is_down": "tests/faults/test_inject.py",
    # cluster/ssd.py: degraded bandwidth and allocated bytes
    "degraded": "tests/faults/test_inject.py",
    "used": "tests/cluster/test_ssd.py",
    # storage/posixfs.py: a torn write left a short file
    "is_torn": "tests/faults/test_inject.py",
    # sim/core.py: event state after the loop has run it
    "processed": "tests/sim/test_resources.py",
    "defused": "tests/sim/test_core.py",
    # sim/resources.py, storage/locks.py: waiters behind a holder
    "queue_len": "tests/storage/test_locks.py",
    # experiments/claims.py: the band check behind every claim verdict
    "in_band": "tests/experiments/conftest.py",
    # md/models.py: recomputes Table II's strides from the rates
    "stride_for_frequency": "tests/md/test_models.py",
}

Definition = Tuple[str, Path, int, int]  # (name, file, first line, last line)


def _python_files(directory: Path) -> Iterator[Path]:
    for path in sorted(directory.rglob("*.py")):
        if not path.name.startswith("test_") and path.name != "conftest.py":
            yield path


def _definitions(path: Path, tree: ast.Module) -> Iterator[Definition]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, path, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, path, item.lineno, item.end_lineno


def _uses(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreached() -> List[str]:
    """``module:line name`` of every public definition no caller uses."""
    definitions: List[Definition] = []
    uses: Dict[str, Set[Tuple[Path, int]]] = {}
    for directory in CALLER_DIRS:
        for path in _python_files(ROOT / directory):
            tree = ast.parse(path.read_text(), filename=str(path))
            if path.is_relative_to(PACKAGE) and path not in EXEMPT_MODULES:
                definitions.extend(_definitions(path, tree))
            for name, line in _uses(tree):
                uses.setdefault(name, set()).add((path, line))
    missing = []
    for name, path, first, last in definitions:
        if name.startswith("_") or name in ALLOWED:
            continue
        if any(not (where == path and first <= line <= last)
               for where, line in uses.get(name, ())):
            continue
        missing.append(f"{path.relative_to(PACKAGE)}:{first} {name}")
    return missing


def test_every_public_definition_has_a_non_test_caller():
    missing = unreached()
    assert not missing, (
        "public definitions that only tests reach (delete them, or use "
        "them from src/, examples/ or benchmarks/):\n  "
        + "\n  ".join(missing))


def test_allowlist_names_are_defined_and_read_by_their_test():
    defined = set()
    for path in _python_files(PACKAGE):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(name for name, *_ in _definitions(path, tree))
    assert sorted(set(ALLOWED) - defined) == []
    for name, test in ALLOWED.items():
        tree = ast.parse((ROOT / test).read_text())
        assert name in {used for used, _ in _uses(tree)}, (name, test)
