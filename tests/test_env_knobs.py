"""Every ``REPRO_*`` environment knob the package reads is set somewhere.

A knob is a name in ``src/repro`` written as a whole string literal
(``os.environ.get("REPRO_JOBS")``), so prose that merely mentions one
does not count. It is *set* when a test, a benchmark or an example
assigns it a value — ``monkeypatch.setenv(NAME, ...)``,
``env[NAME] = ...``, a ``{NAME: ...}`` dict or a ``NAME=...`` keyword —
or when a CI step does (an ``env:`` entry or a ``NAME=value`` prefix
in ``.github/workflows/ci.yml``). Deleting a name (``delenv``) does not
set it. A knob nothing sets is behaviour no run exercises: test it or
delete it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SETTER_DIRS = ("tests", "benchmarks", "examples")
CI = ROOT / ".github" / "workflows" / "ci.yml"
KNOB = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")


def _trees(directory: Path) -> Iterator[ast.Module]:
    for path in sorted(directory.rglob("*.py")):
        yield ast.parse(path.read_text(), filename=str(path))


def _literal(node) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def read_knobs() -> Set[str]:
    """Every ``REPRO_*`` name ``src/repro`` holds as a whole literal."""
    return {node.value for tree in _trees(PACKAGE)
            for node in ast.walk(tree)
            if KNOB.fullmatch(_literal(node))}


def _set_in_python(tree: ast.Module) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "setenv"
                    and node.args):
                yield _literal(node.args[0])
            for keyword in node.keywords:
                if keyword.arg:
                    yield keyword.arg
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    yield _literal(target.slice)
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                yield _literal(key)


def set_knobs() -> Set[str]:
    """Every ``REPRO_*`` name a test, benchmark, example or CI step sets."""
    names = {name for directory in SETTER_DIRS
             for tree in _trees(ROOT / directory)
             for name in _set_in_python(tree)}
    ci = CI.read_text()
    names.update(re.findall(r"\b(REPRO_[A-Z0-9_]+)(?:=|:\s)", ci))
    return {name for name in names if KNOB.fullmatch(name)}


def unset_knobs() -> List[str]:
    return sorted(read_knobs() - set_knobs())


def test_every_env_knob_is_set_by_a_test_ci_benchmark_or_example():
    unset = unset_knobs()
    assert not unset, (
        "environment knobs that src/repro reads but no test, CI step, "
        "benchmark or example sets (exercise them or delete them): "
        + ", ".join(unset))


def test_the_scan_sees_literal_reads_and_each_kind_of_setter():
    read = read_knobs()
    # read through os.environ.get, and through a helper's argument
    assert {"REPRO_JOBS", "REPRO_WORKER_CRASH_SEEDS"} <= read
    # a prefix matched with startswith is not a knob
    assert "REPRO_WORKER_" not in read
    set_ = set_knobs()
    assert "REPRO_RUNS" in set_  # monkeypatch.setenv
    assert "REPRO_WORKER_HANG_SEEDS" in set_  # dict(..., NAME=...)
    assert "REPRO_CHAOS_ARTIFACTS" in set_  # a CI step's NAME=value
    assert "REPRO_TEST_SLOW_EXAMPLES" in set_  # a CI step's env entry
