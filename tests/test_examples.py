"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; this keeps them from rotting.
Each runs as a subprocess exactly as a user would invoke it. The
ensemble-scaling study is the one long-running example and is skipped
unless ``REPRO_TEST_SLOW_EXAMPLES=1``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"

FAST = [
    "quickstart.py",
    "calltree_analysis.py",
    "timeline_tracing.py",
]
SLOW = ["ensemble_scaling_study.py"]


def run_example(name, tmp_path, extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *extra_args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=tmp_path,
        env=env,
    )


@pytest.mark.parametrize("name", FAST)
def test_example_runs(name, tmp_path):
    result = run_example(name, tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


@pytest.mark.parametrize("name", SLOW)
@pytest.mark.skipif(
    os.environ.get("REPRO_TEST_SLOW_EXAMPLES") != "1",
    reason="slow example; set REPRO_TEST_SLOW_EXAMPLES=1",
)
def test_slow_example_runs(name, tmp_path):
    result = run_example(name, tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


def test_example_inventory_matches_disk():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(FAST) | set(SLOW)


def test_timeline_tracing_writes_traces(tmp_path):
    result = run_example("timeline_tracing.py", tmp_path,
                         extra_args=[str(tmp_path / "out")])
    assert result.returncode == 0, result.stderr[-2000:]
    traces = list((tmp_path / "out").glob("trace-*.json"))
    assert len(traces) == 3
