"""Self-tests of the benchmark: ``python -m pytest benchmarks/bench -q``.

Each workload runs once at a tiny size (two-frame tasks, a one-second
budget) through ``run.py`` in a fresh interpreter, exactly as a timed or
traced run would, so the tests cover the metric contract, the output
checks and the ledger accounting without the full run length.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.bench import BENCH_DIR, ROOT, SRC, common, layers
from benchmarks.bench.__main__ import compare, verdict

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TINY = ["--frames", "2", "--seconds", "1"]


def run_py(*args: str, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, last


def fresh_tiny(workload: str, trace: int, seed: int = 0):
    """Result of a tiny run of ``workload``."""
    proc, last = run_py("--workload", workload, "--seed", str(seed),
                        "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return last


#: several tests read the same tiny run
tiny = functools.lru_cache(maxsize=None)(fresh_tiny)


def test_every_source_module_has_a_layer():
    unmapped = [m for m in layers.source_modules(SRC)
                if layers.layer_of_module(m) is None]
    assert unmapped == []


def test_layer_map_rejects_unknown_modules():
    assert layers.layer_of_module("repro.newmodule") is None
    assert layers.layer_of_module("repro.sim.newkernel") is None
    assert layers.layer_of_module("repro.dyad.newpart") == "dyad"


def test_declaration_follows_the_contract():
    doc = common.declaration()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/bench"]
    assert [w["name"] for w in doc["workloads"]] == list(common.WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    # 4 + 22 runs per workload, each at most run_seconds plus set-up
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 10) < 3420


@pytest.mark.parametrize("workload", common.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_exactly_the_declared_metrics(workload, trace):
    result = tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(common.declared(bool(trace)))
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert isinstance(metric["value"], (int, float))
        assert metric["unit"] == common.declared(bool(trace))[name]["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_ledger_accounts_for_the_traced_time(workload):
    value = {n: m["value"] for n, m in tiny(workload, 1)["metrics"].items()}
    assert value["other.share"] < 0.05
    shares = sum(value[f"{layer}.share"] for layer in layers.LAYERS)
    assert shares == pytest.approx(value["profile_coverage"])
    if workload != common.SERVICE_WORKLOAD:
        # a whole-process profile also misses interpreter start-up, which
        # only a full-length run amortises below 5%
        assert abs(value["profile_coverage"] - 1.0) < 0.05
    assert value["trace_overhead"] > 1.0


@pytest.mark.parametrize("workload", ["stream_topology", "service_mixed"])
def test_counters_repeat_at_one_seed_and_move_with_the_seed(workload):
    def counters(result):
        exact = common.OUTPUT_COUNTERS | common.WORK_COUNTERS
        return {n: m["value"] for n, m in result["metrics"].items()
                if n in exact}

    first = counters(tiny(workload, 1, seed=0))
    again = counters(fresh_tiny(workload, 1, seed=0))
    other = counters(tiny(workload, 1, seed=1))
    assert first == again
    moved = [n for n in first if first[n] != other[n]]
    if workload == common.SERVICE_WORKLOAD:
        assert first["service.computed"] > 0 and first["service.hits"] > 0
    else:
        assert moved, "no counter depends on the seed"


def test_a_perturbed_golden_entry_fails_the_run(tmp_path):
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    pinned = golden["seeds"]["0"]["stream_topology"][0]
    pinned[0] = "0" * len(pinned[0])
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    proc, last = run_py("--workload", "stream_topology", "--seed", "0",
                        "--seconds", "1", "--golden", str(path))
    assert proc.returncode == 1
    assert last["correct"] is False and last["failed"] == 1
    assert "golden mismatch" in proc.stderr


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks" / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench/run.py", "--workload",
         "paper_exact", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_verdicts_against_a_bound():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [101.0, 100.0, 102.0, 100.0, 101.0], "lower",
                   0.05) == "within"
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.05) == "worse"
    assert verdict(base, [x * 1.2 for x in base], "higher",
                   0.05) == "better"
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    assert verdict(base, noisy, "lower", 0.05) == "unresolved"
    assert verdict([3, 3], [3, 3], "lower", None, "output") == "equal"
    assert verdict([3, 3], [3, 4], "lower", None, "output") == "DIFFERENT"
    assert verdict([3, 3], [3, 3], "lower", None, "work") == "equal"
    assert verdict([9, 9], [7, 7], "lower", None, "work") == "lower"
    assert verdict([9, 9], [11, 11], "lower", None, "work") == "higher"


def test_counter_classes_cover_the_exact_counters():
    assert not common.OUTPUT_COUNTERS & common.WORK_COUNTERS
    assert "cluster.bytes_moved" in common.OUTPUT_COUNTERS
    assert "service.computed" in common.OUTPUT_COUNTERS
    assert "sim.core.events" in common.WORK_COUNTERS
    assert "sim.resources.reschedules" in common.WORK_COUNTERS
    assert "sim.fluid.rate_solves" in common.WORK_COUNTERS


def test_compare_exits_nonzero_on_a_regression(tmp_path, capsys):
    def report(latency, events=7, moved=100):
        return {"workloads": {"paper_exact": {
            "units": {"op_ms_p50": "ms", "sim.core.events": "count",
                      "cluster.bytes_moved": "B"},
            "runs": [{"metrics": {"op_ms_p50": v, "sim.core.events": events,
                                  "cluster.bytes_moved": moved}}
                     for v in latency]}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report([10.0, 10.1, 9.9])))
    b.write_text(json.dumps(report([10.0, 10.2, 9.8])))
    assert compare(str(a), str(b)) == 0
    # an optimisation that schedules fewer events passes
    b.write_text(json.dumps(report([8.0, 8.1, 7.9], events=5)))
    assert compare(str(a), str(b)) == 0
    assert "lower" in capsys.readouterr().out
    # one that changes a simulated output does not
    b.write_text(json.dumps(report([8.0, 8.1, 7.9], moved=99)))
    assert compare(str(a), str(b)) == 1
    assert "DIFFERENT" in capsys.readouterr().out
    b.write_text(json.dumps(report([13.0, 13.1, 12.9])))
    assert compare(str(a), str(b)) == 1
    assert "worse" in capsys.readouterr().out
