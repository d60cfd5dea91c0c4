"""Determinism and caching guarantees of the parallel campaign runner.

The load-bearing property: ``run_repetitions(..., jobs=N)`` must return
*bit-identical* results to the serial path — same per-frame timings, same
call trees, same system stats — because the hypothesis tests and the
paper-claim verdicts assume repetitions are a pure function of their
seeds. Fingerprints hash every float via ``float.hex``, so even sub-ULP
drift would fail these tests.
"""

import importlib.util
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.errors import ReproError
from repro.experiments import parallel
from repro.experiments.parallel import (
    RunTask,
    campaign,
    default_jobs,
    result_fingerprint,
    run_campaign,
)
from repro.experiments.persist import ResultCache, default_cache_root
from repro.faults.plan import FaultEvent, FaultPlan
from repro.workflow.runner import run_repetitions, run_workflow
from repro.workflow.spec import Placement, System, WorkflowSpec

# Small-but-faithful specs of the Fig. 5 and Fig. 6 grids (reduced frame
# counts; structure and placement identical to the paper's).
FIG5_SPEC = WorkflowSpec(system=System.DYAD, frames=6, pairs=2,
                         placement=Placement.SINGLE_NODE)
FIG6_SPEC = WorkflowSpec(system=System.LUSTRE, frames=6, pairs=2,
                         placement=Placement.SPLIT)


def fingerprints(results):
    return [result_fingerprint(r) for r in results]


# ---------------------------------------------------------------------------
# parallel == serial, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [FIG5_SPEC, FIG6_SPEC], ids=["fig5", "fig6"])
def test_parallel_matches_serial_bit_for_bit(spec, monkeypatch):
    # lift the cpu_count clamp so the pool path actually runs on any box
    monkeypatch.setenv("REPRO_JOBS_OVERSUBSCRIBE", "1")
    serial = run_repetitions(spec, runs=4, jitter_cv=0.05, jobs=1)
    parallel = run_repetitions(spec, runs=4, jitter_cv=0.05, jobs=4)
    assert fingerprints(serial) == fingerprints(parallel)
    # the figure-level metrics derive from the trees; spot-check them too
    for a, b in zip(serial, parallel):
        assert a.seed == b.seed
        assert a.makespan == b.makespan
        assert a.production_movement == b.production_movement
        assert a.consumption_idle == b.consumption_idle
        assert a.system_stats == b.system_stats


def test_repetitions_are_seed_pure():
    """Same task twice -> same fingerprint (the cache's soundness basis)."""
    task = RunTask(spec=FIG5_SPEC, seed=3000, jitter_cv=0.05)
    a, b = run_campaign([task], jobs=1), run_campaign([task], jobs=1)
    assert result_fingerprint(a[0]) == result_fingerprint(b[0])


def test_run_campaign_preserves_task_order():
    tasks = [RunTask(spec=FIG5_SPEC, seed=s, jitter_cv=0.05)
             for s in (5000, 0, 2000)]
    results = run_campaign(tasks, jobs=1)
    assert [r.seed for r in results] == [5000, 0, 2000]


def test_run_campaign_empty():
    assert run_campaign([], jobs=1) == []


# ---------------------------------------------------------------------------
# cache: hits equal cold runs, misses self-heal
# ---------------------------------------------------------------------------


def test_cache_hits_equal_cold_runs(tmp_path, monkeypatch):
    cold = run_repetitions(FIG5_SPEC, runs=3, jitter_cv=0.05,
                           use_cache=True, cache_dir=str(tmp_path))
    assert len(list(tmp_path.rglob("*.pkl"))) == 3
    uncached = run_repetitions(FIG5_SPEC, runs=3, jitter_cv=0.05)

    def no_simulation(task):
        raise AssertionError(f"cache hit simulated seed {task.seed}")

    # a hit simulates nothing: the warm pass must never execute a task
    monkeypatch.setattr(parallel, "_execute_task", no_simulation)
    warm = run_repetitions(FIG5_SPEC, runs=3, jitter_cv=0.05,
                           use_cache=True, cache_dir=str(tmp_path))
    assert fingerprints(cold) == fingerprints(warm)
    assert fingerprints(uncached) == fingerprints(warm)


def test_cache_key_distinguishes_inputs(tmp_path):
    cache = ResultCache(str(tmp_path))
    base = cache.key(FIG5_SPEC, 0, 0.05, {})
    assert cache.key(FIG5_SPEC, 0, 0.05, {}) == base
    assert cache.key(FIG5_SPEC, 1000, 0.05, {}) != base
    assert cache.key(FIG5_SPEC, 0, 0.0, {}) != base
    assert cache.key(FIG6_SPEC, 0, 0.05, {}) != base
    from repro.dyad.config import DyadConfig

    assert cache.key(FIG5_SPEC, 0, 0.05,
                     {"dyad_config": DyadConfig()}) != base


def test_cache_ignores_none_configs(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert (cache.key(FIG5_SPEC, 0, 0.05, {"dyad_config": None})
            == cache.key(FIG5_SPEC, 0, 0.05, {}))


def test_cache_corrupt_entry_self_heals(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache.key(FIG5_SPEC, 0, 0.05, {})
    os.makedirs(os.path.dirname(cache.path(key)), exist_ok=True)
    with open(cache.path(key), "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.load(key) is None
    assert not os.path.exists(cache.path(key))
    assert cache.misses == 1


def test_cache_truncated_entry_self_heals(tmp_path):
    """A crash mid-write leaves a short entry: the CRC frame catches it."""
    cache = ResultCache(str(tmp_path))
    result = run_workflow(FIG5_SPEC, seed=0, jitter_cv=0.05)
    key = cache.key(FIG5_SPEC, 0, 0.05, {})
    path = cache.store(key, result)
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob[:4] == b"RPRC"
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])  # torn write
    assert cache.load(key) is None
    assert not os.path.exists(path)
    # the next computation repopulates the entry
    cache.store(key, result)
    assert cache.load(key) is not None


def test_cache_bitflip_entry_self_heals(tmp_path):
    """A flipped payload byte fails the CRC even if pickle would load."""
    cache = ResultCache(str(tmp_path))
    result = run_workflow(FIG5_SPEC, seed=0, jitter_cv=0.05)
    key = cache.key(FIG5_SPEC, 0, 0.05, {})
    path = cache.store(key, result)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[-1] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    assert cache.load(key) is None
    assert cache.misses == 1


def test_cache_sharded_layout_and_legacy_entries(tmp_path):
    """Entries land in root/<key[:2]>/; flat legacy files still counted."""
    cache = ResultCache(str(tmp_path))
    result = run_workflow(FIG5_SPEC, seed=0, jitter_cv=0.05)
    key = cache.key(FIG5_SPEC, 0, 0.05, {})
    path = cache.store(key, result)
    assert os.path.dirname(path) == os.path.join(str(tmp_path), key[:2])
    # a pre-shard flat entry is visible to len() and clear()
    with open(os.path.join(str(tmp_path), "0" * 64 + ".pkl"), "wb") as fh:
        fh.write(b"legacy")
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0


def test_cache_store_load_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path))
    result = run_workflow(FIG5_SPEC, seed=0, jitter_cv=0.05)
    key = cache.key(FIG5_SPEC, 0, 0.05, {})
    cache.store(key, result)
    loaded = cache.load(key)
    assert result_fingerprint(loaded) == result_fingerprint(result)
    assert cache.hits == 1
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


def test_cache_refuses_traced_results(tmp_path):
    cache = ResultCache(str(tmp_path))
    traced = run_workflow(FIG5_SPEC, seed=0, jitter_cv=0.05, trace=True)
    with pytest.raises(ReproError):
        cache.store(cache.key(FIG5_SPEC, 0, 0.05, {}), traced)


def test_cached_results_survive_pickle_roundtrip():
    result = run_workflow(FIG5_SPEC, seed=0, jitter_cv=0.05)
    clone = pickle.loads(pickle.dumps(result))
    assert result_fingerprint(clone) == result_fingerprint(result)


# ---------------------------------------------------------------------------
# knob resolution: explicit > campaign scope > environment > serial
# ---------------------------------------------------------------------------


def test_default_jobs_resolution(monkeypatch):
    # oversubscribe so precedence is observable regardless of box size
    monkeypatch.setenv("REPRO_JOBS_OVERSUBSCRIBE", "1")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    assert default_jobs(2) == 2
    with campaign(jobs=5):
        assert default_jobs() == 5
        assert default_jobs(2) == 2
    assert default_jobs() == 3


def test_default_jobs_clamps_to_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS_OVERSUBSCRIBE", raising=False)
    cpus = os.cpu_count() or 1
    assert default_jobs(cpus + 7) == cpus
    monkeypatch.setenv("REPRO_JOBS", str(cpus + 100))
    assert default_jobs() == cpus
    # an explicit request at or below the core count is honoured
    assert default_jobs(1) == 1
    # ... and the escape hatch lifts the clamp
    monkeypatch.setenv("REPRO_JOBS_OVERSUBSCRIBE", "1")
    assert default_jobs(cpus + 7) == cpus + 7


def test_default_jobs_rejects_nonpositive():
    with pytest.raises(ReproError):
        default_jobs(0)


def test_campaign_scope_restores_on_exit(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS_OVERSUBSCRIBE", "1")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    with pytest.raises(RuntimeError):
        with campaign(jobs=7):
            assert default_jobs() == 7
            raise RuntimeError("boom")
    assert default_jobs() == 1


def test_campaign_scope_enables_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    with campaign(cache=True, cache_dir=str(tmp_path)):
        run_repetitions(FIG5_SPEC, runs=2, jitter_cv=0.05)
    assert len(list(tmp_path.rglob("*.pkl"))) == 2


def test_cache_env_default_off(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run_repetitions(FIG5_SPEC, runs=1, jitter_cv=0.05)
    assert list(tmp_path.rglob("*.pkl")) == []


def test_cache_env_turns_cache_on(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run_repetitions(FIG5_SPEC, runs=1, jitter_cv=0.05)
    assert len(list(tmp_path.rglob("*.pkl"))) == 1
    # an explicit scope still wins over the environment
    with campaign(cache=False):
        run_repetitions(FIG5_SPEC, runs=2, jitter_cv=0.05)
    assert len(list(tmp_path.rglob("*.pkl"))) == 1


def test_default_cache_root_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    assert default_cache_root() == str(tmp_path / "alt")


# ---------------------------------------------------------------------------
# one lean process: what a serial, uncached run loads, and its pinned keys
# ---------------------------------------------------------------------------


def lean_tasks():
    """A clean task and a faulted DYAD task whose transfer faults, retry
    backoff and ``bit_corrupt`` window each draw from their own stream."""
    faulted = WorkflowSpec(system=System.DYAD, frames=4,
                           placement=Placement.SPLIT)
    plan = FaultPlan(events=(FaultEvent("bit_corrupt", at=0.0, target="0",
                                        duration=2.0, rate=0.5),),
                     transfer_fault_rate=0.3)
    return [RunTask(FIG5_SPEC, seed=0, jitter_cv=0.05),
            RunTask(faulted, seed=5, jitter_cv=0.05, fault_plan=plan)]


#: ``RunTask.key()`` and ``result_fingerprint`` of :func:`lean_tasks`, as
#: ``hashlib.sha256`` and numpy's generators computed them. A key change
#: orphans every cache entry: bump ``_CACHE_SCHEMA`` on purpose instead.
LEAN_KEYS = [
    "8fce91b6524e71b7810396c3c0e5b199bcddda3308b72af3095fd0ff762ae331",
    "a1f8bf055a1320c51913b2c29abe2d4a82d0c5da6be0b67e543a042a03f82a6c",
]
LEAN_FINGERPRINTS = [
    "fe6c1a11fae8fe0d15976db4c382355e113aa99abec3ec056eeafb4d0e92c2ce",
    "edc03f1c554d3aed372f10508571f7e55b24b64d97e342bd2a8f1cdb57f8d955",
]
#: modules a simulation process has no use for: numpy, OpenSSL (through
#: hashlib) and the process-pool stack
LEAN_BANNED = ("numpy", "_hashlib", "multiprocessing", "concurrent.futures",
               "asyncio")


def test_run_task_keys_are_pinned():
    assert [task.key() for task in lean_tasks()] == LEAN_KEYS


@pytest.mark.parametrize("text", ["", "abc", "Grüße, 分子動力学 ✓"])
def test_sha256_hex_is_hashlib_sha256(text):
    # imported here: the lean-process test below imports this module
    import hashlib

    expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert parallel._sha256_hex(text) == expected


def test_serial_campaign_loads_no_numpy_openssl_or_pool():
    """A fresh interpreter runs :func:`lean_tasks` serially and uncached,
    fingerprints the results and keys the tasks, and has loaded none of
    :data:`LEAN_BANNED` by the end."""
    code = (
        "import json, sys\n"
        "from repro.experiments.parallel import (\n"
        "    result_fingerprint, run_campaign)\n"
        "from repro.sim.rng import RngStreams\n"
        "from tests.experiments.test_parallel import LEAN_BANNED, lean_tasks\n"
        "drawn = set()\n"
        "stream = RngStreams.stream\n"
        "RngStreams.stream = lambda self, name: (\n"
        "    drawn.add(name) or stream(self, name))\n"
        "tasks = lean_tasks()\n"
        "results = run_campaign(tasks, jobs=1, use_cache=False)\n"
        "print(json.dumps({\n"
        "    'keys': [task.key() for task in tasks],\n"
        "    'fingerprints': [result_fingerprint(r) for r in results],\n"
        "    'drawn': sorted(drawn),\n"
        "    'loaded': [m for m in LEAN_BANNED if m in sys.modules]}))\n"
    )
    root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["keys"] == LEAN_KEYS
    assert got["fingerprints"] == LEAN_FINGERPRINTS
    assert {"dyad.retry", "transport.fault",
            "faults.bit_corrupt"} <= set(got["drawn"])
    banned = set(LEAN_BANNED)
    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        banned.discard("_hashlib")  # hashlib is the only sha256 there
    assert banned.isdisjoint(got["loaded"]), got["loaded"]
