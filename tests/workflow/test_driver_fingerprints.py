"""Regression: every workflow spawn shape keeps its exact timeline.

The frozen kernel fixture (``tests/sim/test_channel_fingerprints.py``)
and the benchmark goldens pin coarse pairwise runs only. This file pins
the full :func:`~repro.experiments.parallel.result_fingerprint` — the
makespan, every producer/consumer call tree and *every*
``system_stats`` key, rendered with ``float.hex`` — for the shapes they
leave out:

- pairwise polling (XFS, Lustre);
- pairwise windowed (W=3), pubsub and nbuffer for every system;
- fan-out, fan-in and pool under coarse, polling, windowed and pubsub
  for every system (DYAD's polling spelling aliases coarse, so it is
  pinned once);
- one faulted windowed pairwise run (``link_flap`` on the producer
  node: lost wake-ups held, then redelivered) and one faulted fan-out
  run (``dyad_crash`` plus transfer faults: refused gets, retries and
  dropped KVS watches, all checked by the recovery accounting);
- one pairwise DYAD run at the ``hybrid`` tier (non-zero
  ``fluid_epochs``/``rate_solves``);
- one faulted Lustre run (``lustre_slowdown``) and one faulted XFS run
  (``ssd_degrade``), the POSIX systems' ``faults_*`` counters.

Every run uses ``jitter_cv=0.05`` so the per-process compute-sample
streams are exercised: a renamed sample key or a reordered draw changes
the fingerprint.

Regenerate the fixture (only when a timeline change is *intended*)::

    PYTHONPATH=src python tests/workflow/test_driver_fingerprints.py
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.dyad.config import DyadConfig
from repro.experiments.parallel import result_fingerprint
from repro.faults.plan import FaultEvent, FaultPlan
from repro.workflow.runner import run_workflow
from repro.workflow.spec import (
    Placement, SyncMode, System, Topology, WorkflowSpec,
)

FIXTURE = (pathlib.Path(__file__).parent / "fixtures"
           / "driver_fingerprints.json")

FRAMES = 3
SEED = 7
JITTER = 0.05

SHAPES = {
    Topology.FANOUT: {"consumers": 3},
    Topology.FANIN: {"producers": 3},
    Topology.POOL: {"producers": 2, "consumers": 3},
}


def _placement(system):
    return (Placement.SINGLE_NODE if system is System.XFS
            else Placement.SPLIT)


def _spec(system, sync, topology=Topology.PAIRWISE, frames=FRAMES, **extra):
    sizes = SHAPES.get(topology, {"pairs": 2})
    return WorkflowSpec(system=system, frames=frames,
                        placement=_placement(system), sync_mode=sync,
                        topology=topology, **sizes, **extra)


def tasks():
    """Every pinned cell, keyed by name."""
    out = {}
    for system in (System.XFS, System.LUSTRE):
        out[f"pairwise/polling/{system.value}"] = dict(
            spec=_spec(system, SyncMode.POLLING))
    for system in System:
        out[f"pairwise/windowed3/{system.value}"] = dict(
            spec=_spec(system, SyncMode.WINDOWED, window=3))
        for sync in (SyncMode.PUBSUB, SyncMode.NBUFFER):
            out[f"pairwise/{sync.value}/{system.value}"] = dict(
                spec=_spec(system, sync))
    for topology in SHAPES:
        for sync in (SyncMode.COARSE, SyncMode.POLLING, SyncMode.WINDOWED,
                     SyncMode.PUBSUB):
            for system in System:
                if system is System.DYAD and sync is SyncMode.POLLING:
                    continue  # normalized to COARSE by the spec
                out[f"{topology.value}/{sync.value}/{system.value}"] = dict(
                    spec=_spec(system, sync, topology))
    out["faulted/pairwise/windowed/dyad/link_flap"] = dict(
        spec=_spec(System.DYAD, SyncMode.WINDOWED, frames=4),
        fault_plan=FaultPlan(events=(
            FaultEvent("link_flap", at=1.0, target="0", duration=1.5),
        )))
    out["faulted/fanout/windowed/dyad/dyad_crash"] = dict(
        spec=_spec(System.DYAD, SyncMode.WINDOWED, Topology.FANOUT,
                   frames=4),
        dyad_config=DyadConfig(max_transfer_retries=30),
        fault_plan=FaultPlan(events=(
            FaultEvent("dyad_crash", at=0.9, target="0", duration=0.2),
        ), transfer_fault_rate=0.2))
    out["fidelity/hybrid/pairwise/coarse/dyad"] = dict(
        spec=_spec(System.DYAD, SyncMode.COARSE), fidelity="hybrid")
    out["faulted/pairwise/coarse/lustre/lustre_slowdown"] = dict(
        spec=_spec(System.LUSTRE, SyncMode.COARSE, frames=4),
        fault_plan=FaultPlan(events=(
            FaultEvent("lustre_slowdown", at=1.0, duration=1.5,
                       severity=4.0),
        )))
    out["faulted/pairwise/coarse/xfs/ssd_degrade"] = dict(
        spec=_spec(System.XFS, SyncMode.COARSE, frames=4),
        fault_plan=FaultPlan(events=(
            FaultEvent("ssd_degrade", at=1.0, target="0", duration=1.5,
                       severity=4.0),
        )))
    return out


def _run(name):
    kwargs = dict(tasks()[name])
    spec = kwargs.pop("spec")
    return run_workflow(spec, seed=SEED, jitter_cv=JITTER, **kwargs)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_task(recorded):
    assert sorted(recorded) == sorted(tasks())


@pytest.mark.parametrize("name", sorted(tasks()))
def test_driver_fingerprint_unchanged(name, recorded):
    entry = recorded[name]
    result = _run(name)
    assert result.invariant_violations == []
    assert result.makespan.hex() == entry["makespan_hex"], (
        f"{name}: makespan drifted "
        f"({float.fromhex(entry['makespan_hex'])} -> {result.makespan})"
    )
    assert sorted(result.system_stats) == entry["stats_keys"]
    assert result_fingerprint(result) == entry["fingerprint"], (
        f"{name}: full-result fingerprint changed (call trees or "
        "counters moved)"
    )


def test_pinned_runs_need_no_numpy(recorded):
    """A jittered exact run and a hybrid run reproduce their pins in an
    interpreter where importing numpy fails: jitter, the per-frame
    metrics and fingerprints are pure Python."""
    names = ["pairwise/pubsub/dyad", "fidelity/hybrid/pairwise/coarse/dyad"]
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from tests.workflow.test_driver_fingerprints import _run\n"
        "from repro.experiments.parallel import result_fingerprint\n"
        "out = {}\n"
        f"for name in {names!r}:\n"
        "    result = _run(name)\n"
        "    result.production_movement, result.consumption_time\n"
        "    out[name] = [result.makespan.hex(), result_fingerprint(result)]\n"
        "print(json.dumps(out))\n"
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
    for name in names:
        assert got[name] == [recorded[name]["makespan_hex"],
                             recorded[name]["fingerprint"]], name


#: ``python -m repro.workflow --system dyad --model jac --frames 16
#: --pairs 2 --runs 2`` as the CLI printed it when its summary used
#: ``np.mean``/``np.std``.
WORKFLOW_CLI_STDOUT = """\
running: dyad | JAC | stride=880 | pairs=2 | frames=16 | split (2 node(s)) (runs=2)
metric (per frame)   | mean       | std over runs
---------------------+------------+--------------
production movement  | 263.041 us | 0.093 us     
production idle      | 0.000 us   | 0.000 us     
consumption movement | 0.764 ms   | 0.000 ms     
consumption idle     | 56.194 ms  | 0.747 ms     
consumption total    | 56.957 ms  | 0.747 ms     
makespan             | 14.23 s    |              
"""


def test_workflow_cli_needs_no_numpy():
    """``python -m repro.workflow`` prints its summary (means and
    population stds over runs) in an interpreter where importing numpy
    fails, exactly as it did with numpy."""
    code = (
        "import runpy, sys\n"
        "sys.modules['numpy'] = None\n"
        "sys.argv = ['repro.workflow', '--system', 'dyad', '--model', 'jac',"
        " '--frames', '16', '--pairs', '2', '--runs', '2', '--jobs', '1']\n"
        "try:\n"
        "    runpy.run_module('repro.workflow', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )
    root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == WORKFLOW_CLI_STDOUT


def _refresh():
    entries = {}
    for name in sorted(tasks()):
        result = _run(name)
        entries[name] = {
            "makespan_hex": result.makespan.hex(),
            "stats_keys": sorted(result.system_stats),
            "fingerprint": result_fingerprint(result),
        }
        print(f"{name}: {entries[name]['fingerprint'][:16]}…")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    _refresh()
