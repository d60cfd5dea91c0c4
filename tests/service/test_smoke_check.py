"""The chaos smoke's verdict (``_check``), fed synthetic reports.

Besides exactly-once delivery, ``python -m repro.service smoke`` gates
the serving hot path on same-run ratios that do not depend on machine
speed: journal events per fsync, LRU hit ratio, in-flight dedup, at
least one dispatched job and pipelined dispatch. It also counts the
processes of the SIGKILLed server's session that outlive it, and fails
when the restarted server loaded a module it never needs (the simulator
only counts when the server decoded no stored result). A passing smoke
removes the server's temporary work directory; a failing one keeps it,
since its journal is the evidence.
"""

import argparse
import json
import os
import tempfile

import pytest

import repro.service.__main__ as main_mod
from repro.service.__main__ import _check


def _report(records=10801, syncs=28, lru_hits=5219, lru_misses=188,
            dedup=168, jobs=10, pipelined=4, orphans=0, loaded=(),
            decoded=0):
    """A passing smoke report, shaped like the real one (counts from a
    200-client run); keyword overrides break one gate at a time."""
    return {
        "lost_jobs": 0,
        "submitted": 400,
        "outcomes": {"done": 400, "failed": 0},
        "divergent_fingerprints": {},
        "server_kills": 1,
        "restart_s": 0.7,
        "orphans": orphans,
        "sustained": {"lost_jobs": 0, "submitted": 5000,
                      "outcomes": {"done": 5000, "failed": 0}},
        "delivery": {"fetches": 400, "delivered": 400},
        "server_stats": {
            "counters": {"retries": 2, "dedup_inflight": dedup},
            "journal": {"records": records, "syncs": syncs},
            "store": {"lru_hits": lru_hits, "lru_misses": lru_misses,
                      "decoded": decoded},
            "dispatch": {"jobs": jobs, "pipelined": pipelined},
            "loaded": {name: name in loaded
                       for name in ("numpy", "repro.workflow.runner",
                                    "repro.sim.core", "repro.sim.fluid",
                                    "_ssl")},
        },
    }


def test_passing_report_has_no_failures():
    assert _check(_report()) == []


@pytest.mark.parametrize("broken,failure", [
    # syncs == records: the group-commit window collapsed
    ({"records": 10000, "syncs": 10000},
     "journal group commit collapsed: 1.0 events per fsync (floor 20)"),
    ({"records": 199, "syncs": 10},
     "journal group commit collapsed: 19.9 events per fsync (floor 20)"),
    ({"lru_hits": 300, "lru_misses": 700},
     "result-store LRU hit ratio 0.30 below 0.50"),
    ({"dedup": 0}, "duplicate submissions were never deduplicated in flight"),
    ({"jobs": 0}, "no job was ever dispatched to a worker"),
    ({"pipelined": 0},
     "pipelined dispatch never observed: no job was handed to a busy "
     "worker"),
    # the killed server's forkserver, worker and resource tracker
    ({"orphans": 3},
     "3 processes of the killed server's session still running 10s "
     "after the SIGKILL"),
    # asyncio imported ssl before ``serve`` could keep it out
    ({"loaded": ("_ssl",)}, "the server loaded _ssl"),
    ({"loaded": ("repro.sim.core", "repro.sim.fluid")},
     "the server loaded repro.sim.core, repro.sim.fluid"),
    # a decode explains the simulator, never OpenSSL
    ({"loaded": ("_ssl", "repro.workflow.runner"), "decoded": 1},
     "the server loaded _ssl"),
])
def test_each_hot_path_floor_fails_alone(broken, failure):
    assert _check(_report(**broken)) == [failure]


def test_a_decode_at_resume_explains_the_simulator():
    # the killed server published a result whose "done" record was lost:
    # its replacement decodes that entry, which loads the simulator
    report = _report(loaded=("repro.workflow.runner", "repro.sim.core",
                             "repro.sim.fluid"), decoded=1)
    assert _check(report) == []


def _run_smoke(tmp_path, monkeypatch, report):
    """Run ``_smoke`` with a stand-in load that leaves a journal in the
    server's work directory; returns the exit status and the
    ``repro-svc-*`` directories left under the redirected temp dir."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR

    async def orchestrate(clients, workdir):
        with open(os.path.join(workdir, "journal.jsonl"), "w") as fh:
            fh.write(json.dumps({"ev": "submit", "id": "job-0"}) + "\n")
        return report

    monkeypatch.setattr(main_mod, "_orchestrate", orchestrate)
    output = tmp_path / "BENCH_service.json"
    status = main_mod._smoke(argparse.Namespace(clients=2,
                                                output=str(output)))
    return status, sorted(p.name for p in tmp_path.glob("repro-svc-*"))


def _full_report(**broken):
    report = _report(**broken)
    report.update(throughput=1.0, latency_p50=0.1, latency_p99=0.2,
                  server_peak_rss_mb=50.0)
    report["sustained"]["throughput"] = 1.0
    report["delivery"]["fetches_per_second"] = 1.0
    return report


def test_passing_smoke_removes_its_work_directory(tmp_path, monkeypatch):
    status, left = _run_smoke(tmp_path, monkeypatch, _full_report())
    assert status == 0
    assert left == []


def test_failing_smoke_keeps_its_journal(tmp_path, monkeypatch, capsys):
    status, left = _run_smoke(tmp_path, monkeypatch,
                              _full_report(dedup=0))
    assert status == 1
    (workdir,) = left
    assert (tmp_path / workdir / "journal.jsonl").exists()
    assert str(tmp_path / workdir) in capsys.readouterr().err
