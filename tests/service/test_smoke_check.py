"""The chaos smoke's verdict (``_check``), fed synthetic reports.

Besides exactly-once delivery, ``python -m repro.service smoke`` gates
the serving hot path on same-run ratios that do not depend on machine
speed: journal events per fsync, LRU hit ratio, in-flight dedup, at
least one dispatched job and pipelined dispatch. It also counts the
processes of the SIGKILLed server's session that outlive it, and fails
when the restarted server loaded a module it never needs (the simulator
only counts when the server decoded no stored result).
"""

import pytest

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
