"""Synthetic-client load harness for chaos-soaking the server.

Drives hundreds of concurrent asyncio clients — mixed tenants, a small
pool of distinct job contents (realistic campaigns repeat cells, which
is what exercises the dedup paths), and deliberate duplicate
submissions — against a running server, and reports the numbers
``BENCH_service.json`` records: p50/p99 submit-to-result latency,
result sources (computed/hit/dedup), client resubmits, and zero-lost-job
accounting (every submitted job must reach a terminal state exactly
once, even when an orchestrator is SIGKILL-ing the server mid-run;
clients ride restarts out via
:meth:`~repro.service.client.ServiceClient.submit_resilient`).

The harness is deliberately server-agnostic: it only speaks the wire
protocol, so the same load runs against an in-process server (unit
tests), a subprocess (kill-resume tests, CI smoke), or a long-lived
deployment.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, List, Optional

from repro.service.client import ServiceClient

__all__ = ["build_job_pool", "run_load", "run_delivery", "percentile"]


def percentile(values: List[float], p: float) -> Optional[float]:
    """Nearest-rank percentile (None on empty input)."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(int(p * len(ordered)), len(ordered) - 1)]


def build_job_pool(
    tenants: List[str],
    distinct: int = 12,
    frames: int = 2,
    seed: int = 0,
    fidelity: str = "exact",
) -> List[Dict[str, Any]]:
    """A pool of ``distinct`` small job payloads across the tenants.

    Systems and seeds cycle deterministically so the pool is identical
    across runs — the property the kill-resume fingerprint comparison
    depends on.
    """
    systems = ("dyad", "xfs", "lustre")
    pool = []
    for i in range(distinct):
        pool.append({
            "tenant": tenants[i % len(tenants)],
            "system": systems[i % len(systems)],
            "frames": frames,
            "pairs": 1,
            "seed": seed + i // len(systems),
            "fidelity": fidelity,
        })
    return pool


async def run_load(
    socket_path: str,
    clients: int = 32,
    jobs_per_client: int = 4,
    tenants: Optional[List[str]] = None,
    duplicate_fraction: float = 0.5,
    distinct_jobs: int = 12,
    frames: int = 2,
    seed: int = 1234,
    fidelity: str = "exact",
    deadline: float = 300.0,
) -> Dict[str, Any]:
    """Drive the mixed-tenant load; returns the accounting report.

    Each client submits ``jobs_per_client`` jobs drawn from the shared
    pool (``duplicate_fraction`` of draws intentionally repeat the
    previous draw, forcing in-flight dedup) and waits for each to reach
    a terminal state before the next — so ``clients`` is also the
    concurrent-connection count.
    """
    tenants = tenants or ["alice", "bob", "carol"]
    pool = build_job_pool(tenants, distinct=distinct_jobs, frames=frames,
                          seed=seed, fidelity=fidelity)
    rng = random.Random(seed)
    # pre-draw every client's job sequence so the submitted *set* is
    # deterministic even though completion interleaving is not
    sequences = []
    for c in range(clients):
        draws = []
        prev = None
        for _ in range(jobs_per_client):
            if prev is not None and rng.random() < duplicate_fraction:
                draws.append(prev)
            else:
                prev = rng.choice(pool)
                draws.append(prev)
        sequences.append(draws)

    latencies: List[float] = []
    outcomes = {"done": 0, "failed": 0, "lost": 0}
    sources = {"computed": 0, "hit": 0, "dedup": 0}
    fingerprints: Dict[str, set] = {}
    resubmits = 0
    reconnects = 0
    lock = asyncio.Lock()

    async def one_client(index: int, jobs: List[Dict[str, Any]]) -> None:
        nonlocal resubmits, reconnects
        # per-client seeds keep the jittered backoff schedule both
        # deterministic (same run, same timeline) and de-synchronized
        client = ServiceClient(socket_path, seed=seed + index)
        try:
            for job in jobs:
                started = time.monotonic()
                try:
                    response = await client.submit_resilient(
                        job, deadline=deadline
                    )
                except Exception:
                    async with lock:
                        outcomes["lost"] += 1
                    continue
                elapsed = time.monotonic() - started
                async with lock:
                    resubmits += response.get("client_resubmits", 0)
                    if response.get("state") == "done":
                        outcomes["done"] += 1
                        latencies.append(elapsed)
                        src = response.get("source")
                        if src in sources:
                            sources[src] += 1
                        key = response.get("key")
                        if key is not None:
                            fingerprints.setdefault(key, set()).add(
                                response.get("fingerprint")
                            )
                    elif response.get("state") == "failed":
                        outcomes["failed"] += 1
                    else:
                        outcomes["lost"] += 1
            reconnects += client.reconnects
        finally:
            await client.close()

    started = time.monotonic()
    await asyncio.gather(
        *(one_client(i, seq) for i, seq in enumerate(sequences))
    )
    wall = time.monotonic() - started

    submitted = clients * jobs_per_client
    # exactly-once determinism check: every result of one content
    # address carries one fingerprint, no matter which tenant/attempt
    # computed it
    divergent = {k: sorted(v) for k, v in fingerprints.items()
                 if len(v) != 1}
    return {
        "clients": clients,
        "jobs_per_client": jobs_per_client,
        "submitted": submitted,
        "distinct_jobs": len(pool),
        "tenants": tenants,
        "wall_seconds": round(wall, 3),
        "throughput": round(submitted / wall, 1) if wall > 0 else None,
        "outcomes": outcomes,
        "sources": sources,
        "client_resubmits": resubmits,
        "client_reconnects": reconnects,
        "latency_p50": percentile(latencies, 0.50),
        "latency_p99": percentile(latencies, 0.99),
        "latency_max": max(latencies) if latencies else None,
        "lost_jobs": outcomes["lost"],
        "divergent_fingerprints": divergent,
        # key -> fingerprint(s): the map a kill-resume run is compared
        # against its uninterrupted twin on
        "fingerprints": {k: sorted(v) for k, v in sorted(fingerprints.items())},
    }


async def run_delivery(
    socket_path: str,
    keys: List[str],
    clients: int = 8,
    fetches_per_client: int = 50,
) -> Dict[str, Any]:
    """Hammer the ``result`` op; returns delivered fetches/s.

    Every fetch reads one cache entry on the server, checks its CRC and
    streams its framed bytes — this phase measures the delivery path
    alone, with no job execution or admission in the way.
    """
    if not keys:
        return {"clients": clients, "fetches": 0, "delivered": 0,
                "wall_seconds": 0.0, "fetches_per_second": None}

    async def one_client(index: int) -> int:
        client = ServiceClient(socket_path, seed=index)
        delivered = 0
        try:
            for i in range(fetches_per_client):
                key = keys[(index + i) % len(keys)]
                header, result = await client.fetch_result(key=key)
                if header.get("ok") and result is not None:
                    delivered += 1
        finally:
            await client.close()
        return delivered

    started = time.monotonic()
    counts = await asyncio.gather(
        *(one_client(i) for i in range(clients))
    )
    wall = time.monotonic() - started
    delivered = sum(counts)
    return {
        "clients": clients,
        "fetches": clients * fetches_per_client,
        "delivered": delivered,
        "wall_seconds": round(wall, 3),
        "fetches_per_second": (round(delivered / wall, 1)
                               if wall > 0 else None),
    }
