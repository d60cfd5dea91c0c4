"""CLI for the experiment service: ``python -m repro.service <cmd>``.

- ``serve`` — run a server on a unix socket (SIGTERM drains cleanly).
- ``submit`` / ``status`` / ``result`` / ``stats`` / ``drain`` /
  ``ping`` — thin clients for one-off operations against a running
  server (``result`` fetches stored bytes over the zero-copy path and
  decodes them client-side).
- ``bench`` — boot a private server, drive the synthetic-client load
  harness against it, and write ``BENCH_service.json``.
- ``smoke`` — the CI chaos gate: like ``bench``, but additionally
  SIGKILLs a worker (via the campaign runner's injected-fault hook) and
  SIGKILLs + restarts the *server* mid-run, then asserts zero lost
  jobs, zero failed jobs, consistent fingerprints, observed
  crash-retry activity, the serving hot path's same-run ratios
  (journal events per fsync, LRU hit ratio, in-flight dedup, batched
  and pipelined dispatch), and that no process of the killed server's
  session (its forkserver, workers, resource tracker) outlives it by
  more than :data:`ORPHAN_DEADLINE_S`. Exit status is the assertion
  result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.service.client import ServiceClient, SyncServiceClient
from repro.service.loadgen import run_delivery, run_load

__all__ = ["main", "build_parser"]

#: Smoke-mode floor on journal records per fsync. Group commit batches
#: hundreds of events per sync; a collapse to per-event fsync reads ~1.0.
MIN_EVENTS_PER_SYNC = 20.0
#: Smoke-mode floor on the result-store LRU hit ratio: the load repeats
#: a small pool of cells, so most lookups must hit the in-memory index.
MIN_LRU_HIT_RATIO = 0.5
#: Smoke-mode deadline for the killed server's session to empty: its
#: pool's workers exit with the server, then the forkserver and the
#: resource tracker see EOF and exit. Survivors past it are counted.
ORPHAN_DEADLINE_S = 10.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="fault-tolerant campaign-as-a-service experiment server",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a server (SIGTERM drains)")
    serve.add_argument("--socket", required=True)
    serve.add_argument("--journal", required=True)
    serve.add_argument("--cache-dir", default=None)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--tenant-budget", type=int, default=16)
    serve.add_argument("--shed-hybrid-depth", type=int, default=16)
    serve.add_argument("--shed-fluid-depth", type=int, default=48)
    serve.add_argument("--breaker-threshold", type=int, default=3)
    serve.add_argument("--breaker-cooldown", type=float, default=30.0)
    serve.add_argument("--task-timeout", type=float, default=None)
    serve.add_argument("--max-retries", type=int, default=None)
    serve.add_argument("--inline", action="store_true",
                       help="run jobs on threads (no crash isolation)")
    serve.add_argument("--commit-window", type=float, default=0.002,
                       help="group-commit gather window in seconds "
                            "(0 syncs every batch immediately)")
    serve.add_argument("--fuse-small-jobs", type=int, default=4,
                       help="fuse up to N small degradable jobs per "
                            "worker round trip (1 disables)")
    serve.add_argument("--metrics-path", default=None,
                       help="write the perf-metrics timeline here at "
                            "shutdown")

    submit = sub.add_parser("submit", help="submit one job and wait")
    submit.add_argument("--socket", required=True)
    submit.add_argument("--tenant", default="cli")
    submit.add_argument("--system", default="dyad",
                        choices=("dyad", "xfs", "lustre"))
    submit.add_argument("--frames", type=int, default=8)
    submit.add_argument("--pairs", type=int, default=1)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--jitter-cv", type=float, default=0.0)
    submit.add_argument("--fidelity", default="exact",
                        choices=("exact", "hybrid", "fluid"))
    submit.add_argument("--not-degradable", action="store_true")
    submit.add_argument("--no-wait", action="store_true")

    for name, help_text in (
        ("status", "query one job"), ("stats", "server counters"),
        ("drain", "drain and stop the server"), ("ping", "liveness probe"),
        ("result", "fetch a stored result over the zero-copy path"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--socket", required=True)
        if name == "status":
            cmd.add_argument("--job-id", required=True)
        elif name == "result":
            cmd.add_argument("--job-id", help="fetch by job id")
            cmd.add_argument("--key", help="fetch by store key")

    for name, help_text in (
        ("bench", "boot a server, drive load, write BENCH_service.json"),
        ("smoke", "bench + worker-kill + server kill-restart assertions"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--clients", type=int, default=200)
        cmd.add_argument("--jobs-per-client", type=int, default=2)
        cmd.add_argument("--distinct-jobs", type=int, default=12)
        cmd.add_argument("--frames", type=int, default=2)
        cmd.add_argument("--workers", type=int, default=2)
        cmd.add_argument("--seed", type=int, default=1234)
        cmd.add_argument("--shed-hybrid-depth", type=int, default=8)
        cmd.add_argument("--kill-after", type=float, default=10.0,
                         help="max seconds to wait for in-flight activity "
                              "before SIGKILLing the server (smoke only)")
        cmd.add_argument("--commit-window", type=float, default=0.002)
        cmd.add_argument("--fuse-small-jobs", type=int, default=4)
        cmd.add_argument("--sustained-jobs-per-client", type=int, default=25,
                         help="jobs per client in the warm sustained-"
                              "throughput phase (0 skips the phase)")
        cmd.add_argument("--delivery-fetches", type=int, default=50,
                         help="result fetches per client in the zero-copy "
                              "delivery phase (0 skips the phase)")
        cmd.add_argument("--output", default="BENCH_service.json")
    return parser


def _serve(args: argparse.Namespace) -> int:
    if not args.inline:
        from repro.service.worker import launch_forkserver

        # the forkserver imports what a worker runs while this process
        # imports the server: on two cores the two chains overlap
        launch_forkserver()
    from repro.service.server import ExperimentServer, ServerConfig

    config = ServerConfig(
        socket_path=args.socket, journal_path=args.journal,
        cache_dir=args.cache_dir, workers=args.workers,
        tenant_budget=args.tenant_budget,
        shed_hybrid_depth=args.shed_hybrid_depth,
        shed_fluid_depth=args.shed_fluid_depth,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        task_timeout=args.task_timeout, max_retries=args.max_retries,
        inline=args.inline,
        commit_window=args.commit_window,
        fuse_small_jobs=args.fuse_small_jobs,
        metrics_path=args.metrics_path,
    )

    async def _run() -> None:
        server = ExperimentServer(config)
        await server.start(handle_signals=True)
        print(f"serving on {config.socket_path}", flush=True)
        await server.serve_forever()

    asyncio.run(_run())
    return 0


def _client_command(args: argparse.Namespace) -> int:
    client = SyncServiceClient(args.socket, connect_timeout=10.0)
    if args.command == "submit":
        response = client.submit({
            "tenant": args.tenant, "system": args.system,
            "frames": args.frames, "pairs": args.pairs, "seed": args.seed,
            "jitter_cv": args.jitter_cv, "fidelity": args.fidelity,
            "degradable": not args.not_degradable,
        }, wait=not args.no_wait)
    elif args.command == "status":
        response = client.status(args.job_id)
    elif args.command == "result":
        if not (args.key or args.job_id):
            print("one of --key / --job-id is required", file=sys.stderr)
            return 2
        header, result = client.fetch_result(key=args.key, job_id=args.job_id)
        response = dict(header)
        if result is not None:
            response["makespan"] = getattr(result, "makespan", None)
    elif args.command == "stats":
        response = client.stats()
    elif args.command == "drain":
        response = client.drain()
    else:
        response = {"ok": client.ping()}
    print(json.dumps(response, indent=1, sort_keys=True))
    return 0 if response.get("ok") else 1


def server_command(socket_path: str, journal_path: str, cache_dir: str,
                   workers: int = 2, shed_hybrid_depth: int = 8,
                   commit_window: float = 0.002,
                   fuse_small_jobs: int = 4) -> List[str]:
    """The ``serve`` argv the orchestrated scenarios launch."""
    return [
        sys.executable, "-m", "repro.service", "serve",
        "--socket", socket_path, "--journal", journal_path,
        "--cache-dir", cache_dir, "--workers", str(workers),
        "--shed-hybrid-depth", str(shed_hybrid_depth),
        # keep the policy invariant hybrid_at <= fluid_at intact when a
        # caller pushes the hybrid threshold sky-high to disable shedding
        "--shed-fluid-depth", str(max(48, shed_hybrid_depth)),
        "--commit-window", str(commit_window),
        "--fuse-small-jobs", str(fuse_small_jobs),
    ]


def _spawn_server(cmd: List[str], env: Dict[str, str]) -> subprocess.Popen:
    # its own session: the session id (= its pid) names every process
    # the server starts, so a kill can be checked for survivors
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def session_processes(sid: int) -> List[int]:
    """Pids of the running processes of session ``sid`` (Linux
    ``/proc``). Zombies have ended; reaping them is their parent's
    business."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        # fields after the parenthesised command: state, ppid, pgrp, sid
        state, _ppid, _pgrp, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == sid and state != "Z":
            pids.append(int(entry))
    return pids


async def _session_survivors(sid: int, deadline_s: float) -> int:
    """How many processes of session ``sid`` still run after waiting up
    to ``deadline_s`` for the session to empty."""
    deadline = time.monotonic() + deadline_s
    while session_processes(sid) and time.monotonic() < deadline:
        await asyncio.sleep(0.05)
    return len(session_processes(sid))


async def _first_ping(socket_path: str) -> None:
    client = ServiceClient(socket_path, connect_timeout=60.0,
                           connect_backoff=0.002, backoff_cap=0.005,
                           backoff_jitter=0.0)
    try:
        await client.ping()
    finally:
        await client.close()


def _journal_has_retry(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            return b'"ev": "retry"' in fh.read()
    except OSError:
        return False


async def _orchestrate(args: argparse.Namespace, chaos: bool) -> Dict[str, Any]:
    """Boot a private server, drive the load, optionally kill mid-run."""
    workdir = tempfile.mkdtemp(prefix="repro-svc-")
    socket_path = os.path.join(workdir, "svc.sock")
    journal_path = os.path.join(workdir, "journal.jsonl")
    cache_dir = os.path.join(workdir, "cache")
    fault_dir = os.path.join(workdir, "faults")
    os.makedirs(fault_dir, exist_ok=True)

    env = dict(os.environ)
    env["REPRO_JOBS_OVERSUBSCRIBE"] = "1"
    if chaos:
        # one worker of the first seed's jobs hard-exits mid-task, once —
        # the injected-fault hook shared with the campaign runner
        env["REPRO_WORKER_FAULT_DIR"] = fault_dir
        env["REPRO_WORKER_CRASH_SEEDS"] = str(args.seed)

    cmd = server_command(socket_path, journal_path, cache_dir,
                         workers=args.workers,
                         shed_hybrid_depth=args.shed_hybrid_depth,
                         commit_window=args.commit_window,
                         fuse_small_jobs=args.fuse_small_jobs)
    server = _spawn_server(cmd, env)
    kills = 0
    restart_s: Optional[float] = None
    survivors: Optional[asyncio.Future] = None
    try:
        load = asyncio.ensure_future(run_load(
            socket_path, clients=args.clients,
            jobs_per_client=args.jobs_per_client,
            distinct_jobs=args.distinct_jobs, frames=args.frames,
            seed=args.seed,
        ))
        if chaos:
            # sequence the chaos deterministically: wait until the journal
            # proves the worker crash was detected and retried, *then*
            # SIGKILL the server — killing on a fixed delay races the two
            # faults against each other and the load's completion
            deadline = time.monotonic() + args.kill_after
            while not load.done() and time.monotonic() < deadline:
                if _journal_has_retry(journal_path):
                    break
                await asyncio.sleep(0.02)
            if not load.done():
                killed_at = time.perf_counter()
                server.kill()  # SIGKILL: no drain, no journal flush
                server.wait()
                kills = 1
                # only the server dies; its pool must follow it
                survivors = asyncio.ensure_future(
                    _session_survivors(server.pid, ORPHAN_DEADLINE_S))
                server = _spawn_server(cmd, env)
                await _first_ping(socket_path)
                restart_s = time.perf_counter() - killed_at
        report = await load
        orphans = await survivors if survivors is not None else 0
        # warm sustained phase: the pool is now fully cached, so this
        # measures the pure serving hot path (admission + group commit +
        # LRU store hits) without job execution in the way
        sustained = None
        if args.sustained_jobs_per_client > 0:
            sustained = await run_load(
                socket_path, clients=args.clients,
                jobs_per_client=args.sustained_jobs_per_client,
                distinct_jobs=args.distinct_jobs, frames=args.frames,
                seed=args.seed,
            )
            sustained.pop("fingerprints", None)  # phase 1's is canonical
        # zero-copy delivery phase: stream stored results straight from
        # the server's mmap segment
        delivery = None
        if args.delivery_fetches > 0:
            keys = sorted(report.get("fingerprints", {}))
            delivery = await run_delivery(
                socket_path, keys, clients=min(args.clients, 8),
                fetches_per_client=args.delivery_fetches,
            )
        stats_client = ServiceClient(socket_path, connect_timeout=30.0)
        try:
            stats = await stats_client.stats()
        finally:
            await stats_client.close()
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    report["server_kills"] = kills
    report["restart_s"] = restart_s
    report["orphans"] = orphans
    report["sustained"] = sustained
    report["delivery"] = delivery
    report["server_stats"] = {
        k: stats.get(k) for k in ("counters", "queue", "breaker", "store",
                                  "dispatch", "admission_batches", "journal",
                                  "latency_p50", "latency_p99", "pending")
    }
    return report


def _check(report: Dict[str, Any], chaos: bool) -> List[str]:
    """The smoke assertions; returns failure messages (empty = pass)."""
    failures = []
    if report["lost_jobs"] != 0:
        failures.append(f"lost jobs: {report['lost_jobs']}")
    if report["outcomes"]["failed"] != 0:
        failures.append(f"failed jobs: {report['outcomes']['failed']}")
    if report["outcomes"]["done"] != report["submitted"]:
        failures.append(
            f"exactly-once violated: {report['outcomes']['done']} done "
            f"of {report['submitted']} submitted"
        )
    if report["divergent_fingerprints"]:
        failures.append(
            f"fingerprint divergence: {report['divergent_fingerprints']}"
        )
    sustained = report.get("sustained")
    if sustained is not None:
        if sustained["lost_jobs"] != 0:
            failures.append(
                f"sustained phase lost jobs: {sustained['lost_jobs']}"
            )
        if sustained["outcomes"]["done"] != sustained["submitted"]:
            failures.append(
                f"sustained phase exactly-once violated: "
                f"{sustained['outcomes']['done']} done of "
                f"{sustained['submitted']} submitted"
            )
    delivery = report.get("delivery")
    if delivery is not None and delivery["delivered"] != delivery["fetches"]:
        failures.append(
            f"delivery phase dropped fetches: {delivery['delivered']} "
            f"of {delivery['fetches']}"
        )
    if chaos:
        server_stats = report["server_stats"]
        counters = server_stats["counters"]
        if counters.get("retries", 0) < 1:
            failures.append("worker crash was never retried "
                            "(chaos hook did not fire?)")
        if report["server_kills"] != 1:
            failures.append("server was never killed mid-run "
                            "(load finished too early; raise --clients "
                            "or lower --kill-after)")
        if report["orphans"]:
            failures.append(
                f"{report['orphans']} processes of the killed server's "
                f"session still running {ORPHAN_DEADLINE_S:.0f}s after "
                f"the SIGKILL")
        # same-run ratios and counts: independent of machine speed
        journal = server_stats["journal"]
        per_sync = journal["records"] / max(journal["syncs"], 1)
        if per_sync < MIN_EVENTS_PER_SYNC:
            failures.append(
                f"journal group commit collapsed: {per_sync:.1f} events "
                f"per fsync (floor {MIN_EVENTS_PER_SYNC:.0f})"
            )
        hits, misses = (server_stats["store"]["lru_hits"],
                        server_stats["store"]["lru_misses"])
        hit_ratio = hits / max(hits + misses, 1)
        if hit_ratio < MIN_LRU_HIT_RATIO:
            failures.append(f"result-store LRU hit ratio {hit_ratio:.2f} "
                            f"below {MIN_LRU_HIT_RATIO:.2f}")
        if counters.get("dedup_inflight", 0) < 1:
            failures.append("duplicate submissions were never deduplicated "
                            "in flight")
        jobs, batches = (server_stats["dispatch"]["jobs"],
                         server_stats["dispatch"]["batches"])
        if not jobs >= batches >= 1:
            failures.append(f"dispatch accounting off: {jobs} jobs in "
                            f"{batches} batches")
        if server_stats["dispatch"]["pipelined"] < 1:
            failures.append("pipelined dispatch never observed: no job was "
                            "handed to a busy worker")
    return failures


def _bench(args: argparse.Namespace, chaos: bool) -> int:
    report = asyncio.run(_orchestrate(args, chaos=chaos))
    failures = _check(report, chaos=chaos)
    payload = {
        "schema": 2,
        "mode": "smoke" if chaos else "bench",
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "failures": failures,
        **report,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    sustained = report.get("sustained") or {}
    delivery = report.get("delivery") or {}
    print(json.dumps({
        "submitted": report["submitted"],
        "done": report["outcomes"]["done"],
        "lost": report["lost_jobs"],
        "throughput": report.get("throughput"),
        "latency_p50": report["latency_p50"],
        "latency_p99": report["latency_p99"],
        "sustained_throughput": sustained.get("throughput"),
        "delivery_fetches_per_second": delivery.get("fetches_per_second"),
        "shed": report["server_stats"]["counters"].get("shed"),
        "dedup_inflight":
            report["server_stats"]["counters"].get("dedup_inflight"),
        "retries": report["server_stats"]["counters"].get("retries"),
        "journal_syncs":
            report["server_stats"].get("journal", {}).get("syncs"),
        "server_kills": report["server_kills"],
        "restart_s": report["restart_s"],
        "orphans": report["orphans"],
    }, indent=1))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command in ("submit", "status", "result", "stats", "drain",
                        "ping"):
        return _client_command(args)
    if args.command == "bench":
        return _bench(args, chaos=False)
    if args.command == "smoke":
        return _bench(args, chaos=True)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
