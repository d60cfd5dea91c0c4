"""CLI for the experiment service: ``python -m repro.service <cmd>``.

- ``serve`` — run a server on a unix socket (SIGTERM drains cleanly).
- ``submit`` / ``status`` / ``result`` / ``stats`` / ``drain`` /
  ``ping`` — thin clients for one-off operations against a running
  server (``result`` fetches a stored result's framed bytes and decodes
  them client-side).
- ``smoke`` — the CI chaos gate: boot a private server, drive the
  synthetic-client load harness against it, SIGKILL a worker (via the
  campaign runner's injected-fault hook) and SIGKILL + restart the
  *server* mid-run, then assert zero lost jobs, zero failed jobs,
  consistent fingerprints, observed crash-retry activity, the serving
  hot path's same-run ratios (journal events per fsync, LRU hit ratio,
  in-flight dedup, at least one dispatched and one pipelined job), and
  that no process of the killed server's session (its forkserver,
  workers, resource tracker) outlives it by more than
  :data:`ORPHAN_DEADLINE_S`, and that the restarted server loaded none
  of the modules its ``stats`` reports under ``loaded``. Writes
  ``BENCH_service.json``; exit status is the assertion result.

The ``serve`` process is lean. It speaks over a unix socket only, so
before anything imports asyncio it marks ``ssl`` unavailable, and
asyncio takes its no-TLS path: OpenSSL (about 4 MB resident) never
loads. Its jobs validate their tier without the simulator, and its
workers encode results, so it loads neither the DES kernel, the
workflow runner nor numpy. Only ``serve`` blocks ``ssl``: this module
imports asyncio, the client and the load generator inside the
subcommands that use them, so importing it leaves ``ssl`` importable.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

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

# the smoke's load: each client submits JOBS_PER_CLIENT jobs drawn from
# a pool of DISTINCT_JOBS cells of FRAMES frames (seeded by SEED), on a
# server with WORKERS workers
JOBS_PER_CLIENT = 2
DISTINCT_JOBS = 12
FRAMES = 2
WORKERS = 2
SEED = 1234
#: longest wait for the journal to show the worker crash's retry before
#: the server is SIGKILLed anyway
KILL_AFTER_S = 10.0
#: jobs per client in the warm sustained-throughput phase
SUSTAINED_JOBS_PER_CLIENT = 25
#: result fetches per client in the delivery phase
DELIVERY_FETCHES = 50


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
    serve.add_argument("--task-timeout", type=float, default=None)
    serve.add_argument("--max-retries", type=int, default=None)
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
    submit.add_argument("--no-wait", action="store_true")

    for name, help_text in (
        ("status", "query one job"), ("stats", "server counters"),
        ("drain", "drain and stop the server"), ("ping", "liveness probe"),
        ("result", "fetch a stored result"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--socket", required=True)
        if name == "status":
            cmd.add_argument("--job-id", required=True)
        elif name == "result":
            cmd.add_argument("--job-id", help="fetch by job id")
            cmd.add_argument("--key", help="fetch by store key")

    smoke = sub.add_parser(
        "smoke", help="load + worker-kill + server kill-restart assertions")
    smoke.add_argument("--clients", type=int, default=200)
    smoke.add_argument("--output", default="BENCH_service.json")
    return parser


def _serve(args: argparse.Namespace) -> int:
    # no TLS on a unix socket: asyncio's ``import ssl`` now fails and it
    # runs without OpenSSL (see the module docstring)
    sys.modules.setdefault("ssl", None)
    import asyncio

    from repro.service.worker import launch_forkserver

    # the forkserver imports what a worker runs while this process
    # imports the server: on two cores the two chains overlap
    launch_forkserver()
    from repro.service.server import ExperimentServer, ServerConfig

    config = ServerConfig(
        socket_path=args.socket, journal_path=args.journal,
        cache_dir=args.cache_dir, workers=args.workers,
        task_timeout=args.task_timeout, max_retries=args.max_retries,
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
    from repro.service.client import SyncServiceClient

    client = SyncServiceClient(args.socket, connect_timeout=10.0)
    if args.command == "submit":
        response = client.submit({
            "tenant": args.tenant, "system": args.system,
            "frames": args.frames, "pairs": args.pairs, "seed": args.seed,
            "jitter_cv": args.jitter_cv, "fidelity": args.fidelity,
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
                   workers: int = WORKERS) -> List[str]:
    """The ``serve`` argv the orchestrated scenarios launch."""
    return [
        sys.executable, "-m", "repro.service", "serve",
        "--socket", socket_path, "--journal", journal_path,
        "--cache-dir", cache_dir, "--workers", str(workers),
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
    import asyncio

    deadline = time.monotonic() + deadline_s
    while session_processes(sid) and time.monotonic() < deadline:
        await asyncio.sleep(0.05)
    return len(session_processes(sid))


def _peak_rss_mb(pid: int) -> float:
    """High-water resident set of process ``pid`` (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


async def _first_ping(socket_path: str) -> None:
    from repro.service.client import ServiceClient

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


async def _orchestrate(clients: int) -> Dict[str, Any]:
    """Boot a private server, drive the load, kill a worker and the
    server mid-run, then measure the warm serving and delivery paths."""
    import asyncio

    from repro.service.client import ServiceClient
    from repro.service.loadgen import run_delivery, run_load

    workdir = tempfile.mkdtemp(prefix="repro-svc-")
    socket_path = os.path.join(workdir, "svc.sock")
    journal_path = os.path.join(workdir, "journal.jsonl")
    cache_dir = os.path.join(workdir, "cache")
    fault_dir = os.path.join(workdir, "faults")
    os.makedirs(fault_dir, exist_ok=True)

    env = dict(os.environ)
    env["REPRO_JOBS_OVERSUBSCRIBE"] = "1"
    # one worker of the first seed's jobs hard-exits mid-task, once —
    # the injected-fault hook shared with the campaign runner
    env["REPRO_WORKER_FAULT_DIR"] = fault_dir
    env["REPRO_WORKER_CRASH_SEEDS"] = str(SEED)

    cmd = server_command(socket_path, journal_path, cache_dir)
    server = _spawn_server(cmd, env)
    kills = 0
    restart_s: Optional[float] = None
    survivors: Optional[asyncio.Future] = None
    try:
        load = asyncio.ensure_future(run_load(
            socket_path, clients=clients, jobs_per_client=JOBS_PER_CLIENT,
            distinct_jobs=DISTINCT_JOBS, frames=FRAMES, seed=SEED,
        ))
        # sequence the chaos deterministically: wait until the journal
        # proves the worker crash was detected and retried, *then*
        # SIGKILL the server — killing on a fixed delay races the two
        # faults against each other and the load's completion
        deadline = time.monotonic() + KILL_AFTER_S
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
        sustained = await run_load(
            socket_path, clients=clients,
            jobs_per_client=SUSTAINED_JOBS_PER_CLIENT,
            distinct_jobs=DISTINCT_JOBS, frames=FRAMES, seed=SEED,
        )
        sustained.pop("fingerprints", None)  # phase 1's is canonical
        # delivery phase: stream stored results from their cache entries
        delivery = await run_delivery(
            socket_path, sorted(report.get("fingerprints", {})),
            clients=min(clients, 8), fetches_per_client=DELIVERY_FETCHES,
        )
        stats_client = ServiceClient(socket_path, connect_timeout=30.0)
        try:
            stats = await stats_client.stats()
        finally:
            await stats_client.close()
        server_peak_rss_mb = _peak_rss_mb(server.pid)
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
    report["server_peak_rss_mb"] = server_peak_rss_mb
    report["sustained"] = sustained
    report["delivery"] = delivery
    report["server_stats"] = {
        k: stats.get(k) for k in ("counters", "queue", "breaker", "store",
                                  "dispatch", "admission_batches", "journal",
                                  "latency_p50", "latency_p99", "pending",
                                  "loaded")
    }
    return report


def _check(report: Dict[str, Any]) -> List[str]:
    """The smoke assertions; returns failure messages (empty = pass)."""
    from repro.service.store import DECODE_MODULES

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
    sustained = report["sustained"]
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
    delivery = report["delivery"]
    if delivery["delivered"] != delivery["fetches"]:
        failures.append(
            f"delivery phase dropped fetches: {delivery['delivered']} "
            f"of {delivery['fetches']}"
        )
    server_stats = report["server_stats"]
    counters = server_stats["counters"]
    if counters.get("retries", 0) < 1:
        failures.append("worker crash was never retried "
                        "(chaos hook did not fire?)")
    if report["server_kills"] != 1:
        failures.append("server was never killed mid-run "
                        "(load finished too early; raise --clients)")
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
    if server_stats["dispatch"]["jobs"] < 1:
        failures.append("no job was ever dispatched to a worker")
    if server_stats["dispatch"]["pipelined"] < 1:
        failures.append("pipelined dispatch never observed: no job was "
                        "handed to a busy worker")
    # a result published just before the SIGKILL whose "done" record was
    # lost is decoded at resume, and that loads the simulator; nothing
    # loads numpy or OpenSSL
    excused = DECODE_MODULES if server_stats["store"]["decoded"] else ()
    loaded = sorted(name for name, is_loaded
                    in server_stats["loaded"].items()
                    if is_loaded and name not in excused)
    if loaded:
        failures.append(f"the server loaded {', '.join(loaded)}")
    return failures


def _smoke(args: argparse.Namespace) -> int:
    import asyncio

    report = asyncio.run(_orchestrate(args.clients))
    failures = _check(report)
    payload = {
        "schema": 5,
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "failures": failures,
        **report,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    print(json.dumps({
        "submitted": report["submitted"],
        "done": report["outcomes"]["done"],
        "lost": report["lost_jobs"],
        "throughput": report.get("throughput"),
        "latency_p50": report["latency_p50"],
        "latency_p99": report["latency_p99"],
        "sustained_throughput": report["sustained"].get("throughput"),
        "delivery_fetches_per_second":
            report["delivery"]["fetches_per_second"],
        "dedup_inflight":
            report["server_stats"]["counters"].get("dedup_inflight"),
        "retries": report["server_stats"]["counters"].get("retries"),
        "journal_syncs":
            report["server_stats"].get("journal", {}).get("syncs"),
        "server_kills": report["server_kills"],
        "restart_s": report["restart_s"],
        "orphans": report["orphans"],
        "server_peak_rss_mb": report["server_peak_rss_mb"],
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
    if args.command == "smoke":
        return _smoke(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
