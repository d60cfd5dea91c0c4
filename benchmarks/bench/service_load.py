"""The ``service_mixed`` workload: a job server under a closed-loop load.

The server is a ``python -m repro.service serve --workers 1`` subprocess
in its own session, with its socket, journal, result store and temporary
files under the checkout's ``.bench_run``. The load comes from this
process over two connections; each connection sends its next job only
after the previous one is answered and its result fetched. Only the
:meth:`ServiceClient.submit` and :meth:`ServiceClient.fetch_result` calls
are timed.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.parallel import result_fingerprint, run_campaign
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec

from benchmarks.bench import RUN_DIR, SRC, common, golden, layers, workloads

#: server boots per run; set-up time is their median
SETUP_SAMPLES = 5
#: rounds of a traced run: fixed, so the server's counters repeat exactly
TRACE_ROUNDS = 12
#: the server's memory grows with the jobs it has served, so its peak is
#: read after this many rounds, not after however many fit; a timed run
#: goes on past its budget until it has done them
RSS_ROUNDS = 10
#: a job the first round must not pay for: the worker's lazy set-up
WARMUP_JOB = {"tenant": "warmup", "system": "xfs", "pairs": 1, "frames": 2,
              "seed": 0, "fidelity": "exact", "degradable": False}


def _short(path: Path) -> str:
    """``path``, relative to the working directory when its absolute form
    would not fit in a unix socket address."""
    text = str(path)
    return text if len(text) < 60 else os.path.relpath(text)


def _running_in_group(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is still running. Zombies have
    ended; their reaping belongs to whoever inherited them."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        # fields after the parenthesised command: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


class Server:
    """One job-server subprocess and the directory it owns."""

    def __init__(self, name: str, profile: bool = False) -> None:
        self.dir = RUN_DIR / f"{name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self.socket = _short(self.dir / "s.sock")
        self.profile = self.dir / "server.prof" if profile else None
        self.proc: Optional[subprocess.Popen] = None
        self.started = 0.0
        self.lifetime_s = 0.0

    def start(self) -> None:
        argv = [sys.executable]
        if self.profile is not None:
            argv += ["-m", "cProfile", "-o", str(self.profile)]
        argv += ["-m", "repro.service", "serve", "--socket", self.socket,
                 "--journal", str(self.dir / "journal.jsonl"),
                 "--cache-dir", str(self.dir / "store"), "--workers", "1"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        # the worker pool's forkserver socket lives under TMPDIR
        env["TMPDIR"] = _short(self.dir / "tmp")
        self.started = time.perf_counter()
        with open(self.dir / "server.log", "w") as log:
            self.proc = subprocess.Popen(
                argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    async def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn to the first answered ``ping``."""
        client = ServiceClient(self.socket, connect_timeout=timeout,
                               connect_backoff=0.002, backoff_cap=0.005,
                               backoff_jitter=0.0)
        try:
            if not await client.ping():
                raise RuntimeError("server answered ping with an error")
        finally:
            await client.close()
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        """High-water resident set of the server process (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, drain: bool = True) -> None:
        """Drain (or kill) the server, then make sure its whole session is
        gone. A boot that only measured set-up has nothing to drain."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        if self.proc.poll() is None:
            if drain:
                self.proc.send_signal(signal.SIGTERM)
            else:
                os.killpg(pgid, signal.SIGKILL)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(pgid, signal.SIGKILL)
                self.proc.wait()
        self.lifetime_s = time.perf_counter() - self.started
        # the pool's forkserver and workers exit once the server is gone
        deadline = time.monotonic() + 30
        while _running_in_group(pgid):
            if time.monotonic() > deadline:
                os.killpg(pgid, signal.SIGKILL)
            time.sleep(0.01)
        self.proc = None

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass  # another run still uses it


class Load:
    """Closed-loop rounds over two connections, with every answer checked."""

    def __init__(self, seed: int, frames: int, pinned: Optional[dict]):
        self.seed = seed
        self.frames = frames
        self.pinned = pinned
        self.histories: List[List[dict]] = [
            [] for _ in range(workloads.CONNECTIONS)]
        #: ``(frames, wall seconds, job seconds, speed factor)`` per round,
        #: the shape :func:`common.pass_metrics` takes
        self.passes: List[tuple] = []
        self.cold_ms: List[float] = []
        self.hit_ms: List[float] = []
        self.fingerprints: Dict[str, str] = {}
        self.first_cold: Optional[dict] = None
        self.attempted = 0
        self.failures: List[str] = []
        #: the server's memory high-water mark after ``RSS_ROUNDS`` rounds
        self.peak_rss_mb = 0.0

    @property
    def rounds(self) -> int:
        return len(self.passes)

    @property
    def busy_s(self) -> float:
        return sum(p[1] for p in self.passes)

    async def _connection(self, client: ServiceClient, jobs: List[dict],
                          round_no: int, latencies: List[float]) -> None:
        for job in jobs:
            cold = job["cold"]
            wire = {k: v for k, v in job.items() if k != "cold"}
            self.attempted += 1
            start = time.perf_counter()
            try:
                response = await client.submit(wire, wait=True)
                result = None
                if response.get("state") == "done":
                    # what a user does next: fetch the stored result
                    _header, result = await client.fetch_result(
                        job_id=response["job_id"])
            except (OSError, asyncio.IncompleteReadError) as exc:
                self.failures.append(f"{workloads.job_key(job)}: {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            self.check(job, response, result, round_no)
            latencies.append(elapsed)
            (self.cold_ms if cold else self.hit_ms).append(1000.0 * elapsed)
            if cold and self.first_cold is None:
                self.first_cold = wire

    def check(self, job: dict, response: Dict[str, Any], result: Any,
              round_no: int) -> None:
        key = workloads.job_key(job)
        if not response.get("ok") or response.get("state") != "done":
            self.failures.append(
                f"{key}: ended {response.get('state')!r} "
                f"({response.get('error') or response.get('detail')})")
            return
        if result is None or result.makespan != response.get("makespan"):
            self.failures.append(f"{key}: the delivered result does not "
                                 "match the job's record")
        fingerprint = response.get("fingerprint") or ""
        known = self.fingerprints.setdefault(key, fingerprint)
        if known != fingerprint:
            self.failures.append(f"{key}: two fingerprints for one key")
        if (job["cold"] and self.pinned is not None
                and round_no < golden.GOLDEN_ROUNDS):
            want = self.pinned.get(key)
            got = fingerprint[:golden.FINGERPRINT_CHARS]
            if want != got:
                self.failures.append(
                    f"{key}: golden mismatch: fingerprint {got} != {want}")

    async def run(self, server: Server, seconds: Optional[float] = None,
                  rounds: Optional[int] = None) -> None:
        """Run rounds until ``seconds`` are spent (and at least
        ``RSS_ROUNDS`` are done) or until ``rounds`` are done."""
        clients = [ServiceClient(server.socket, seed=c)
                   for c in range(workloads.CONNECTIONS)]
        try:
            warm = await clients[0].submit(WARMUP_JOB, wait=True)
            if warm.get("state") != "done":
                self.failures.append(f"warm-up job ended {warm!r}")
            began = time.perf_counter()

            def more() -> bool:
                if rounds is not None:
                    return self.rounds < rounds
                if self.rounds < RSS_ROUNDS:
                    return True
                # start a round only if a typical round still fits
                typical = statistics.median(p[1] for p in self.passes)
                return time.perf_counter() - began + typical <= seconds

            calibrations = [common.calibration_s()]
            while more():
                jobs = [workloads.service_round(self.seed, self.rounds, c,
                                                self.histories[c],
                                                self.frames)
                        for c in range(workloads.CONNECTIONS)]
                latencies: List[float] = []
                start = time.perf_counter()
                await asyncio.gather(*(
                    self._connection(client, conn_jobs, self.rounds,
                                     latencies)
                    for client, conn_jobs in zip(clients, jobs)))
                wall = time.perf_counter() - start
                calibrations.append(common.calibration_s())
                frames = sum(j["frames"] * j["pairs"]
                             for conn_jobs in jobs for j in conn_jobs)
                self.passes.append((frames, wall, latencies,
                                    common.speed_factor(calibrations[-2:])))
                if self.rounds == RSS_ROUNDS:
                    self.peak_rss_mb = server.peak_rss_mb()
        finally:
            for client in clients:
                await client.close()

    def check_recompute(self) -> None:
        """The first cold job, recomputed here, must match the server."""
        if self.first_cold is None:
            return
        self.attempted += 1
        task = JobSpec.from_wire(self.first_cold).run_task()
        local = result_fingerprint(run_campaign([task], jobs=1,
                                                use_cache=False)[0])
        served = self.fingerprints.get(workloads.job_key(self.first_cold))
        if served != local:
            self.failures.append(
                f"{workloads.job_key(self.first_cold)}: the server's "
                "fingerprint differs from a local run")


def _server_counters(stats: Dict[str, Any], load: Load) -> Dict[str, float]:
    store, journal = stats["store"], stats["journal"]
    lookups = store["lru_hits"] + store["lru_misses"]
    return {
        "service.computed": stats["dispatch"]["jobs"],
        "service.hits": sum(store["hits"].values()),
        "service.dedup": stats["counters"]["dedup_inflight"],
        "service.journal_syncs": journal["syncs"],
        "service.journal_records": journal["records"],
        "service.events_per_sync":
            journal["records"] / journal["syncs"] if journal["syncs"] else 0,
        "service.lru_hits": store["lru_hits"],
        "service.lru_misses": store["lru_misses"],
        "service.lru_hit_ratio":
            store["lru_hits"] / lookups if lookups else 0.0,
        "service.fused_jobs": stats["dispatch"]["fused_jobs"],
        "service.admission_batches": stats["admission_batches"]["batches"],
        "service.server_ms_p50": 1000.0 * (stats["latency_p50"] or 0.0),
        "service.server_ms_p99": 1000.0 * (stats["latency_p99"] or 0.0),
        "service.cold_job_ms_p50": statistics.median(load.cold_ms),
        "service.hit_job_ms_p50": statistics.median(load.hit_ms),
    }


async def _serve_load(server: Server, load: Load,
                      seconds: Optional[float] = None,
                      rounds: Optional[int] = None,
                      setup: Optional[List[float]] = None) -> dict:
    """Boot ``server`` (its boot is a set-up sample), run the load, read
    the server's counters, and stop it."""
    try:
        server.start()
        ready_s = await server.wait_ready()
        if setup is not None:
            setup.append(ready_s)
        await load.run(server, seconds=seconds, rounds=rounds)
        client = ServiceClient(server.socket)
        try:
            return await client.stats()
        finally:
            await client.close()
    finally:
        server.stop()


def measure(seed: int, seconds: float, trace: bool,
            frames: Optional[int] = None,
            golden_path: Optional[Path] = None) -> Dict[str, Any]:
    """One run of ``service_mixed``; the same shape as a simulation
    child's ``RESULT``. ``frames`` shrinks every job (self-tests)."""
    # shrunk jobs have no pinned outputs
    pinned = None if frames is not None else golden.for_run(
        golden.load(golden_path or golden.GOLDEN_PATH), seed,
        common.SERVICE_WORKLOAD)
    load = Load(seed, frames or workloads.SERVICE_FRAMES, pinned)
    servers: List[Server] = []
    try:
        metrics = (_traced(load, servers) if trace
                   else _timed(load, seconds, servers))
    finally:
        for server in servers:
            server.stop()
            server.remove()
    return {"attempted": load.attempted, "failures": load.failures,
            "metrics": metrics}


def _timed(load: Load, seconds: float,
           servers: List[Server]) -> Dict[str, Any]:
    """Set-up samples from killed boots, then the timed rounds."""
    setup: List[float] = []
    calibrations: List[float] = []
    for i in range(SETUP_SAMPLES - 1):
        server = Server(f"boot{i}")
        servers.append(server)
        calibrations.append(common.calibration_s())
        server.start()
        setup.append(asyncio.run(server.wait_ready()))
        server.stop(drain=False)
    server = Server("load")
    servers.append(server)
    calibrations.append(common.calibration_s())
    asyncio.run(_serve_load(server, load, seconds=seconds, setup=setup))
    if load.rounds < RSS_ROUNDS:
        load.failures.append(f"the run ended after {load.rounds} rounds; "
                             f"peak memory is read after {RSS_ROUNDS}")
    load.check_recompute()
    metrics: Dict[str, Any] = common.pass_metrics(load.passes)
    metrics["setup_s"] = statistics.median(setup) * common.speed_factor(
        calibrations)
    metrics["peak_rss_mb"] = load.peak_rss_mb
    host = common.pass_metrics([p[:3] + (1.0,) for p in load.passes])
    host["setup_s"] = statistics.median(setup)
    metrics["samples"] = {
        "setup": len(setup), "rounds": load.rounds,
        "jobs": sum(len(p[2]) for p in load.passes),
        "cold_jobs": len(load.cold_ms),
        "speed_factor": statistics.median([p[3] for p in load.passes]),
        "host": host,
    }
    return metrics


def _traced(load: Load, servers: List[Server]) -> Dict[str, Any]:
    """Untraced rounds, then the same rounds on a profiled server; the
    ratio of their walls is the tracing overhead."""
    plain = Server("plain")
    servers.append(plain)
    stats = asyncio.run(_serve_load(plain, load, rounds=TRACE_ROUNDS))
    metrics: Dict[str, Any] = _server_counters(stats, load)
    again = Load(load.seed, load.frames, load.pinned)
    profiled = Server("traced", profile=True)
    servers.append(profiled)
    asyncio.run(_serve_load(profiled, again, rounds=TRACE_ROUNDS))
    load.attempted += again.attempted
    load.failures += again.failures
    metrics.update(layers.ledger_metrics(
        layers.load_stats(str(profiled.profile)),
        layers.LayerMap(SRC, root="service"), profiled.lifetime_s))
    metrics["trace_overhead"] = again.busy_s / load.busy_s
    metrics["samples"] = {"rounds": load.rounds,
                          "jobs": sum(len(p[2]) for p in load.passes)}
    return metrics
