"""In-process integration tests for the experiment server.

Most tests run the server in ``inline`` mode (thread pool): start it on
a unix socket under ``tmp_path``, speak the real wire protocol through
:class:`~repro.service.client.ServiceClient`, and shut down cleanly.
The crash-retry tests use a real ``forkserver`` worker pool with the
injected-fault hook shared with the campaign runner.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro.experiments.parallel as parallel_mod
import repro.service.pool as pool_mod
import repro.service.server as server_mod
from repro.service import (
    ExperimentServer,
    Journal,
    ServerConfig,
    ServiceClient,
    SharedResultStore,
)
from repro.service.__main__ import server_command
from repro.service.jobs import JobSpec
from repro.service.worker import _execute_job


def _config(tmp_path, **overrides):
    overrides.setdefault("inline", True)
    overrides.setdefault("workers", 2)
    return ServerConfig(
        socket_path=str(tmp_path / "svc.sock"),
        journal_path=str(tmp_path / "journal.jsonl"),
        cache_dir=str(tmp_path / "cache"),
        **overrides,
    )


def _job(tenant="alice", system="dyad", seed=0, **extra):
    payload = {"tenant": tenant, "system": system, "frames": 2,
               "seed": seed}
    payload.update(extra)
    return payload


async def _with_server(config, body):
    server = ExperimentServer(config)
    await server.start()
    client = ServiceClient(config.socket_path)
    try:
        return await body(server, client)
    finally:
        await client.close()
        await server.shutdown()


def run(config, body):
    return asyncio.run(_with_server(config, body))


def _patch_execute(monkeypatch, fn):
    """Run ``fn`` in place of the task entry point on both dispatch
    paths: the worker entry points of single jobs and of fused batches
    (:mod:`repro.service.worker`) look it up in
    :mod:`repro.experiments.parallel` when they run."""
    monkeypatch.setattr(parallel_mod, "_execute_task", fn)


# ---------------------------------------------------------------------------
# basic serving
# ---------------------------------------------------------------------------


def test_submit_wait_returns_computed_result(tmp_path):
    async def body(server, client):
        response = await client.submit(_job())
        assert response["ok"] and response["state"] == "done"
        assert response["source"] == "computed"
        assert response["fingerprint"] and response["makespan"] > 0
        assert server.counters["completed"] == 1
        return response

    run(_config(tmp_path), body)


def test_no_wait_then_status_poll(tmp_path):
    async def body(server, client):
        response = await client.submit(_job(), wait=False)
        assert response["ok"]
        job_id = response["job_id"]
        while True:
            status = await client.status(job_id)
            if status["state"] in ("done", "failed"):
                break
            await asyncio.sleep(0.02)
        assert status["state"] == "done"

    run(_config(tmp_path), body)


def test_identical_resubmission_hits_shared_store(tmp_path):
    async def body(server, client):
        first = await client.submit(_job(tenant="alice"))
        second = await client.submit(_job(tenant="bob"))
        assert first["source"] == "computed"
        assert second["source"] == "hit"
        assert second["fingerprint"] == first["fingerprint"]
        # bob's hit on alice's entry is cross-tenant dedup
        assert server.store.cross_tenant_dedup == 1

    run(_config(tmp_path), body)


def test_concurrent_duplicates_coalesce_in_flight(tmp_path):
    async def body(server, client):
        others = [ServiceClient(server.config.socket_path)
                  for _ in range(3)]
        try:
            responses = await asyncio.gather(
                client.submit(_job(seed=5)),
                *(c.submit(_job(seed=5)) for c in others),
            )
        finally:
            for c in others:
                await c.close()
        assert all(r["state"] == "done" for r in responses)
        assert len({r["fingerprint"] for r in responses}) == 1
        sources = sorted(r["source"] for r in responses)
        assert sources.count("computed") == 1
        assert server.counters["dedup_inflight"] >= 1

    run(_config(tmp_path), body)


def test_bad_request_does_not_kill_connection(tmp_path):
    async def body(server, client):
        bad = await client.request({"op": "submit",
                                    "job": {"tenant": "x", "system": "zfs"}})
        assert not bad["ok"] and bad["error"] == "bad_request"
        assert await client.ping()
        unknown = await client.request({"op": "frobnicate"})
        assert unknown["error"] == "unknown_op"

    run(_config(tmp_path), body)


def test_unknown_job_status(tmp_path):
    async def body(server, client):
        response = await client.status("job-999")
        assert not response["ok"] and response["error"] == "unknown_job"

    run(_config(tmp_path), body)


# ---------------------------------------------------------------------------
# admission, shedding, breaker
# ---------------------------------------------------------------------------


@pytest.fixture()
def gated_execute(monkeypatch):
    """Hold job execution at a gate so tests control queue buildup.

    Without this, a warm interpreter finishes the 2-frame jobs faster
    than the next submit arrives and queue depth never builds.
    """
    gate = threading.Event()
    real = parallel_mod._execute_task

    def slow(task):
        gate.wait(30)
        return real(task)

    _patch_execute(monkeypatch, slow)
    yield gate
    gate.set()


def test_budget_rejection_over_the_wire(tmp_path, gated_execute):
    async def body(server, client):
        # distinct seeds so nothing dedups; budget 1 admits exactly one
        first = await client.submit(_job(seed=100), wait=False)
        assert first["ok"]
        second = await client.submit(_job(seed=101), wait=False)
        assert not second["ok"]
        assert second["error"] == "budget_exceeded"
        assert second["retry_after"] > 0
        gated_execute.set()  # let the first job finish so drain works

    run(_config(tmp_path, tenant_budget=1, workers=1), body)


async def _gathered_submits(server, jobs, gate, total):
    """Submit each job on its own connection (a waiting submit blocks
    its connection), release the gate once all are admitted, gather."""
    clients = [ServiceClient(server.config.socket_path) for _ in jobs]
    try:
        waits = [asyncio.ensure_future(c.submit(job))
                 for c, job in zip(clients, jobs)]
        while server.queue.depth + server._running < total:
            await asyncio.sleep(0.01)
        gate.set()
        return await asyncio.gather(*waits)
    finally:
        for c in clients:
            await c.close()


def test_queue_pressure_sheds_to_cheaper_tier(tmp_path, gated_execute):
    async def body(server, client):
        responses = await _gathered_submits(
            server, [_job(seed=200 + i) for i in range(6)],
            gated_execute, 6,
        )
        assert all(r["state"] == "done" for r in responses)
        shed = [r for r in responses if r["shed_to"]]
        assert shed, "no job was shed despite hybrid_at=1"
        assert all(r["fidelity"] in ("hybrid", "fluid") for r in shed)
        assert server.counters["shed"] == len(shed)

    run(_config(tmp_path, shed_hybrid_depth=1, shed_fluid_depth=4,
                workers=1), body)


def test_non_degradable_jobs_run_exact_under_pressure(tmp_path,
                                                      gated_execute):
    async def body(server, client):
        responses = await _gathered_submits(
            server,
            [_job(seed=300 + i, degradable=False) for i in range(4)],
            gated_execute, 4,
        )
        assert all(r["state"] == "done" for r in responses)
        assert all(r["shed_to"] is None for r in responses)
        assert all(r["fidelity"] == "exact" for r in responses)

    run(_config(tmp_path, shed_hybrid_depth=1, shed_fluid_depth=2,
                workers=1), body)


def test_deterministic_failure_opens_breaker(tmp_path, monkeypatch):
    from repro.errors import ReproError

    def boom(task):
        raise ReproError("injected deterministic failure")

    _patch_execute(monkeypatch, boom)

    async def body(server, client):
        for i in range(2):
            response = await client.submit(_job(seed=400 + i))
            assert response["state"] == "failed"
            assert "injected" in response["error"]
        # two consecutive dyad failures tripped the breaker
        rejected = await client.submit(_job(seed=402))
        assert not rejected["ok"]
        assert rejected["error"] == "circuit_open"
        assert rejected["retry_after"] > 0
        # other kinds are unaffected (their breaker is independent);
        # xfs fails too but is admitted
        other = await client.submit(_job(system="xfs", seed=403))
        assert other["state"] == "failed"
        assert server.counters["rejected_circuit"] == 1

    run(_config(tmp_path, breaker_threshold=2, breaker_cooldown=60.0), body)


def test_drain_rejects_new_work(tmp_path):
    async def body(server, client):
        await client.submit(_job())
        drained = await client.drain()
        assert drained["ok"]
        response = await client.submit(_job(seed=1))
        assert not response["ok"] and response["error"] == "draining"

    run(_config(tmp_path), body)


# ---------------------------------------------------------------------------
# journal resume (in-process)
# ---------------------------------------------------------------------------


def test_resume_reexecutes_unfinished_journaled_job(tmp_path):
    config = _config(tmp_path)
    spec = JobSpec(tenant="alice", frames=2, seed=9)
    journal = Journal(config.journal_path)
    journal.append({"ev": "submit", "id": "job-0", "job": spec.to_wire(),
                    "key": None, "t": 0.0})
    journal.append({"ev": "start", "id": "job-0", "fidelity": "exact"})
    journal.close()

    async def body(server, client):
        assert server.counters["resumed"] == 1
        await server._idle.wait()
        record = server.records["job-0"]
        assert record.state == "done"
        assert record.source == "computed"
        # the next id does not collide with the replayed one
        response = await client.submit(_job(seed=10), wait=False)
        assert response["job_id"] == "job-1"

    run(config, body)


def test_resume_completes_from_store_without_recompute(tmp_path):
    config = _config(tmp_path)
    spec = JobSpec(tenant="alice", frames=2, seed=9)
    # the result landed in the store but the "done" record never made
    # it to the journal (killed in between): resume must serve the
    # cached result, not recompute
    store = SharedResultStore(config.cache_dir)
    key = store.key_for(spec)
    store.publish(key, "alice", *_execute_job(spec.run_task()))
    journal = Journal(config.journal_path)
    journal.append({"ev": "submit", "id": "job-0", "job": spec.to_wire(),
                    "key": key, "t": 0.0})
    journal.close()

    async def body(server, client):
        record = server.records["job-0"]
        assert record.state == "done"
        assert record.source == "hit"
        assert server.counters["resumed"] == 1

    run(config, body)


def test_resume_folds_counters_and_compacts(tmp_path):
    config = _config(tmp_path)
    spec = JobSpec(tenant="alice", frames=2, seed=9)
    journal = Journal(config.journal_path)
    journal.append({"ev": "submit", "id": "job-0", "job": spec.to_wire(),
                    "key": "k", "t": 0.0})
    journal.append({"ev": "retry", "id": "job-0", "attempts": 2})
    journal.append({"ev": "done", "id": "job-0", "key": "k",
                    "fingerprint": "f", "makespan": 1.0, "latency": 0.5,
                    "source": "computed"})
    journal.close()

    async def body(server, client):
        assert server.counters["completed"] == 1
        assert server.counters["retries"] == 2
        stats = await client.stats()
        assert stats["counters"]["retries"] == 2

    run(config, body)
    # boot-time compaction folded the journal but kept the attempts
    with open(config.journal_path) as journal_file:
        events = [json.loads(line) for line in journal_file if line.strip()]
    assert {"ev": "retry", "id": "job-0", "attempts": 2} in events


# ---------------------------------------------------------------------------
# worker-crash retry (real forkserver pool)
# ---------------------------------------------------------------------------


@pytest.fixture()
def crash_seed_555(tmp_path, monkeypatch):
    """Arm the one-shot worker crash on seed 555; yields the fault dir."""
    fault_dir = tmp_path / "worker-faults"
    fault_dir.mkdir()
    monkeypatch.setenv("REPRO_WORKER_FAULT_DIR", str(fault_dir))
    monkeypatch.setenv("REPRO_WORKER_CRASH_SEEDS", "555")
    monkeypatch.setenv("REPRO_JOBS_OVERSUBSCRIBE", "1")
    yield fault_dir


def test_worker_crash_is_detected_and_retried(tmp_path, crash_seed_555):
    fault_dir = crash_seed_555

    async def body(server, client):
        response = await client.submit(_job(seed=555))
        assert response["state"] == "done"
        assert response["attempts"] == 1  # one crash, one successful rerun
        assert server.counters["retries"] == 1
        assert os.path.exists(fault_dir / "crash-555")

    run(_config(tmp_path, inline=False, workers=1, max_retries=2), body)


def test_worker_crash_charges_only_the_running_job(tmp_path,
                                                    crash_seed_555):
    """Seed 556 waits in the pool behind 555 when 555 kills the worker:
    it never ran, so it is re-dispatched without spending an attempt."""

    async def body(server, client):
        other = ServiceClient(server.config.socket_path)
        try:
            first = asyncio.ensure_future(
                client.submit(_job(seed=555, degradable=False)))
            while server.dispatch["jobs"] < 1:  # 555 is in the pool
                await asyncio.sleep(0.01)
            queued = await other.submit(_job(seed=556, degradable=False))
            crashed = await first
        finally:
            await other.close()
        assert crashed["state"] == "done" and crashed["attempts"] == 1
        assert queued["state"] == "done" and queued["attempts"] == 0
        assert server.counters["retries"] == 1

    run(_config(tmp_path, inline=False, workers=1, max_retries=2), body)


#: ``serve`` with workers that die before they take a task (their warm-up
#: exits), and a hard cap on pool starts so an unbounded restart loop
#: ends the server instead of forking on
_DYING_SERVE = """\
import functools, os, sys
from repro.service import pool
pool._warm_worker = functools.partial(os._exit, 3)
start = pool.WorkerPool._start_pool
starts = []
def capped(self):
    starts.append(1)
    if len(starts) > 20:
        os._exit(9)
    return start(self)
pool.WorkerPool._start_pool = capped
from repro.service.__main__ import main
sys.exit(main(sys.argv[1:]))
"""


def test_a_job_on_workers_that_die_at_start_fails(tmp_path):
    """No worker ever takes the job: it spends its retry budget on start
    failures, ends ``failed`` and feeds the breaker, instead of waiting
    while the pool is re-forked forever."""
    socket_path = str(tmp_path / "s.sock")
    serve = server_command(socket_path, str(tmp_path / "j.jsonl"),
                           str(tmp_path / "cache"), workers=1)
    assert serve[1:4] == ["-m", "repro.service", "serve"]
    env = dict(os.environ, REPRO_JOBS_OVERSUBSCRIBE="1")
    proc = subprocess.Popen(
        [sys.executable, "-c", _DYING_SERVE, *serve[3:], "--max-retries",
         "1"], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)

    async def submit():
        client = ServiceClient(socket_path)
        try:
            response = await client.submit(_job(seed=321))
            return response, await client.stats()
        finally:
            await client.close()

    try:
        response, stats = asyncio.run(asyncio.wait_for(submit(), 60))
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert response["state"] == "failed"
    assert "retry budget exhausted" in response["error"]
    assert response["attempts"] == 2
    assert stats["counters"]["failed"] == 1
    assert [entry["failures"] for entry in stats["breaker"].values()] == [1]


# ---------------------------------------------------------------------------
# off-loop pool launch (real forkserver pool)
# ---------------------------------------------------------------------------


def test_server_answers_while_the_pool_launches(tmp_path, monkeypatch):
    """Hold the pool's launch: ping, status and a store hit answer
    anyway, and the job queued meanwhile runs once it is released,
    uncharged — its timeout starts when a worker takes it."""
    config = _config(tmp_path, inline=False, workers=1, task_timeout=5.0,
                     max_retries=0)
    stored = JobSpec.from_wire(_job(seed=740))
    store = SharedResultStore(config.cache_dir)
    store.publish(store.key_for(stored), "alice",
                  *_execute_job(stored.run_task()))
    held = threading.Event()
    start_pool = pool_mod.WorkerPool._start_pool

    def held_start_pool(self):
        held.wait(30)
        return start_pool(self)

    monkeypatch.setattr(pool_mod.WorkerPool, "_start_pool", held_start_pool)

    async def body(server, client):
        try:
            assert await client.ping()
            queued = await client.submit(_job(seed=741, degradable=False),
                                         wait=False)
            status = await client.status(queued["job_id"])
            assert status["state"] in ("queued", "running")
            hit = await client.submit(_job(seed=740))
            assert hit["state"] == "done" and hit["source"] == "hit"
            assert not server.pool._launch.done()
        finally:
            held.set()
        deadline = time.monotonic() + 30.0
        while status["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline, "queued job never ran"
            await asyncio.sleep(0.02)
            status = await client.status(queued["job_id"])
        assert status["state"] == "done", status.get("error")
        assert status["attempts"] == 0
        assert status["source"] == "computed"
        # it was handed off behind the warm-up task, in the same line
        assert server.pool.pipelined == 1

    run(config, body)


# ---------------------------------------------------------------------------
# pipelined dispatch
# ---------------------------------------------------------------------------


async def _submit_each(server, jobs):
    """Submit each job on its own connection and wait for all of them."""
    clients = [ServiceClient(server.config.socket_path) for _ in jobs]
    try:
        return await asyncio.gather(
            *(c.submit(job) for c, job in zip(clients, jobs)))
    finally:
        for c in clients:
            await c.close()


def test_next_job_is_handed_off_while_the_worker_is_busy(tmp_path,
                                                          gated_execute):
    async def body(server, client):
        jobs = [_job(seed=700 + i, degradable=False) for i in range(2)]
        waits = asyncio.ensure_future(_submit_each(server, jobs))
        deadline = time.monotonic() + 10.0
        while server.pool.pipelined < 1:
            assert time.monotonic() < deadline, "second job never handed off"
            await asyncio.sleep(0.01)
        # the first job is still held at the gate: nothing has finished
        assert server.counters["completed"] == 0
        gated_execute.set()
        responses = await waits
        assert all(r["state"] == "done" for r in responses)
        assert server.pool.pipelined == 1
        assert server.dispatch["jobs"] == 2

    run(_config(tmp_path, workers=1), body)


def test_timeout_counts_from_when_the_job_starts(tmp_path, monkeypatch):
    """Two 0.7 s jobs on one worker with a 1 s budget: the second waits
    0.7 s in the pool, which must not count against its own budget."""
    real = parallel_mod._execute_task

    def slow(task):
        time.sleep(0.7)
        return real(task)

    _patch_execute(monkeypatch, slow)

    async def body(server, client):
        responses = await _submit_each(
            server, [_job(seed=710 + i, degradable=False) for i in range(2)])
        for response in responses:
            assert response["state"] == "done", response.get("error")
            assert response["attempts"] == 0

    run(_config(tmp_path, workers=1, task_timeout=1.0, max_retries=0), body)


def test_timeout_charges_only_the_running_job(tmp_path, monkeypatch):
    """Seed 730 hangs once past its budget while 731 waits behind it:
    the pool is replaced, 730 is charged and retried, and 731 moves to
    the new pool without spending an attempt."""
    real = parallel_mod._execute_task
    hung = set()

    def hang_once(task):
        if task.seed == 730 and not hung:
            hung.add(task.seed)
            time.sleep(1.5)
        return real(task)

    _patch_execute(monkeypatch, hang_once)

    async def body(server, client):
        hanging, queued = await asyncio.wait_for(_submit_each(
            server, [_job(seed=730 + i, degradable=False) for i in range(2)]),
            30)
        assert hanging["state"] == "done" and hanging["attempts"] == 1
        assert queued["state"] == "done" and queued["attempts"] == 0
        assert server.counters["retries"] == 1

    run(_config(tmp_path, workers=1, task_timeout=0.5, max_retries=1), body)


def test_waiter_events_are_released_when_jobs_finish(tmp_path):
    async def body(server, client):
        # computed jobs, an in-flight duplicate and a store hit, all waited
        await _submit_each(
            server, [_job(seed=720 + i) for i in range(4)] + [_job(seed=720)])
        await client.submit(_job(seed=721, tenant="bob"))
        assert server.counters["completed"] == 6
        assert server._events == {}

    run(_config(tmp_path), body)


# ---------------------------------------------------------------------------
# hot-path overhaul: result delivery, fusion, batched admission
# ---------------------------------------------------------------------------


def test_result_op_streams_stored_bytes(tmp_path):
    async def body(server, client):
        submit = await client.submit(_job(seed=11))
        assert submit["state"] == "done"
        header, result = await client.fetch_result(key=submit["key"])
        assert header["ok"] and header["key"] == submit["key"]
        assert header["length"] > 0
        # the streamed frame decodes to the same result the store holds
        from repro.experiments.parallel import result_fingerprint
        assert result_fingerprint(result) == submit["fingerprint"]
        # by job_id too
        header2, result2 = await client.fetch_result(
            job_id=submit["job_id"]
        )
        assert header2["key"] == submit["key"]
        # the connection survives the mixed JSON+binary framing
        assert await client.ping()

    run(_config(tmp_path), body)


def test_result_op_unknown_key_and_job(tmp_path):
    async def body(server, client):
        header, result = await client.fetch_result(key="0" * 64)
        assert header == {"ok": False, "error": "unknown_result"}
        assert result is None
        header, _ = await client.fetch_result(job_id="nope")
        assert header["error"] == "unknown_job"
        assert await client.ping()

    run(_config(tmp_path), body)


def test_result_op_refuses_a_key_that_escapes_the_store(tmp_path):
    """The entry read unlinks a file that fails its CRC check, so a key
    naming a path outside the cache directory must never reach it."""
    victim = tmp_path / "victim.pkl"
    victim.write_bytes(b"not a cache entry")

    async def body(server, client):
        header, result = await client.fetch_result(
            key=str(victim)[:-len(".pkl")])
        assert header["error"] == "bad_request"
        assert result is None
        assert await client.ping()

    run(_config(tmp_path), body)
    assert victim.read_bytes() == b"not a cache entry"


def test_small_jobs_fuse_into_multi_job_dispatches(tmp_path):
    # stall the runners until every submission is queued, then release:
    # the claim loop must fuse the backlog into multi-job worker tasks
    async def body(server, client):
        gate = asyncio.Event()
        original = server_mod.ExperimentServer._claim_batch

        def gated(self):
            if not gate.is_set():
                return []  # runners find nothing until the backlog built
            return original(self)

        server_mod.ExperimentServer._claim_batch = gated
        try:
            clients = [ServiceClient(server.config.socket_path)
                       for _ in range(6)]
            try:
                submits = [
                    asyncio.ensure_future(
                        c.submit(_job(seed=20 + i, tenant=f"t{i}"))
                    )
                    for i, c in enumerate(clients)
                ]
                await asyncio.sleep(0.2)
                gate.set()
                server._work.set()  # wake the parked runners
                responses = await asyncio.gather(*submits)
            finally:
                for c in clients:
                    await c.close()
        finally:
            server_mod.ExperimentServer._claim_batch = original
        assert all(r["state"] == "done" for r in responses)
        assert server.dispatch["fused_batches"] >= 1
        assert server.dispatch["max_batch"] > 1
        # fusion respects the configured ceiling
        assert server.dispatch["max_batch"] <= server.config.fuse_small_jobs

    run(_config(tmp_path, fuse_small_jobs=4), body)


def test_batched_admission_coalesces_same_tick_duplicates(tmp_path):
    # identical submissions staged in one event-loop tick must collapse
    # onto one primary before touching the fair queue
    async def body(server, client):
        clients = [ServiceClient(server.config.socket_path)
                   for _ in range(5)]
        try:
            responses = await asyncio.gather(
                *(c.submit(_job(seed=30)) for c in clients)
            )
        finally:
            for c in clients:
                await c.close()
        assert all(r["state"] == "done" for r in responses)
        assert len({r["fingerprint"] for r in responses}) == 1
        computed = sum(1 for r in responses if r["source"] == "computed")
        assert computed == 1
        assert server.admission["batches"] >= 1
        assert server.admission["jobs"] >= 1

    run(_config(tmp_path), body)


def test_group_commit_amortizes_journal_syncs_over_the_wire(tmp_path):
    async def body(server, client):
        clients = [ServiceClient(server.config.socket_path)
                   for _ in range(8)]
        try:
            await asyncio.gather(
                *(c.submit(_job(seed=40 + i)) for i, c in enumerate(clients))
            )
        finally:
            for c in clients:
                await c.close()
        stats = await client.stats()
        journal = stats["journal"]
        assert journal["records"] > journal["syncs"]
        assert journal["avg_events_per_sync"] > 1.0
        return journal

    run(_config(tmp_path, commit_window=0.005), body)


def test_a_cold_job_counts_one_lru_miss(tmp_path):
    """A cold job looks its key up at submit and again at dispatch (a
    twin may have published meanwhile); the store counts one miss per
    distinct cold job, and a repeat counts a hit."""

    async def body(server, client):
        for seed in range(70, 75):
            assert (await client.submit(_job(seed=seed)))["state"] == "done"
        repeat = await client.submit(_job(seed=70))
        assert repeat["source"] == "hit"
        store = server.store
        assert store.lru_misses == 5
        assert store.misses["alice"] == 5
        assert store.lru_hits >= 1 and store.hits["alice"] == 1

    run(_config(tmp_path), body)
