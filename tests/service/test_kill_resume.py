"""The kill-resume chaos acceptance test.

Runs the same fixed-seed mixed-tenant load twice against subprocess
servers: once uninterrupted, once with the server SIGKILLed mid-campaign
and restarted on the same journal + cache. The restarted run must lose
zero jobs, resolve duplicates with zero extra side effects, and produce
*identical* per-content-key fingerprints to the uninterrupted twin:
every job runs at the tier it asked for, so both runs compute the same
content keys.
"""

import asyncio
import json
import os
import signal
import subprocess
import time

import pytest

from repro.service.__main__ import server_command, session_processes
from repro.service.client import ServiceClient
from repro.service.loadgen import run_load

SEED = 77
LOAD = dict(clients=10, jobs_per_client=2, distinct_jobs=6, frames=2,
            seed=SEED, deadline=180.0)


def _spawn(tmp_path, name, new_session=False):
    workdir = tmp_path / name
    workdir.mkdir()
    socket_path = str(workdir / "svc.sock")
    journal_path = str(workdir / "journal.jsonl")
    cmd = server_command(socket_path, journal_path,
                         str(workdir / "cache"), workers=2)
    env = dict(os.environ, REPRO_JOBS_OVERSUBSCRIBE="1")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=new_session)
    return proc, cmd, env, socket_path, journal_path


def _stop(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def test_sigkill_resume_loses_nothing_and_matches_uninterrupted(tmp_path):
    # -- run A: uninterrupted reference ---------------------------------
    proc, _, _, socket_path, _ = _spawn(tmp_path, "reference")
    try:
        reference = asyncio.run(run_load(socket_path, **LOAD))
    finally:
        _stop(proc)
    assert reference["lost_jobs"] == 0
    assert reference["outcomes"]["failed"] == 0
    assert reference["divergent_fingerprints"] == {}
    assert len(reference["fingerprints"]) == LOAD["distinct_jobs"]
    assert 0 < reference["latency_p50"] <= reference["latency_p99"]

    # -- run B: SIGKILL the server mid-campaign, restart on the same
    # journal + cache ----------------------------------------------------
    proc, cmd, env, socket_path, journal_path = _spawn(tmp_path, "chaos")

    async def chaotic_load():
        nonlocal proc
        load = asyncio.ensure_future(run_load(socket_path, **LOAD))
        # kill only once accepted-but-unfinished work is provably
        # journaled, so the restart has something to resume
        deadline = time.monotonic() + 60.0
        while not load.done() and time.monotonic() < deadline:
            try:
                with open(journal_path, "rb") as fh:
                    if fh.read().count(b'"ev": "submit"') >= 4:
                        break
            except OSError:
                pass
            await asyncio.sleep(0.02)
        assert not load.done(), "load finished before the kill"
        proc.kill()  # SIGKILL: no drain, no warning
        proc.wait()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        return await load

    try:
        chaos = asyncio.run(chaotic_load())
    finally:
        _stop(proc)

    # zero lost jobs: every one of the 20 submissions reached "done"
    assert chaos["lost_jobs"] == 0
    assert chaos["outcomes"]["failed"] == 0
    assert chaos["outcomes"]["done"] == LOAD["clients"] * LOAD["jobs_per_client"]
    # duplicates had zero side effects: one fingerprint per content key
    assert chaos["divergent_fingerprints"] == {}
    # post-resume results are byte-identical to the uninterrupted run
    assert chaos["fingerprints"] == reference["fingerprints"]


def test_restarted_server_resumes_from_journal(tmp_path):
    # direct restart semantics: journal from a killed server is replayed
    # and already-cached work is not recomputed
    proc, cmd, env, socket_path, journal_path = _spawn(tmp_path, "resume")

    async def drive():
        nonlocal proc
        first = await run_load(socket_path, clients=4, jobs_per_client=1,
                               distinct_jobs=4, frames=2, seed=SEED,
                               deadline=120.0)
        assert first["lost_jobs"] == 0
        # "done" records commit without a barrier: kill once all four
        # are durable, so the restart has each key's metadata to replay
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            with open(journal_path, "rb") as fh:
                if fh.read().count(b'"ev": "done"') >= 4:
                    break
            await asyncio.sleep(0.02)
        proc.kill()
        proc.wait()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        # the same load against the restarted server is served entirely
        # from the shared store — nothing recomputed
        second = await run_load(socket_path, clients=4, jobs_per_client=1,
                                distinct_jobs=4, frames=2, seed=SEED,
                                deadline=120.0)
        assert second["lost_jobs"] == 0
        assert second["sources"]["computed"] == 0
        assert second["fingerprints"] == first["fingerprints"]
        # ...and nothing decoded: the journal refilled each repeat's
        # fingerprint and makespan, so the simulator never loaded
        client = ServiceClient(socket_path)
        try:
            stats = await client.stats()
        finally:
            await client.close()
        assert stats["loaded"] == {"numpy": False,
                                   "repro.workflow.runner": False}

    try:
        asyncio.run(drive())
    finally:
        _stop(proc)


def test_sigkilled_server_leaves_no_process_behind(tmp_path):
    """Kill only the server: its pool's workers exit with it, and then
    the forkserver and resource tracker see EOF and exit too."""
    proc, _, _, socket_path, _ = _spawn(tmp_path, "orphans",
                                        new_session=True)

    async def one_job():
        client = ServiceClient(socket_path)
        try:
            return await client.submit({"tenant": "alice", "frames": 2,
                                        "seed": SEED})
        finally:
            await client.close()

    try:
        assert asyncio.run(one_job())["state"] == "done"
        # the server, the forkserver, the resource tracker, both workers
        assert len(session_processes(proc.pid)) >= 4
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10.0
        while session_processes(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session_processes(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
