"""The worker side of the process pool (:mod:`repro.service.pool`).

Nothing here imports the simulator at module level. The ``serve`` CLI
imports this module to launch the pool's forkserver *before* it imports
:mod:`repro.service.server`, so the server process and the forkserver
import their code at the same time, on different cores:

- :func:`worker_context` — the crash-isolated multiprocessing context,
  the one start method of every pool;
- :func:`launch_forkserver` — start the forkserver now, preloading only
  what a worker runs (:data:`PRELOAD`);
- :func:`init_worker` — the pool initializer: a worker takes its
  owner's fault-hook environment and ends once the owner is gone;
- :func:`_execute_job` and :func:`_warm_worker` — the worker entry
  points. A job comes back as its stored form: the encoded result, its
  fingerprint and its makespan. The server files those bytes as they
  are and never loads the simulator to read them; a campaign
  (:func:`repro.experiments.parallel.run_campaign`) runs its tasks
  through :func:`_execute_job` too and caches the same bytes.
"""

from __future__ import annotations

import os
import select
import threading
import time
from multiprocessing import get_context
from typing import Dict, Tuple

__all__ = ["PRELOAD", "worker_context", "launch_forkserver", "init_worker"]

#: what a worker runs, imported once in the forkserver: the task entry
#: points, the result encoding and the simulator behind them (the entry
#: points load the runner only when they run, so it is named here). The
#: server's journal, store and admission code stay out — no worker runs
#: them.
PRELOAD = ["repro.service.worker", "repro.experiments.parallel",
           "repro.experiments.persist", "repro.service.jobs",
           "repro.workflow.runner"]


def worker_context():
    """Crash-isolated multiprocessing context for the worker pool.

    ``forkserver`` keeps spawn's isolation guarantees (workers never
    inherit the server's event loop or threads — the daemon is a clean
    process) but pays the heavy import chain once, in the daemon:
    fresh workers — including every post-crash pool recycle — fork in
    milliseconds instead of re-importing for ~500ms. Falls back to
    ``spawn`` where forkserver is unavailable.
    """
    try:
        ctx = get_context("forkserver")
        ctx.set_forkserver_preload(PRELOAD)
        return ctx
    except ValueError:  # pragma: no cover - non-forkserver platform
        return get_context("spawn")


def launch_forkserver() -> None:
    """Start the pool's forkserver now, without waiting for its preload.

    The forkserver imports :data:`PRELOAD` while the caller goes on with
    its own imports. The first worker fork waits for the preload to
    finish; that wait belongs off the server's event loop.
    """
    if worker_context().get_start_method() == "forkserver":
        from multiprocessing import forkserver

        forkserver.ensure_running()


def init_worker(owner_pid: int, fault_env: Dict[str, str]) -> None:
    """Pool initializer: take the owner's worker-fault hooks, and end
    this worker once the owner (the server or a campaign) is gone.

    A forkserver worker inherits the forkserver's environment, not its
    owner's current one, so the owner's ``REPRO_WORKER_*`` variables
    arrive as ``fault_env`` and replace the forkserver's.

    Nothing else would end the worker: it holds the forkserver's
    "alive" pipe and both ends of its own call queue, so after a SIGKILL
    of the owner no process sees EOF, and the worker, the forkserver and
    the resource tracker run on under init. Once the workers exit, the
    forkserver and the tracker see EOF on their pipes and exit too.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_WORKER_")]:
        del os.environ[name]
    os.environ.update(fault_env)
    threading.Thread(target=_wait_for_exit, args=(owner_pid,),
                     name="repro-exit-with-owner", daemon=True).start()


def _wait_for_exit(pid: int) -> None:
    try:
        fd = os.pidfd_open(pid)
    except ProcessLookupError:
        os._exit(0)
    except (AttributeError, OSError):  # pragma: no cover - no pidfds
        # poll instead; a zombie server still counts as running here
        while True:
            time.sleep(0.5)
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                os._exit(0)
            except PermissionError:
                pass
    # a pidfd turns readable when its process exits, reaped or not
    select.select([fd], [], [])
    os._exit(0)


def _execute_job(task) -> Tuple[bytes, str, float]:
    """Worker entry point for one job: run it, hand back its stored form.

    Returns ``(blob, fingerprint, makespan)``: the canonical CRC-framed
    bytes (:func:`~repro.experiments.persist.encode_cacheable`) the store
    publishes and the client decodes, and the two fields of the job's
    record. Encoding here, where the result already lives, spares the
    server an unpickle, a fingerprint and a re-encode per job.
    """
    from repro.experiments.parallel import _execute_task, result_fingerprint
    from repro.experiments.persist import encode_cacheable

    result = _execute_task(task)
    return (encode_cacheable(result), result_fingerprint(result),
            result.makespan)


def _warm_worker() -> int:
    """Run one tiny throwaway repetition in a fresh pool worker.

    A forked worker has the simulator imported but not set up: the
    first real task would pay its lazy setup (~80ms). Executing a
    1-frame job here moves that cost ahead of the first job. It calls
    the runner directly, not the task entry point, so no worker-fault
    test hook fires on it. Best-effort: real jobs surface real errors.
    """
    from repro.service.jobs import JobSpec
    from repro.workflow.runner import run_workflow

    task = JobSpec(tenant="_prewarm", frames=1, pairs=1).run_task()
    try:
        run_workflow(task.spec, seed=task.seed, fidelity=task.fidelity)
    except Exception:
        pass
    return os.getpid()
