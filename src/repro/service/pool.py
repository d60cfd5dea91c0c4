"""The worker-pool supervisor of the job server and the campaign runner.

:class:`WorkerPool` hands tasks to a crash-isolated pool
(:func:`~repro.service.worker.worker_context`) in order, on one hand-off
line, and owns what both callers need: when a task starts (its timeout
counts from then), which tasks a crash charges (only those running;
waiting ones move to a fresh pool uncharged), pool recycling, and when
to stop recycling: workers that die before any task starts end the
waiting tasks as start failures after :data:`START_FAILURES` pools. The
server calls it from its event loop,
:func:`repro.experiments.parallel.run_campaign` through
:func:`asyncio.run`; retry budgets stay with the callers.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.service.worker import _warm_worker, init_worker, worker_context

__all__ = ["START_FAILURES", "WorkerPool"]

#: pools replaced in a row with no task started in between, after which
#: the waiting tasks fail instead of moving on to yet another pool: a
#: worker that dies at start (its initializer, warm-up or preload
#: fails) would otherwise be re-forked forever
START_FAILURES = 3


@dataclass(eq=False)
class _Handoff:
    """One task handed to the worker pool, in hand-off order."""

    #: the task's outcome, as the executor reports it
    future: asyncio.Future
    #: True once a worker has taken the task; False when the pool was
    #: replaced before any worker did (the task never ran)
    started: asyncio.Future
    generation: int


class WorkerPool:
    """``workers`` processes (threads when ``inline``) behind one
    hand-off line, used from one event loop."""

    def __init__(self, workers: int, inline: bool = False) -> None:
        self.workers = workers
        self.inline = inline
        #: jobs handed to the pool while every worker was busy
        self.pipelined = 0
        self._pool = None
        #: the off-loop launch of the first pool; tasks wait for it
        self._launch: Optional[asyncio.Task] = None
        self._generation = 0
        #: pools replaced since a task last started (see START_FAILURES)
        self._fruitless = 0
        #: the current pool's unfinished tasks in hand-off order; the
        #: first ``workers`` of them are running, the rest wait
        self._handoffs: List[_Handoff] = []

    def launch(self) -> None:
        """Start the workers now, off the event loop (see _launch_pool)."""
        self._launch = asyncio.ensure_future(self._launch_pool())

    async def run(self, timeout: Optional[float], fn,
                  *args) -> Tuple[Any, float]:
        """Run ``fn(*args)`` on the pool as if it had a worker to itself.

        The task may wait in the pool behind a running one; ``timeout``
        counts from when a worker takes it, and if the pool is replaced
        before that (a task ahead crashed or hung) it is handed to the
        new pool without costing an attempt. A hand-off that waits
        counts as :attr:`pipelined`. Returns the result and the seconds
        it ran; raises ``asyncio.TimeoutError`` (the pool is recycled),
        ``BrokenProcessPool`` (the worker died while running it, or
        workers keep dying before any task starts) or the task's own
        error.
        """
        if self._launch is not None and not self._launch.done():
            # shielded: a cancelled caller must not cancel the launch
            await asyncio.shield(self._launch)
        while True:
            handoff = self._hand_off(fn, *args)
            if not handoff.started.done():
                self.pipelined += 1
            if await handoff.started:
                self._fruitless = 0
                break
        started = time.monotonic()
        done, _ = await asyncio.wait({handoff.future}, timeout=timeout)
        if not done:
            self._recycle_pool(handoff.generation)
            raise asyncio.TimeoutError
        return handoff.future.result(), time.monotonic() - started

    async def close(self, wait: bool = True) -> None:
        """Stop the workers once no caller awaits :meth:`run`; with
        ``wait=False`` a running task is not joined."""
        if self._launch is not None:
            await asyncio.gather(self._launch, return_exceptions=True)
        self._recycle_pool(self._generation, wait=wait)

    # -- the hand-off line -------------------------------------------------
    def _hand_off(self, fn, *args) -> _Handoff:
        """Submit one task to the pool; it starts when a worker is free."""
        try:
            future = self._submit(fn, *args)
        except BrokenProcessPool:
            # the pool broke before its failed tasks reached the loop
            self._recycle_pool(self._generation)
            future = self._submit(fn, *args)
        return self._line_up(future)

    def _submit(self, fn, *args) -> concurrent.futures.Future:
        try:
            return self._ensure_pool().submit(fn, *args)
        except OSError as exc:
            # a worker died while the next one forked, and the executor
            # closed the queue being handed to it
            raise BrokenProcessPool(f"a worker died at start: {exc}") from exc

    def _line_up(self, submitted: concurrent.futures.Future) -> _Handoff:
        """Put a task already submitted to the current pool at the end
        of the hand-off line."""
        loop = asyncio.get_running_loop()
        future = asyncio.wrap_future(submitted, loop=loop)
        handoff = _Handoff(future, loop.create_future(), self._generation)
        self._handoffs.append(handoff)
        if len(self._handoffs) <= self.workers:
            handoff.started.set_result(True)
        future.add_done_callback(lambda _f: self._handoff_done(handoff))
        return handoff

    def _handoff_done(self, handoff: _Handoff) -> None:
        """A pool task ended: start the next waiting one, or, when the
        worker died, replace the pool so no waiting task is charged."""
        future = handoff.future
        broken = (not future.cancelled()
                  and isinstance(future.exception(), BrokenProcessPool))
        if not handoff.started.done():
            # it ended before the end of the task ahead of it was seen,
            # or it never ran: the pool broke or shut down while it waited
            handoff.started.set_result(not (broken or future.cancelled()))
        if handoff.generation != self._generation:
            return
        if broken:
            self._recycle_pool(handoff.generation)
            return
        self._handoffs.remove(handoff)
        for waiting in self._handoffs[:self.workers]:
            if not waiting.started.done():
                waiting.started.set_result(True)

    # -- the pool ----------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            self._adopt(*self._start_pool())
        return self._pool

    async def _launch_pool(self) -> None:
        """Start the first pool off the loop: its first fork waits for
        the forkserver's preload. Jobs wait for this launch, so they line
        up behind the warm-up tasks and their timeouts start only once a
        worker is done warming up."""
        if self.inline:
            return
        try:
            self._adopt(*await asyncio.to_thread(self._start_pool))
        except (BrokenProcessPool, OSError):
            pass  # the first job's hand-off starts a fresh pool

    def _start_pool(self) -> Tuple[Any, List[concurrent.futures.Future]]:
        """A new pool and, for processes, one warm-up task per worker.

        The warm-up tasks fork every worker, so no later submit forks
        one: before 3.12, CPython's executor declares a pool broken
        without taking its submit lock, so a submit that forks while a
        worker dies can add a worker that nothing ever stops, and the
        process hangs at exit joining it.
        """
        if self.inline:
            return ThreadPoolExecutor(max_workers=self.workers,
                                      thread_name_prefix="repro-service"), []
        fault_env = {name: value for name, value in os.environ.items()
                     if name.startswith("REPRO_WORKER_")}
        pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=worker_context(),
            initializer=init_worker, initargs=(os.getpid(), fault_env),
        )
        return pool, [pool.submit(_warm_worker) for _ in range(self.workers)]

    def _adopt(self, pool, warm: List[concurrent.futures.Future]) -> None:
        self._pool = pool
        for submitted in warm:
            self._line_up(submitted)

    def _recycle_pool(self, generation: int, wait: bool = False) -> None:
        """Replace a broken/hung pool exactly once per generation.

        Tasks still waiting for a worker never ran: they are released
        (``started`` False) to be handed to the new pool uncharged, unless
        :data:`START_FAILURES` pools in a row were replaced before any
        task started; then they fail as start failures.
        """
        if generation != self._generation:
            return  # another victim of the same failure already recycled
        self._generation += 1
        self._fruitless += 1
        line, self._handoffs = self._handoffs, []
        for handoff in line:
            if handoff.started.done():
                continue
            if self._fruitless >= START_FAILURES:
                handoff.started.set_exception(BrokenProcessPool(
                    f"workers die at start: {self._fruitless} pools in a "
                    "row broke before any task started"))
            else:
                handoff.started.set_result(False)
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
