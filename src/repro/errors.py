"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate between subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Error inside the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """The event loop ran out of events while processes were still waiting.

    Raised by :meth:`repro.sim.core.Environment.run` when ``until`` has not
    been reached but no future event exists, which means at least one process
    is blocked forever (a classic producer/consumer deadlock).
    """


class StallError(SimulationError):
    """The simulation exceeded its watchdog budget or ended incomplete.

    Raised by :meth:`repro.sim.core.Environment.run_guarded` when the
    event budget or time horizon is exhausted (a recovery loop that spins
    instead of progressing), and by the workflow runner when the event
    heap drains while producer/consumer processes are still waiting (a
    recovery deadlock that would otherwise return silently-incomplete
    results). The message names the stuck processes / exhausted budget so
    a faulty fault plan is diagnosable rather than a hang.
    """


class StorageError(ReproError):
    """Base class for file-system errors (simulated POSIX layer)."""


class FileNotFound(StorageError):
    """Path does not exist in the simulated namespace (ENOENT)."""


class FileExists(StorageError):
    """Exclusive create hit an existing path (EEXIST)."""


class IsADirectory(StorageError):
    """Data operation attempted on a directory (EISDIR)."""


class NotADirectory(StorageError):
    """Path component used as directory is a regular file (ENOTDIR)."""


class InvalidHandle(StorageError):
    """Operation on a closed or foreign file handle (EBADF)."""


class LockError(StorageError):
    """Advisory lock acquisition failed (non-blocking flock on held lock)."""


class KVSError(ReproError):
    """Key-value store failure (missing key, bad namespace, ...)."""


class KeyNotFound(KVSError):
    """Lookup of a key that has not been committed."""


class DyadError(ReproError):
    """DYAD middleware failure (metadata miss, transfer failure, ...)."""


class TransferError(DyadError):
    """An RDMA/remote transfer could not be completed."""


class IntegrityError(DyadError):
    """A staged frame failed its integrity check.

    Raised by the checked DYAD consume path
    (:meth:`repro.dyad.client.DyadClient.consume` with
    ``integrity_checks`` on) when the staging file system marks the
    frame it read as corrupt
    (:meth:`repro.storage.posixfs.PosixFileSystem.is_corrupt`).
    """


class WorkflowError(ReproError):
    """Invalid workflow specification or orchestration failure."""


class ConfigError(ReproError):
    """Invalid configuration value (negative bandwidth, zero stride, ...)."""


class FaultPlanError(ConfigError):
    """Invalid fault plan (unknown kind, bad target, overlapping windows)."""


class InvariantViolation(WorkflowError):
    """A workflow correctness invariant was broken during a run.

    Raised by :class:`repro.invariants.InvariantChecker` (when fatal) the
    moment an observation contradicts the invariant catalogue — bytes not
    conserved across a frame's journey, a duplicate or missing consume, a
    read that precedes its commit, leaked locks or in-flight channel
    flows at drain, or non-monotonic per-process simulation time. The
    message names the invariant and the offending frame/process so chaos
    repros are diagnosable.
    """


class CampaignError(ReproError):
    """The campaign runner exhausted a task's re-submission budget."""


class ServiceError(ReproError):
    """Experiment-service failure (bad request, journal damage, ...)."""


class AdmissionError(ServiceError):
    """A job submission was rejected by admission control.

    Carries a machine-readable ``reason`` (``queue_full``,
    ``budget_exceeded``, ``circuit_open``, ``draining``) and a
    ``retry_after`` hint in seconds — the wire layer returns both to the
    client instead of letting queues grow unboundedly.
    """

    def __init__(self, reason: str, retry_after: float = 1.0) -> None:
        super().__init__(f"{reason} (retry after {retry_after:.1f}s)")
        self.reason = reason
        self.retry_after = retry_after


class JournalError(ServiceError):
    """The job journal could not be written or replayed."""


class PerfError(ReproError):
    """Performance-tooling failure (malformed call path, bad query, ...)."""


class QuerySyntaxError(PerfError):
    """A call-path query string could not be parsed."""
