"""Campaign-as-a-service: a fault-tolerant async experiment server.

The :mod:`repro.service` package wraps the campaign runner
(:mod:`repro.experiments.parallel`) behind a long-running job-submission
API on a unix socket:

- :class:`~repro.service.server.ExperimentServer` — the asyncio server:
  admission control (:class:`~repro.service.admission.FairQueue`), load
  shedding (:class:`~repro.service.shedding.SheddingPolicy`),
  per-experiment-kind circuit breaking
  (:class:`~repro.service.breaker.CircuitBreaker`), a journal-backed
  job ledger (:class:`~repro.service.journal.Journal`) that survives
  SIGKILL, and a shared multi-tenant result store
  (:class:`~repro.service.store.SharedResultStore`).
- :class:`~repro.service.client.ServiceClient` — the asyncio client
  (plus a synchronous façade for the CLI).
- :func:`~repro.service.loadgen.run_load` — the synthetic-client chaos
  harness behind ``BENCH_service.json``.

``python -m repro.service --help`` lists the CLI surface; see
``docs/service.md`` for the API, tenancy model, degradation policy, and
resume semantics.
"""

from repro import lazy_exports

__all__ = [
    "CircuitBreaker",
    "DONE",
    "ExperimentServer",
    "FAILED",
    "FairQueue",
    "GroupCommitter",
    "JobRecord",
    "JobSpec",
    "Journal",
    "QUEUED",
    "RETRYABLE",
    "RUNNING",
    "ServerConfig",
    "ServiceClient",
    "SharedResultStore",
    "SheddingPolicy",
    "StoredResult",
    "SyncServiceClient",
    "build_job_pool",
    "iter_events",
    "percentile",
    "run_delivery",
    "run_load",
]

# ``python -m repro.service`` reaches its CLI without the simulator; the
# server and the store load when a name from them is first used
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.admission": ["FairQueue"],
    "repro.service.breaker": ["CircuitBreaker"],
    "repro.service.client": ["RETRYABLE", "ServiceClient",
                             "SyncServiceClient"],
    "repro.service.jobs": ["DONE", "FAILED", "QUEUED", "RUNNING",
                           "JobRecord", "JobSpec"],
    "repro.service.journal": ["GroupCommitter", "Journal", "iter_events"],
    "repro.service.loadgen": ["build_job_pool", "percentile",
                              "run_delivery", "run_load"],
    "repro.service.server": ["ExperimentServer", "ServerConfig"],
    "repro.service.shedding": ["SheddingPolicy"],
    "repro.service.store": ["SharedResultStore", "StoredResult"],
})
