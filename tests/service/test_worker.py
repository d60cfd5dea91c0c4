"""The server's worker entry point hands back a job's stored form."""

import pickle
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.errors import ReproError
from repro.experiments.parallel import _execute_task, result_fingerprint
from repro.experiments.persist import decode_result, encode_result
from repro.service.jobs import JobSpec
from repro.service.worker import _execute_job


@pytest.mark.parametrize("system", ["dyad", "xfs", "lustre"])
def test_a_job_comes_back_encoded_with_its_record_fields(system):
    task = JobSpec(tenant="alice", system=system, frames=2, seed=3).run_task()
    blob, fingerprint, makespan = _execute_job(task)
    result = decode_result(blob)
    assert fingerprint == result_fingerprint(result)
    assert makespan == result.makespan
    # a reader that re-encodes what it decoded gets the same bytes...
    assert encode_result(result) == blob
    # ...which are the bytes of a result sent across a process boundary
    # and encoded there
    sent = pickle.loads(ForkingPickler.dumps(_execute_task(task)))
    assert encode_result(sent) == blob
