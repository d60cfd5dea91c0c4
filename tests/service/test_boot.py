"""The job server's boot is light and ordered.

``python -m repro.service serve`` imports its CLI without the simulator,
launches the pool's forkserver, and only then imports the server, so the
server process and the forkserver import in parallel. The server process
never loads the simulator, and ``serve`` keeps OpenSSL out of it. Each
check runs in a fresh interpreter: this test process has long imported
everything.
"""

import asyncio
import importlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

import repro
from repro.experiments.parallel import result_fingerprint
from repro.service.__main__ import server_command
from repro.service.client import ServiceClient
from repro.service.worker import PRELOAD

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: each lazily re-exporting package and the names it exports
PACKAGES = {
    "repro": [
        "ReproError", "APOA1", "F1_ATPASE", "JAC", "MODELS", "STMV",
        "Placement", "System", "WorkflowResult", "WorkflowSpec",
        "run_repetitions", "run_workflow", "__version__",
    ],
    "repro.md": [
        "FRAME_HEADER_BYTES", "frame_size", "APOA1", "F1_ATPASE", "JAC",
        "MODELS", "STMV", "MolecularModel", "model_by_name",
    ],
    "repro.experiments": ["EXPERIMENTS", "get_experiment", "run_all"],
    "repro.perf": [
        "Annotator", "Caliper", "Category", "CallTree", "CallTreeNode",
        "parse_query", "query", "Thicket", "SpanEvent", "Tracer",
        "TracingAnnotator", "Counter", "Gauge", "MetricsTimeline",
        "merge_chrome_trace", "write_chrome_trace",
    ],
    "repro.faults": ["FaultPlan", "FaultEvent", "FaultInjector",
                     "FAULT_KINDS"],
    "repro.sim": [
        "AllOf", "Environment", "Event", "Process", "Timeout",
        "Resource", "SharedBandwidth", "Signal", "RngStreams",
    ],
    "repro.workflow": ["WorkflowResult", "run_workflow", "run_repetitions",
                       "Placement", "System", "WorkflowSpec"],
    "repro.cluster": [
        "CORONA_NODE", "corona", "NIC", "Fabric", "FabricConfig", "Node",
        "NodeConfig", "SSDConfig", "SSDModel", "Cluster", "ClusterConfig",
    ],
    "repro.service": [
        "CircuitBreaker", "DONE", "ExperimentServer", "FAILED", "FairQueue",
        "GroupCommitter", "JobRecord", "JobSpec", "Journal",
        "QUEUED", "RETRYABLE", "RUNNING", "ServerConfig",
        "ServiceClient", "SharedResultStore", "StoredResult",
        "SyncServiceClient", "build_job_pool", "iter_events",
        "percentile", "run_delivery", "run_load",
    ],
}

#: modules the CLI must reach ``main()`` without
HEAVY = ["numpy", "repro.workflow.runner", "repro.sim.core",
         "repro.sim.fluid", "repro.service.server"]


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    out = subprocess.run([sys.executable, "-c", code], env=_env(),
                         check=True, capture_output=True, text=True,
                         timeout=60)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_imports_without_the_simulator():
    loaded = _fresh(
        "import json, sys\n"
        "import repro, repro.service, repro.service.__main__\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_server_imports_without_the_simulator():
    # a job's tier validates against ``repro.workflow.spec.Fidelity``:
    # neither the DES kernel nor the fluid engine loads with it
    for module in ("repro.service.server", "repro.service.jobs"):
        loaded = _fresh(
            "import json, sys\n"
            f"import {module}\n"
            f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules\n"
            "                   and m != 'repro.service.server']))\n"
        )
        assert loaded == [], module


def test_only_serve_keeps_ssl_out():
    """``serve`` marks ``ssl`` unavailable before asyncio loads; importing
    the CLI, the package or the client leaves it importable, and the CLI
    imports no asyncio, or ``serve``'s block would come too late."""
    state = _fresh(
        "import json, sys\n"
        "import repro.service, repro.service.__main__\n"
        "cli_asyncio = 'asyncio' in sys.modules\n"
        "import repro.service.client\n"
        "import ssl\n"
        "print(json.dumps([cli_asyncio, sys.modules['ssl'] is ssl,\n"
        "                  bool(ssl.OPENSSL_VERSION)]))\n"
    )
    assert state == [False, True, True]


def test_the_forkserver_preload_loads_the_runner():
    # the task entry points load the simulator only when they run; the
    # preload names it, or every forked worker would import it again
    loaded = _fresh(
        "import importlib, json, sys\n"
        f"for name in {PRELOAD!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps('repro.workflow.runner' in sys.modules))\n"
    )
    assert loaded is True


def test_serve_launches_the_forkserver_before_importing_the_server(
        tmp_path):
    seen = _fresh(
        "import json, sys\n"
        "from multiprocessing import forkserver\n"
        "class Launched(Exception):\n"
        "    pass\n"
        "def ensure_running():\n"
        f"    seen = [m for m in {HEAVY!r} if m in sys.modules]\n"
        "    raise Launched(seen)\n"
        "forkserver.ensure_running = ensure_running\n"
        "from repro.service.__main__ import main\n"
        "try:\n"
        f"    main(['serve', '--socket', {str(tmp_path / 's.sock')!r},\n"
        f"          '--journal', {str(tmp_path / 'j.jsonl')!r}])\n"
        "except Launched as launched:\n"
        "    print(json.dumps(launched.args[0]))\n"
    )
    # neither the server nor the simulator: the forkserver imports the
    # latter while this process imports the former
    assert seen == []


def test_lazy_packages_keep_their_names():
    listed = _fresh(
        "import importlib, json, sys\n"
        f"packages = {list(PACKAGES)!r}\n"
        "mods = {p: importlib.import_module(p) for p in packages}\n"
        "out = {p: [list(m.__all__), dir(m)] for p, m in mods.items()}\n"
        "out['loaded'] = [m for m in ('numpy', 'repro.workflow.runner')\n"
        "                 if m in sys.modules]\n"
        "print(json.dumps(out))\n"
    )
    # listing the names loads nothing
    assert listed.pop("loaded") == []
    for package, names in PACKAGES.items():
        all_, dir_ = listed[package]
        assert all_ == names
        assert set(names) <= set(dir_)


def test_lazy_names_resolve_to_their_definitions():
    for package, names in PACKAGES.items():
        module = importlib.import_module(package)
        for name in names:
            value = getattr(module, name)
            # never shadowed by a submodule of the same name
            assert not isinstance(value, ModuleType), f"{package}.{name}"
            if isinstance(value, (type, FunctionType)):
                home = importlib.import_module(value.__module__)
                assert getattr(home, name) is value
        with pytest.raises(AttributeError):
            module.no_such_name


async def _serve_a_mix(socket_path):
    """Cold jobs, a queue backlog, in-flight duplicates, repeats and
    result fetches; returns the server's stats."""
    client = ServiceClient(socket_path)
    try:
        jobs = [{"tenant": "alice", "frames": 2, "seed": 900 + i}
                for i in range(6)]
        # seed 900 holds the one worker (see the hang hook in the env),
        # 901 waits in the pool behind it, and 902-905 queue up behind
        # both
        for job in jobs:
            assert (await client.submit(job, wait=False))["ok"]
        done = [await client.submit(job) for job in jobs]
        assert {r["source"] for r in done} <= {"dedup", "hit"}
        repeats = [await client.submit(job) for job in jobs]
        assert {r["source"] for r in repeats} == {"hit"}
        for response in repeats:
            header, result = await client.fetch_result(key=response["key"])
            assert header["ok"]
            # the worker's fingerprint is the delivered result's
            assert result_fingerprint(result) == response["fingerprint"]
            assert result.makespan == response["makespan"]
        return await client.stats()
    finally:
        await client.close()


def test_served_jobs_leave_the_server_simulator_free(tmp_path):
    """The server files what its workers encoded: through cold jobs,
    a queue backlog, duplicates, repeats and result fetches it loads
    neither numpy, the workflow runner nor the DES kernel, and, started
    by ``serve``, no OpenSSL."""
    socket_path = str(tmp_path / "s.sock")
    cmd = server_command(socket_path, str(tmp_path / "j.jsonl"),
                         str(tmp_path / "cache"), workers=1)
    (tmp_path / "faults").mkdir()
    env = _env(REPRO_JOBS_OVERSUBSCRIBE="1",
               REPRO_WORKER_FAULT_DIR=str(tmp_path / "faults"),
               REPRO_WORKER_HANG_SEEDS="900",
               REPRO_WORKER_HANG_SECONDS="1.0")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        stats = asyncio.run(asyncio.wait_for(_serve_a_mix(socket_path), 120))
        with open(f"/proc/{proc.pid}/maps") as fh:
            maps = fh.read()
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert stats["counters"]["completed"] == 18
    assert stats["loaded"] == {"numpy": False,
                               "repro.workflow.runner": False,
                               "repro.sim.core": False,
                               "repro.sim.fluid": False, "_ssl": False}
    # neither numpy's extension modules nor OpenSSL's libraries were
    # ever mapped into the process
    assert "numpy" not in maps
    assert "libssl" not in maps
    assert "libcrypto" not in maps
