"""The job server's boot is light and ordered.

``python -m repro.service serve`` imports its CLI without the simulator,
launches the pool's forkserver, and only then imports the server, so the
server process and the forkserver import in parallel. Each check runs in
a fresh interpreter: this test process has long imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: each lazily re-exporting package and the names it has always exported
PACKAGES = {
    "repro": [
        "ReproError", "APOA1", "F1_ATPASE", "JAC", "MODELS", "STMV",
        "Placement", "System", "WorkflowResult", "WorkflowSpec",
        "run_repetitions", "run_workflow", "__version__",
    ],
    "repro.md": [
        "EigenvalueTracker", "contact_matrix", "end_to_end_distance",
        "largest_eigenvalue", "radius_of_gyration", "rmsd", "LJConfig",
        "LJSimulation", "ATOM_DTYPE", "FRAME_HEADER_BYTES", "Frame",
        "frame_size", "APOA1", "F1_ATPASE", "JAC", "MODELS", "STMV",
        "MolecularModel", "model_by_name", "TrajectoryReader",
        "TrajectoryWriter", "read_trajectory", "write_trajectory",
    ],
    "repro.experiments": ["EXPERIMENTS", "get_experiment", "run_all"],
    "repro.service": [
        "CircuitBreaker", "DONE", "ExperimentServer", "FAILED", "FairQueue",
        "GroupCommitter", "JobRecord", "JobSpec", "Journal",
        "PayloadSegment", "QUEUED", "RETRYABLE", "RUNNING", "ServerConfig",
        "ServiceClient", "SharedResultStore", "SheddingPolicy",
        "StoredResult", "SyncServiceClient", "build_job_pool",
        "iter_events", "percentile", "replay_events", "run_delivery",
        "run_load",
    ],
}

#: modules the CLI must reach ``main()`` without
HEAVY = ["numpy", "repro.workflow.runner", "repro.service.server"]


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_imports_without_the_simulator():
    loaded = _fresh(
        "import json, sys\n"
        "import repro, repro.service, repro.service.__main__\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    assert loaded == []


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
            if isinstance(value, (type, FunctionType)):
                home = importlib.import_module(value.__module__)
                assert getattr(home, name) is value
        with pytest.raises(AttributeError):
            module.no_such_name
