"""End-to-end benchmark of the simulator and the experiment service.

Four workloads (``paper_exact``, ``scale_hybrid``, ``stream_topology``,
``service_mixed``) are measured in host time through public entry points
only; a separate cProfile pass splits each workload's time by ``src/repro``
layer. See ``README.md`` in this directory for the metrics, the workloads
and how to run ``run``, ``trace`` and ``compare``.
"""

from pathlib import Path

#: this package's directory
BENCH_DIR = Path(__file__).resolve().parent
#: root of the checkout (holds ``BENCHMARK.json`` and ``src/``)
ROOT = BENCH_DIR.parent.parent
#: source tree the benchmark imports the program from
SRC = ROOT / "src"
#: working space for sockets, journals and profiles (git-ignored)
RUN_DIR = ROOT / ".bench_run"
