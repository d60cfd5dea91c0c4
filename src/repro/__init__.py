"""repro — a reproduction of *"Empirical Study of Molecular Dynamics
Workflow Data Movement: DYAD vs. Traditional I/O Systems"* (Lumsden et
al., 2024).

The library contains every system the paper's study depends on, built
from scratch:

- a deterministic discrete-event simulation kernel (:mod:`repro.sim`);
- a Corona-like cluster model — NVMe SSDs, InfiniBand-like fabric, nodes
  (:mod:`repro.cluster`);
- XFS-like and Lustre-like file systems behind one POSIX layer, plus
  advisory file locks (:mod:`repro.storage`);
- a Flux-KVS-like key-value store (:mod:`repro.kvs`);
- the DYAD middleware — node-local staging, global metadata management,
  multi-protocol synchronization, RDMA pulls (:mod:`repro.dyad`);
- the MD substrate — model catalogue and binary frame codec
  (:mod:`repro.md`);
- the MD-inspired producer/consumer workflow harness
  (:mod:`repro.workflow`);
- Caliper/Thicket-like performance tooling (:mod:`repro.perf`);
- the per-figure reproduction harness (:mod:`repro.experiments`).

Quick start::

    from repro.md import JAC
    from repro.workflow import WorkflowSpec, System, run_workflow

    spec = WorkflowSpec(system=System.DYAD, model=JAC, stride=880,
                        frames=32, pairs=2)
    result = run_workflow(spec)
    print(result.consumption_time)
"""

import importlib
import sys
import types
from typing import Callable, Dict, Iterable, List, Tuple

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "APOA1",
    "F1_ATPASE",
    "JAC",
    "MODELS",
    "STMV",
    "Placement",
    "System",
    "WorkflowResult",
    "WorkflowSpec",
    "run_repetitions",
    "run_workflow",
    "__version__",
]


def lazy_exports(
    package: str, exports: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``(__getattr__, __dir__)`` for a package that re-exports
    names from its submodules without importing them up front.

    ``exports`` maps each defining module to the names ``package``
    re-exports from it; a name's module is imported on the first access
    to that name, and the value is stored in the package's namespace so
    later reads are plain attribute reads. A process that needs one
    light submodule — the job server's CLI, a worker that runs only the
    simulator — then does not pay for the rest (the figure registry,
    the performance tooling).

    A name may share its defining submodule's name (``repro.cluster``
    re-exports the function ``corona`` of ``repro.cluster.corona``).
    Importing that submodule binds it to the package attribute, so the
    package keeps the re-exported value in its place.
    """
    namespace = sys.modules[package].__dict__
    origin = {name: module for module, names in exports.items()
              for name in names}

    class _Package(types.ModuleType):
        def __setattr__(self, name: str, value: object) -> None:
            if (isinstance(value, types.ModuleType)
                    and value.__name__ == origin.get(name)):
                value = getattr(value, name)
            super().__setattr__(name, value)

    sys.modules[package].__class__ = _Package

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


# the simulator loads on first use of a name, not on ``import repro``
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": ["ReproError"],
    "repro.md.models": ["APOA1", "F1_ATPASE", "JAC", "MODELS", "STMV"],
    "repro.workflow": ["Placement", "System", "WorkflowResult",
                       "WorkflowSpec", "run_repetitions", "run_workflow"],
})
