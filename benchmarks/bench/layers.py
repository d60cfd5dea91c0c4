"""Per-layer cost accounting from a cProfile run.

Every module under ``src/repro`` belongs to one layer. A function's self
time goes to its module's layer. Builtins, the standard library and third
party code (numpy) belong to no layer: their self time is charged to the
layers that called them, in proportion to the time each caller spent in
them (the caller edge's cumulative time, or its call count where the
profile recorded no time); what has no profiled caller goes to a root
layer. A layer's ``calls_in`` counts the calls that enter it from a
different layer.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

LAYERS = (
    "sim.core", "sim.resources", "sim.fluid", "sim.rng", "cluster",
    "storage", "dyad", "kvs", "workflow", "invariants", "perf", "md",
    "experiments", "service", "other",
)

#: modules mapped one by one
_MODULES = {
    "repro": "other",
    "repro.errors": "other",
    "repro.units": "other",
    "repro.chaos": "experiments",
    "repro.invariants": "invariants",
    "repro.sim": "sim.core",
    "repro.sim.core": "sim.core",
    "repro.sim.resources": "sim.resources",
    "repro.sim.reference": "sim.resources",
    "repro.sim.fluid": "sim.fluid",
    "repro.sim.rng": "sim.rng",
}

#: packages mapped with every module inside them
_PACKAGES = {
    "repro.backends": "dyad",        # the DYAD protocol on real threads
    "repro.cluster": "cluster",
    "repro.dyad": "dyad",
    "repro.experiments": "experiments",
    "repro.faults": "workflow",      # injected by the workflow runner
    "repro.insitu": "workflow",      # producer/consumer pipeline runner
    "repro.kvs": "kvs",
    "repro.md": "md",
    "repro.perf": "perf",
    "repro.service": "service",
    "repro.storage": "storage",
    "repro.workflow": "workflow",
}

Func = Tuple[str, int, str]


def layer_of_module(module: str) -> Optional[str]:
    """Layer of a ``repro`` module, or None when the table misses it."""
    if module in _MODULES:
        return _MODULES[module]
    package = module
    while package not in _PACKAGES:
        if "." not in package:
            return None
        package = package.rsplit(".", 1)[0]
    return _PACKAGES[package]


def source_modules(src: Path) -> Iterable[str]:
    """Every module name under ``src/repro``."""
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        yield ".".join(parts)


class LayerMap:
    """Maps profile entries to layers for one source tree.

    ``root`` is the layer charged for what the profiled program does
    outside any caller the profile saw: interpreter start-up and the
    import machinery, when a whole process was profiled with
    ``python -m cProfile -m repro.<entry point>``.
    """

    def __init__(self, src: Path, root: str = "other") -> None:
        self._src = os.path.realpath(src) + os.sep
        self._by_file: Dict[str, Optional[str]] = {}
        self.root = root

    def layer(self, func: Func) -> Optional[str]:
        """Layer of a profiled function; None outside ``src/repro``."""
        filename = func[0]
        if filename not in self._by_file:
            self._by_file[filename] = self._layer_of_file(filename)
        return self._by_file[filename]

    def _layer_of_file(self, filename: str) -> Optional[str]:
        if filename.startswith("~") or filename.startswith("<"):
            return None
        path = os.path.realpath(filename)
        if not path.startswith(self._src + "repro" + os.sep):
            return None
        parts = path[len(self._src):-len(".py")].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        # an unmapped module still counts; test_bench fails on it
        return layer_of_module(".".join(parts)) or "other"


def ledger(stats: Dict[Func, tuple], layers: LayerMap) -> Dict[str, dict]:
    """``{layer: {"self_s": seconds, "calls_in": calls}}`` for every layer.

    ``stats`` is ``pstats.Stats(...).stats``: ``func -> (primitive calls,
    calls, self time, cumulative time, callers)``, where ``callers`` maps
    each caller to ``(calls, primitive calls, self time, cumulative
    time)`` of that edge.
    """
    owners: Dict[Func, Dict[str, float]] = {}
    visiting = set()

    def owner(func: Func) -> Dict[str, float]:
        """Share of each layer in ``func``'s cost."""
        if func in owners:
            return owners[func]
        layer = layers.layer(func)
        if layer is not None:
            owners[func] = {layer: 1.0}
            return owners[func]
        visiting.add(func)
        edges = [(caller, edge) for caller, edge in stats[func][4].items()
                 if caller in stats and caller not in visiting]
        by_time = sum(edge[3] for _, edge in edges) > 0.0
        mix: Dict[str, float] = defaultdict(float)
        for caller, edge in edges:
            weight = edge[3] if by_time else float(edge[0])
            for name, share in owner(caller).items():
                mix[name] += weight * share
        visiting.discard(func)
        total = sum(mix.values())
        owners[func] = ({name: v / total for name, v in mix.items()}
                        if total > 0.0 else {layers.root: 1.0})
        return owners[func]

    self_s: Dict[str, float] = defaultdict(float)
    calls_in: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        for name, share in owner(func).items():
            self_s[name] += tt * share
        layer = layers.layer(func)
        if layer is None:
            continue
        for caller, edge in callers.items():
            source = owner(caller) if caller in stats else {layers.root: 1.0}
            calls_in[layer] += edge[0] * (1.0 - source.get(layer, 0.0))
    return {name: {"self_s": self_s[name],
                   "calls_in": int(round(calls_in[name]))}
            for name in LAYERS}


def ledger_metrics(stats: Dict[Func, tuple], layers: LayerMap,
                   traced_wall_s: float) -> Dict[str, float]:
    """Flat ``<layer>.self_s`` / ``.share`` / ``.calls_in`` metrics plus
    ``profile_coverage`` (summed self time over the traced wall time)."""
    out: Dict[str, float] = {}
    total = 0.0
    for name, row in ledger(stats, layers).items():
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.share"] = row["self_s"] / traced_wall_s
        out[f"{name}.calls_in"] = row["calls_in"]
        total += row["self_s"]
    out["profile_coverage"] = total / traced_wall_s
    return out


def load_stats(path: str) -> Dict[Func, tuple]:
    """Raw stats of a profile written with ``cProfile -o``."""
    return pstats.Stats(path).stats  # type: ignore[attr-defined]
