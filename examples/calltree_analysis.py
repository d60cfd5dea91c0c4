#!/usr/bin/env python3
"""Thicket-style call-tree analysis of a DYAD workflow (paper Fig. 9).

Runs a two-node DYAD workflow for JAC and STMV, aggregates the per-process
Caliper call trees into a Thicket ensemble, renders the mean consumer tree
for each model, and uses the call-path query language to drill into the
regions the paper discusses (``dyad_fetch``, ``dyad_get_data``,
``dyad_cons_store``, ``read_single_buf``).

Run with::

    python examples/calltree_analysis.py
"""

from repro.experiments.claims import CLAIMS
from repro.md import JAC, STMV
from repro.perf import Thicket
from repro.units import fmt_time
from repro.workflow import Placement, System, WorkflowSpec, run_workflow

FRAMES = 32
PAIRS = 8


def analyze(model):
    spec = WorkflowSpec(
        system=System.DYAD, model=model, stride=model.paper_stride,
        frames=FRAMES, pairs=PAIRS, placement=Placement.SPLIT,
    )
    result = run_workflow(spec, jitter_cv=0.05)

    ensemble = result.thicket()
    consumers: Thicket = ensemble.filter(role="consumer")
    mean_tree = consumers.aggregate("mean")
    mean_tree.label = f"mean consumer call tree, {model.name} ({PAIRS} pairs)"

    print(mean_tree.render(metric="time", unit=1e-3 * FRAMES, fmt="{:.3f} ms"))
    print()

    # call-path queries, Hatchet style
    movement_nodes = consumers.query("**/dyad_*")
    print(f"query '**/dyad_*' matched: "
          f"{', '.join(sorted(n.name for n in movement_nodes))}")
    idle_nodes = consumers.query(["**", {"category": "idle"}])
    for node in idle_nodes:
        print(f"idle region {'/'.join(node.path())}: "
              f"{fmt_time(node.time)} total per consumer")

    # per-path ensemble statistics (mean ± std across pairs)
    stats = consumers.node_stats("dyad_consume", "dyad_get_data")
    print(f"dyad_get_data across {stats.n} consumers: "
          f"{fmt_time(stats.mean / FRAMES)}/frame "
          f"± {fmt_time(stats.std / FRAMES)}")
    return mean_tree


def main() -> None:
    trees = {}
    for model in (JAC, STMV):
        print(f"===== {model.name} =====")
        trees[model.name] = analyze(model)
        print()

    def movement(tree):
        total = 0.0
        for path in [("dyad_consume", "dyad_get_data"),
                     ("dyad_consume", "dyad_cons_store"),
                     ("read_single_buf",)]:
            node = tree.find(*path)
            total += node.time if node else 0.0
        return total / FRAMES

    jac_move = movement(trees["JAC"])
    stmv_move = movement(trees["STMV"])
    data_ratio = STMV.frame_bytes / JAC.frame_bytes
    # the paper's claim is movement growth per unit of data growth
    (claim,) = [c for c in CLAIMS if c.id == "fig9.movement"]
    print(f"STMV moves {data_ratio:.1f}x more data than JAC, but DYAD's "
          f"movement time grows only {stmv_move / jac_move:.1f}x "
          f"(paper: {claim.paper.value * data_ratio:.1f}x) — fixed "
          "per-operation costs amortize.")


if __name__ == "__main__":
    main()
