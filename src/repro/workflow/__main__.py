"""CLI for ad-hoc workflow runs: ``python -m repro.workflow …``.

Examples::

    python -m repro.workflow --system dyad --model jac --pairs 8
    python -m repro.workflow --system lustre --model stmv --stride 10 \\
        --frames 64 --sync polling --runs 3
    python -m repro.workflow --system dyad --trace /tmp/run.trace.json
    python -m repro.workflow --system dyad --topology fanout --consumers 8
    python -m repro.workflow --system lustre --topology pool \\
        --producers 2 --consumers 3 --sync windowed
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.experiments.parallel import campaign
from repro.md.models import model_by_name
from repro.perf.report import table
from repro.units import to_msec, to_usec
from repro.workflow.runner import _mean, run_repetitions
from repro.workflow.spec import (
    Placement, SyncMode, System, Topology, WorkflowSpec,
)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workflow",
        description="Run one MD-workflow configuration and print its "
                    "movement/idle decomposition.",
    )
    parser.add_argument("--system", required=True,
                        choices=[s.value for s in System])
    parser.add_argument("--model", default="jac",
                        help="jac | apoa1 | f1 | stmv")
    parser.add_argument("--stride", type=int, default=None,
                        help="MD steps per frame (default: the model's "
                             "Table II stride)")
    parser.add_argument("--frames", type=int, default=64)
    parser.add_argument("--pairs", type=int, default=None,
                        help="producer/consumer pairs for the pairwise "
                             "topology (default 4; fixed at 1 otherwise)")
    parser.add_argument("--topology", default="pairwise",
                        choices=[t.value for t in Topology],
                        help="workflow graph shape: pairwise 1:1 links, "
                             "fanout 1->M, fanin N->1 reduce, or a "
                             "work-stealing consumer pool")
    parser.add_argument("--producers", type=int, default=0,
                        help="producer count for fanin/pool (fanout "
                             "fixes it at 1)")
    parser.add_argument("--consumers", type=int, default=0,
                        help="consumer count for fanout/pool (fanin "
                             "fixes it at 1)")
    parser.add_argument("--placement", default=None,
                        choices=[p.value for p in Placement],
                        help="default: single-node for xfs, split otherwise")
    parser.add_argument("--sync", default="coarse",
                        choices=[m.value for m in SyncMode],
                        help="sync mode: coarse/polling are manual sync "
                             "for xfs/lustre (ignored by dyad); the "
                             "streaming modes windowed/pubsub/nbuffer "
                             "apply to every system")
    parser.add_argument("--window", type=int, default=2,
                        help="in-flight frame window W for --sync "
                             "windowed (nbuffer is fixed at W=2)")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the repetitions "
                             "(default: REPRO_JOBS or 1)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jitter", type=float, default=0.05,
                        help="device/compute jitter cv")
    parser.add_argument("--fidelity", default=None,
                        choices=["exact", "hybrid"],
                        help="simulation tier (default: exact)")
    parser.add_argument("--trace", default=None,
                        help="write a merged Chrome trace JSON of run 0 "
                             "(spans + substrate counters) here")
    parser.add_argument("--metrics", default=None,
                        help="write run 0's substrate telemetry timeline "
                             "here (JSON, or CSV if the name ends in .csv)")
    return parser


def build_spec(args) -> WorkflowSpec:
    """Translate CLI arguments into a :class:`WorkflowSpec`."""
    system = System(args.system)
    model = model_by_name(args.model)
    if args.placement is not None:
        placement = Placement(args.placement)
    else:
        placement = (Placement.SINGLE_NODE if system is System.XFS
                     else Placement.SPLIT)
    extras = {}
    sync = SyncMode(args.sync)
    # The streaming transports apply to every system; the manual
    # coarse/polling modes model XFS/Lustre-only sync scripts, and the
    # spec normalizes them to COARSE for DYAD (its KVS provides the
    # signalling, so the manual spellings alias the automatic mode).
    extras["sync_mode"] = sync
    if sync.is_streaming:
        extras["window"] = args.window if sync is SyncMode.WINDOWED else 2
    topology = Topology(args.topology)
    if topology is not Topology.PAIRWISE:
        extras["topology"] = topology
        extras["producers"] = args.producers
        extras["consumers"] = args.consumers
        pairs = 1 if args.pairs is None else args.pairs
    else:
        # Pass stray sizes through so the spec rejects them loudly
        # (pairwise sizes via --pairs) instead of ignoring the flags.
        if args.producers or args.consumers:
            extras["producers"] = args.producers
            extras["consumers"] = args.consumers
        pairs = 4 if args.pairs is None else args.pairs
    return WorkflowSpec(
        system=system,
        model=model,
        stride=args.stride if args.stride is not None else model.paper_stride,
        frames=args.frames,
        pairs=pairs,
        placement=placement,
        **extras,
    )


def main(argv=None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    spec = build_spec(args)
    print(f"running: {spec.describe()} (runs={args.runs})")

    # --trace/--metrics: the campaign runs repetition 0 instrumented, in
    # place of its plain run, and exports it
    with campaign(trace_path=args.trace, metrics_path=args.metrics):
        results = run_repetitions(
            spec, runs=args.runs, base_seed=args.seed,
            jitter_cv=args.jitter, jobs=args.jobs, fidelity=args.fidelity,
        )

    def stat(metric):
        # numpy's mean and population std (ddof=0), bit for bit
        values = [getattr(r, metric) for r in results]
        mean = _mean(values)
        squares = [(v - mean) * (v - mean) for v in values]
        return mean, math.sqrt(_mean(squares))

    rows = []
    for label, metric, conv, unit in [
        ("production movement", "production_movement", to_usec, "us"),
        ("production idle", "production_idle", to_usec, "us"),
        ("consumption movement", "consumption_movement", to_msec, "ms"),
        ("consumption idle", "consumption_idle", to_msec, "ms"),
        ("consumption total", "consumption_time", to_msec, "ms"),
    ]:
        mean, std = stat(metric)
        rows.append([label, f"{conv(mean):.3f} {unit}", f"{conv(std):.3f} {unit}"])
    rows.append(["makespan", f"{_mean([r.makespan for r in results]):.2f} s", ""])
    print(table(["metric (per frame)", "mean", "std over runs"], rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
