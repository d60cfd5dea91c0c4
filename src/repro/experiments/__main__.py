"""CLI for the reproduction harness: ``python -m repro.experiments …``."""

from __future__ import annotations

import argparse
import sys

from repro.errors import CampaignError
from repro.experiments.registry import EXPERIMENTS, describe, run_all


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'list', 'all', or 'report'",
    )
    parser.add_argument("--runs", type=int, default=None,
                        help="repetitions per configuration (paper: 10)")
    parser.add_argument("--frames", type=int, default=None,
                        help="frames per producer (paper: 128)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid for a fast smoke run")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for repetitions "
                             "(default: REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache location "
                             "(default: REPRO_CACHE_DIR or "
                             "~/.cache/repro/results)")
    parser.add_argument("--fidelity", default=None,
                        choices=["exact", "hybrid"],
                        help="simulation tier for every repetition: exact "
                             "per-transfer events (default) or hybrid "
                             "(protocol events exact, bulk bytes and "
                             "collapsed RDMA chunk pipelines on the "
                             "flow-level fluid fabric)")
    parser.add_argument("--fault-plan", default=None, metavar="FILE",
                        help="JSON fault plan (e.g. a shrunk chaos repro) "
                             "injected into every repetition; with the "
                             "'chaos' experiment, replays the plan across "
                             "the chaos workload grid instead of soaking")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="export a merged Chrome-trace/Perfetto file "
                             "(spans + substrate counters + fault windows) "
                             "from the first repetition, which re-runs "
                             "instrumented (results are bit-identical; the "
                             "instrumented run bypasses the result cache)")
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="export the same repetition's substrate "
                             "telemetry timeline as JSON (or CSV if FILE "
                             "ends in .csv)")
    parser.add_argument("--output", default="EXPERIMENTS.md",
                        help="output path for 'report'")
    parser.add_argument("--svg-dir", default=None,
                        help="also render the figure's panels as SVG files")
    parser.add_argument("--profile", action="store_true",
                        help="wrap the run in cProfile: print the top "
                             "cumulative hot spots and write profile.pstats "
                             "(forces --jobs 1 so the simulation itself is "
                             "what gets measured)")
    parser.add_argument("--profile-top", type=int, default=25,
                        metavar="N",
                        help="how many hot spots --profile prints "
                             "(default: 25)")
    return parser


def _dispatch(args) -> int:
    """Run the selected experiment under the campaign scope."""
    from repro.experiments.parallel import campaign

    fault_plan = None
    if args.fault_plan is not None:
        from repro.chaos import load_plan

        fault_plan = load_plan(args.fault_plan)
    # Campaign-style invocations default to the cache ON (re-runs skip
    # already-computed cells); --no-cache bypasses it.
    with campaign(jobs=args.jobs, cache=not args.no_cache,
                  cache_dir=args.cache_dir, fault_plan=fault_plan,
                  trace_path=args.trace, metrics_path=args.metrics,
                  fidelity=args.fidelity):
        try:
            if args.experiment == "report":
                from repro.experiments.report import generate

                generate(args.output, runs=args.runs, frames=args.frames,
                         quick=args.quick)
                print(f"wrote {args.output}")
            else:
                names = (None if args.experiment == "all"
                         else [args.experiment])
                run_all(args.quick, names, args.runs, args.frames,
                        args.svg_dir)
        except CampaignError as exc:
            # a gated experiment (the chaos soak, the scenario sweep, the
            # calibration check) fails the invocation
            print(exc, file=sys.stderr)
            return 1
    return 0


def _profiled_dispatch(args) -> int:
    """Run :func:`_dispatch` under cProfile; report hot spots.

    Perf PRs should start from this output, not from guesses: the stats
    land in ``profile.pstats`` (browsable with ``python -m pstats`` or
    snakeviz) and the top-N cumulative entries are printed directly.
    """
    import cProfile
    import pstats

    # Worker processes would hide the simulation from the profiler; the
    # serial path computes the same results (bit-identical, see
    # repro.experiments.parallel) in one profilable process.
    if args.jobs is not None and args.jobs != 1:
        print("--profile forces --jobs 1 (workers are not profiled)")
    args.jobs = 1
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _dispatch(args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.dump_stats("profile.pstats")
        print(f"\n-- top {args.profile_top} cumulative hot spots "
              "(full data: profile.pstats) --")
        stats.sort_stats("cumulative").print_stats(args.profile_top)
    return status


def main(argv=None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    if args.profile_top < 1:
        parser.error(f"argument --profile-top: must be >= 1, "
                     f"got {args.profile_top}")
    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(f"{name:8s} {describe(name)}")
        return 0
    if args.profile:
        return _profiled_dispatch(args)
    return _dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
