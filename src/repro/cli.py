"""Command-line interface for the reproduction experiments.

Every evaluation figure is a registered scenario, run by name through
:func:`repro.api.run`; two extra subcommands cover what is not a scenario
(the Section 3 characterization and the Section 6.2 microbenchmarks)::

    python -m repro.cli run-scenario --list
    python -m repro.cli run-scenario fig15-durability --scale tiny
    python -m repro.cli --seed 3 run-scenario fig13-dc9-sweep --workers 2
    python -m repro.cli characterize --scale 0.05
    python -m repro.cli microbench

(With the package installed, ``repro <subcommand>`` works as well.)
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

import repro.api as api
from repro.analysis import characterize_fleet
from repro.analysis.cdf import fraction_at_or_below
from repro.experiments.microbench import run_microbenchmarks
from repro.harness import get_scenario, iter_scenarios
from repro.harness.report import format_table
from repro.harness.results import epoch_record
from repro.harness.snapshot import CheckpointPause
from repro.simulation.random import RandomSource
from repro.traces import build_fleet
from repro.traces.utilization import UtilizationPattern


def cmd_characterize(args: argparse.Namespace) -> str:
    """Section 3 characterization across the fleet (Figures 2-6)."""
    rng = RandomSource(args.seed)
    fleet = build_fleet(rng, scale=args.scale)
    results = characterize_fleet(fleet, months=args.months, rng=rng)
    rows = []
    for name in sorted(results):
        r = results[name]
        rows.append([
            name,
            f"{100 * r.tenant_fraction_by_pattern[UtilizationPattern.PERIODIC]:.0f}%",
            f"{100 * r.server_fraction_by_pattern[UtilizationPattern.PERIODIC]:.0f}%",
            f"{100 * r.predictable_server_fraction():.0f}%",
            f"{100 * fraction_at_or_below(r.per_server_reimages_per_month, 1.0):.0f}%",
        ])
    return format_table(
        ["DC", "periodic tenants", "periodic servers", "predictable servers",
         "servers <=1 reimage/mo"],
        rows,
        title="Fleet characterization",
    )


def cmd_microbench(args: argparse.Namespace) -> str:
    """Policy-operation latencies (Section 6.2)."""
    result = run_microbenchmarks(seed=args.seed)
    return format_table(
        ["operation", "measured"],
        [
            ["clustering (per run)", f"{result.clustering_seconds:.3f} s"],
            ["utilization classes", result.num_classes],
            ["class selection (per job)", f"{result.class_selection_ms:.3f} ms"],
            ["history placement (per block)", f"{result.placement_ms:.3f} ms"],
            ["stock placement (per block)", f"{result.stock_placement_ms:.3f} ms"],
        ],
        title="Microbenchmarks",
    )


def _report_profile(profiler, destination: str) -> None:
    """Dump cProfile stats to a file, or the top hot paths to stderr.

    The profile goes to stderr so ``--json`` output stays parseable.
    """
    import pstats
    import sys as _sys

    if destination != "-":
        profiler.dump_stats(destination)
        print(f"profile written to {destination}", file=_sys.stderr)
        return
    stats = pstats.Stats(profiler, stream=_sys.stderr)
    stats.strip_dirs().sort_stats("cumulative").print_stats(25)


def cmd_scenario(args: argparse.Namespace) -> str:
    """Run any registered scenario by name (or list them)."""
    profile = args.profile
    if not args.name and profile not in (None, "-"):
        # `run-scenario --profile fig12-...` parses the scenario name as
        # --profile's PATH operand; fail loudly instead of listing scenarios.
        try:
            get_scenario(profile)
        except KeyError:
            pass
        else:
            raise SystemExit(
                f"error: {profile!r} was parsed as --profile's PATH; put the "
                "scenario name first: repro run-scenario <name> --profile [PATH]"
            )
    if args.list or not args.name:
        if args.json:
            return json.dumps(
                [
                    {
                        "scenario": spec.name,
                        "kind": spec.kind,
                        "figure": spec.figure,
                        "description": spec.description,
                    }
                    for spec in iter_scenarios()
                ],
                indent=2,
            )
        rows = [
            [spec.name, spec.kind, spec.figure or "-", spec.description]
            for spec in iter_scenarios()
        ]
        return format_table(
            ["scenario", "kind", "figure", "description"],
            rows,
            title="Registered scenarios",
        )
    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        raise SystemExit(f"error: {error.args[0]}") from None
    epochs_arg = args.epochs
    epoch_seconds_arg = args.epoch_seconds
    max_sim_arg = args.max_sim_seconds
    emit_epochs = args.emit_epochs
    if epochs_arg is not None and epochs_arg < 0:
        raise SystemExit("error: --epochs must be >= 0 (0 = run forever)")
    if epoch_seconds_arg is not None and epoch_seconds_arg <= 0:
        raise SystemExit("error: --epoch-seconds must be a positive number")
    if max_sim_arg is not None and max_sim_arg <= 0:
        raise SystemExit("error: --max-sim-seconds must be a positive number")
    if epochs_arg == 0 and max_sim_arg is None:
        raise SystemExit(
            "error: --epochs 0 (run forever) requires --max-sim-seconds "
            "as the horizon"
        )
    if max_sim_arg is not None and epochs_arg != 0:
        raise SystemExit("error: --max-sim-seconds requires --epochs 0")
    continuous_flags = (
        args.traffic,
        epochs_arg,
        epoch_seconds_arg,
        max_sim_arg,
        emit_epochs,
    )
    if spec.kind != "continuous" and any(f is not None for f in continuous_flags):
        raise SystemExit(
            "error: --traffic/--epochs/--epoch-seconds/--max-sim-seconds/"
            "--emit-epochs apply only to continuous scenarios "
            f"({spec.name} is kind {spec.kind!r})"
        )
    if args.workload:
        # Validate eagerly so a typo'd distribution fails before any build.
        from repro.workload.spec import parse_workload

        try:
            parse_workload(args.workload)
        except ValueError as error:
            raise SystemExit(f"error: {error}") from None
    if args.skew:
        from repro.workload.distributions import parse_skew

        try:
            parse_skew(args.skew)
        except ValueError as error:
            raise SystemExit(f"error: {error}") from None
    if args.traffic:
        from repro.harness.traffic import parse_traffic

        try:
            parse_traffic(args.traffic)
        except ValueError as error:
            raise SystemExit(f"error: {error}") from None
    if args.record_trace and args.replay_trace:
        raise SystemExit("error: cannot record and replay a trace in the same run")
    if args.replay_trace:
        from repro.workload.trace import read_trace_header

        try:
            read_trace_header(args.replay_trace)
        except (OSError, ValueError) as error:
            raise SystemExit(f"error: {error}") from None
    # Every set flag becomes a spec override; unknown keys route into the
    # spec's params (see api.resolve).
    overrides = {
        key: value
        for key, value in (
            ("scale", args.scale),
            ("workload", args.workload),
            ("skew", args.skew),
            ("record_trace", args.record_trace),
            ("replay_trace", args.replay_trace),
            ("traffic", args.traffic),
            ("epochs", epochs_arg),
            ("epoch_seconds", epoch_seconds_arg),
            ("max_sim_seconds", max_sim_arg),
        )
        if value not in (None, "")
    } or None
    if args.list_cells:
        return _render_cells(api.resolve(spec, overrides), args)
    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("error: --resume requires --checkpoint-dir")
    if args.stop_after_cells is not None:
        if args.stop_after_cells < 1:
            raise SystemExit("error: --stop-after-cells must be >= 1")
        if not args.checkpoint_dir:
            raise SystemExit("error: --stop-after-cells requires --checkpoint-dir")
    run_kwargs = dict(
        overrides=overrides,
        workers=args.workers,
        seed=args.seed,
        checkpoint=args.checkpoint_dir,
        resume=args.resume,
        stop_after_cells=args.stop_after_cells,
    )
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
    emit_handle = None
    if emit_epochs:
        # Incremental epoch stream: one JSONL line per finalized epoch,
        # flushed as it lands, so a paused (exit code 3) or crashed run
        # leaves every epoch it completed on disk.
        emit_handle = open(emit_epochs, "w")

        def _emit(variant: str, metrics: "api.EpochMetrics") -> None:
            record = epoch_record(variant, metrics)
            emit_handle.write(json.dumps(record, sort_keys=True) + "\n")
            emit_handle.flush()

    try:
        if profiler is not None:
            if emit_handle is not None:
                result = profiler.runcall(
                    api.run_continuous, spec, on_epoch=_emit, **run_kwargs
                )
            else:
                result = profiler.runcall(api.run, spec, **run_kwargs)
            _report_profile(profiler, args.profile)
        elif emit_handle is not None:
            result = api.run_continuous(spec, on_epoch=_emit, **run_kwargs)
        else:
            result = api.run(spec, **run_kwargs)
    except CheckpointPause as pause:
        import sys as _sys

        print(pause, file=_sys.stderr)
        raise SystemExit(3) from None
    finally:
        if emit_handle is not None:
            emit_handle.close()
    if args.json:
        return json.dumps(result.to_jsonable(), indent=2, sort_keys=True)
    return result.render()


def _render_cells(spec: "api.ScenarioSpec", args: argparse.Namespace) -> str:
    """The scenario's cell grid, enumerated from the spec alone.

    Uses :func:`repro.api.cells_from_spec`, which replays the runner's fork
    arithmetic without building any fleet — the listing is instant even for
    scenarios whose preparation takes minutes.
    """
    cells = api.cells_from_spec(spec, seed=args.seed)
    if args.json:
        return json.dumps(
            [
                {
                    "index": cell.index,
                    "key": cell.key,
                    "seeds": list(cell.seeds),
                    "coords": dict(cell.coords),
                }
                for cell in cells
            ],
            indent=2,
            sort_keys=True,
        )
    rows = [
        [
            cell.index,
            cell.key,
            ",".join(str(seed) for seed in cell.seeds),
            ",".join(f"{k}={v}" for k, v in sorted(cell.coords.items())),
        ]
        for cell in cells
    ]
    return format_table(
        ["index", "cell", "seeds", "coords"],
        rows,
        title=f"Cells of {spec.name} ({len(cells)})",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("characterize", help="Section 3 characterization")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--months", type=int, default=12)
    p.set_defaults(func=cmd_characterize)

    p = subparsers.add_parser("microbench", help="Section 6.2 microbenchmarks")
    p.set_defaults(func=cmd_microbench)

    p = subparsers.add_parser(
        "run-scenario",
        help="run any registered scenario by name",
        epilog=(
            "exit codes: 0 on success; 3 when the run checkpointed and "
            "deliberately paused (--stop-after-cells reached, state saved "
            "under --checkpoint-dir; rerun with --resume to finish)."
        ),
    )
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list registered scenarios")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the result (plus wall-clock) as JSON instead of a table",
    )
    p.add_argument(
        "--scale",
        choices=["quick", "bench", "tiny"],
        default=None,
        help="override the scenario's registered experiment scale",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run the scenario's cell grid on N worker processes "
            "(bit-identical to the serial run; 1 = in-process)"
        ),
    )
    p.add_argument(
        "--profile",
        metavar="PATH",
        nargs="?",
        const="-",
        default=None,
        help=(
            "run under cProfile; dump stats to PATH, or print the top 25 "
            "hottest functions to stderr when PATH is omitted"
        ),
    )
    p.add_argument(
        "--checkpoint-dir",
        dest="checkpoint_dir",
        metavar="DIR",
        default=None,
        help=(
            "record run progress in DIR (context snapshot + one file per "
            "completed cell) so an interrupted run can be resumed"
        ),
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from --checkpoint-dir: restore the prepared context and "
            "completed cells instead of rebuilding (bit-identical result)"
        ),
    )
    p.add_argument(
        "--stop-after-cells",
        dest="stop_after_cells",
        type=int,
        default=None,
        metavar="N",
        help=(
            "checkpoint and deliberately pause (exit code 3) after N cells; "
            "requires --checkpoint-dir"
        ),
    )
    p.add_argument(
        "--list-cells",
        dest="list_cells",
        action="store_true",
        help=(
            "enumerate the scenario's cell grid from the spec alone "
            "(no fleet build) and exit"
        ),
    )
    p.add_argument(
        "--traffic",
        metavar="SPEC",
        default=None,
        help=(
            "continuous scenarios: arrival process, e.g. "
            "'open:rate=0.005,profile=diurnal' or 'closed:users=4,think=300' "
            "(see repro.harness.traffic.parse_traffic)"
        ),
    )
    p.add_argument(
        "--workload",
        metavar="SPEC",
        default=None,
        help=(
            "workload-substrate scenarios: synthetic workload overrides, "
            "';'-separated key=value pairs, e.g. "
            "'interarrival=exponential:mean=120;stages=integer_range:low=2,high=5' "
            "(see repro.workload.parse_workload)"
        ),
    )
    p.add_argument(
        "--skew",
        metavar="SPEC",
        default=None,
        help=(
            "storage scenarios: block-access skew sampler, e.g. "
            "'zipf:alpha=1.2', 'hotspot:hot_fraction=0.1,hot_weight=0.9', "
            "or 'uniform' (see repro.workload.parse_skew)"
        ),
    )
    p.add_argument(
        "--record-trace",
        dest="record_trace",
        metavar="PATH",
        default=None,
        help=(
            "workload-substrate scenarios: serialize the run's generated "
            "op plan to PATH as a versioned JSONL trace"
        ),
    )
    p.add_argument(
        "--replay-trace",
        dest="replay_trace",
        metavar="PATH",
        default=None,
        help=(
            "workload-substrate scenarios: drive the run from a recorded "
            "trace instead of the synthetic generators (bit-identical to "
            "the recorded run)"
        ),
    )
    p.add_argument(
        "--epochs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "continuous scenarios: run for N metric windows and emit one "
            "row of windowed metrics per epoch; 0 runs forever (requires "
            "--max-sim-seconds as the horizon)"
        ),
    )
    p.add_argument(
        "--epoch-seconds",
        dest="epoch_seconds",
        type=float,
        default=None,
        metavar="S",
        help="continuous scenarios: length of one metric window in seconds",
    )
    p.add_argument(
        "--max-sim-seconds",
        dest="max_sim_seconds",
        type=float,
        default=None,
        metavar="S",
        help=(
            "continuous scenarios with --epochs 0: stop the run-forever "
            "simulation after S simulated seconds (the trailing partial "
            "window still emits an epoch)"
        ),
    )
    p.add_argument(
        "--emit-epochs",
        dest="emit_epochs",
        metavar="PATH",
        default=None,
        help=(
            "continuous scenarios: append one JSONL record per finalized "
            "epoch to PATH as the run progresses (schema: "
            "repro.harness.results.epoch_record)"
        ),
    )
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(args.func(args))
    except BrokenPipeError:  # e.g. `repro ... | head` closing the pipe early
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
