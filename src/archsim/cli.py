"""Command-line entry points.

    archsim run --config run.cfg --out results/
    archsim sweep --out sweep_results/ [--config sweep.cfg] [--parallelism 4]
    archsim analyze sweep_results/measurements.csv --out analysis/
    archsim render results/trace.csv --config results/effective_config.txt \
        --step 30 --format ascii

Every command returns 0 on success; ``main`` reports any failure as one
``error:`` line on stderr and returns 1.  A run directory holds the
trace, the per-step summary, the single-row measurement CSV, and an
effective-config sidecar that can be fed back through --config to
reproduce the run exactly.  Every CSV goes through ``table``, in one
dialect and one value format.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analysis, config as configmod, render, table
from .engine import read_trace_csv, run, write_summary_csv, write_trace_csv
from .errors import ArchsimError, ConfigError, DegenerateInputError
from .sweep import (
    measure, read_measurements_csv, run_sweep, write_errors_csv, write_measurements_csv
)
from .world import build_floor


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _config(build, path, **overrides):
    """``build`` over the keys of the config file at ``path`` (None: no
    file) and the flags' ``overrides``.  When the file's keys alone are
    refused, that refusal is reported with the file's name, as a line the
    file cannot parse is; otherwise a flag's value is at fault."""
    values = {} if path is None else configmod.load_config_file(path)
    try:
        return build(values, **overrides)
    except ArchsimError:
        if path is None:
            raise
        try:
            build(values)
        except ArchsimError as exc:
            raise type(exc)(f"{path}: {exc}") from None
        raise


def cmd_run(args) -> int:
    sim_config = _config(configmod.sim_config_from_mapping, args.config, seed=args.seed)
    records = run(sim_config)
    row = measure(sim_config, records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    write_trace_csv(records, out / "trace.csv")
    write_summary_csv(records, out / "summary.csv")
    write_measurements_csv([row], out / "measurement.csv")
    (out / "effective_config.txt").write_text(configmod.dump_config(sim_config))
    last = records[-1]
    print(
        f"run finished: {last.exited_count}/{last.agent_count} exited "
        f"in {last.t} steps; arch_detected={int(row.arch_detected)}"
        + (f" T={row.T} M={row.M} m={row.m}" if row.arch_detected else "")
    )
    return 0


def cmd_sweep(args) -> int:
    sweep_config = _config(configmod.sweep_config_from_mapping, args.config, base_seed=args.seed)

    def progress(done, total, task):
        c, w, rep = task
        print(f"[{done}/{total}] c={c} w={w} replicate={rep}", flush=True)

    rows, errors = run_sweep(
        sweep_config, parallelism=args.parallelism,
        progress=progress if args.verbose else None,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_measurements_csv(rows, out / "measurements.csv")
    table.write_table(out / "sweep_table.csv", table.columns(analysis.CellStats),
                      map(table.row, analysis.aggregate(rows)))
    sidecar = configmod.dump_config(sweep_config)
    sidecar += "# per-run seed = first 8 bytes of sha256('base_seed:c:w:replicate')\n"
    (out / "effective_config.txt").write_text(sidecar)
    if errors:
        write_errors_csv(errors, out / "errors.csv")
        return _fail(f"{len(errors)} of {len(rows) + len(errors)} cells failed "
                     f"(see {out / 'errors.csv'})")
    print(f"sweep finished: {len(rows)} runs -> {out / 'measurements.csv'}")
    return 0


def cmd_analyze(args) -> int:
    rows = read_measurements_csv(args.measurements)
    if not rows:
        return _fail(f"{args.measurements}: no measurement rows")
    try:
        stats = analysis.aggregate(rows)
    except ConfigError as exc:  # rows that do not form one sweep
        raise ConfigError(f"{args.measurements}: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    table.write_table(out / "sweep_table.csv", table.columns(analysis.CellStats),
                      map(table.row, stats))

    means = [(s.c, s.w, s.T_mean) for s in stats if s.n_detected]
    fits = analysis.regression_by_c(
        [(r.c, r.w, r.T) for r in rows if r.arch_detected] if args.per_replicate else means
    )
    table.write_table(
        out / "regression.csv", ["c", *table.columns(analysis.RegressionFit)],
        ([c, *table.row(fit)] for c, fit in sorted(fits.items())),
    )

    try:
        trends = analysis.compute_trends(stats)
        trend_rows = [
            [name, table.value(getattr(trends, name)), trends.n_cells,
             trends.n_saturated_excluded]
            for name in ("T_vs_inverse_cw", "M_vs_c_over_w", "m_vs_cw")
        ]
    except DegenerateInputError:
        trend_rows = []  # too few usable cells: leave header-only trends file
    table.write_table(
        out / "trends.csv", ["trend", "pearson_r", "n_cells", "n_saturated_excluded"],
        trend_rows,
    )

    for c, fit in sorted(fits.items()):
        svg = render.svg_scatter(
            [(w, T) for cell_c, w, T in means if cell_c == c], fit=fit,
            title=f"mean onset time vs exit width, c={c}",
            xlabel="exit width w (cells)", ylabel="mean T (steps)",
        )
        (out / f"T_vs_w_c{c}.svg").write_text(svg)
    print(f"analysis written to {out} ({len(fits)} regression fits)")
    return 0


def cmd_render(args) -> int:
    sim_config = _config(configmod.sim_config_from_mapping, args.config)
    records = read_trace_csv(args.trace)
    step = len(records) - 1 if args.step is None else args.step
    floor = build_floor(sim_config.W, sim_config.L, sim_config.w)
    try:
        if not 0 <= step < len(records):
            raise ArchsimError(f"step {step} outside trace 0..{len(records) - 1}")
        text = (render.ascii_frame(records[step], floor) + "\n" if args.format == "ascii"
                else render.svg_frame(records[step], floor))
    except ArchsimError as exc:
        raise ArchsimError(f"{args.trace}: {exc}") from None
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archsim",
        description="Grid microsimulation of pedestrian egress and exit arching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one crowd and record its trace")
    p_run.add_argument("--config", required=True,
                       help="run config file (key = value lines)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=table.parse_int, help="override the config seed")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the full c x w factorial experiment")
    p_sweep.add_argument("--config", help="sweep config file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--parallelism", type=table.parse_int, default=1,
                         help="worker processes (default 1)")
    p_sweep.add_argument("--seed", type=table.parse_int, help="override base_seed")
    p_sweep.add_argument("--verbose", action="store_true",
                         help="print per-cell progress")
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="aggregate, regress, and plot measurements")
    p_an.add_argument("measurements", help="measurements CSV from a sweep")
    p_an.add_argument("--out", required=True, help="output directory")
    p_an.add_argument("--per-replicate", action="store_true",
                      help="regress raw replicates instead of cell means")
    p_an.set_defaults(func=cmd_analyze)

    p_render = sub.add_parser("render", help="draw one frame of a recorded trace")
    p_render.add_argument("trace", help="trace CSV from a run")
    p_render.add_argument("--config", required=True,
                          help="the run's effective_config.txt (world geometry)")
    p_render.add_argument("--step", type=table.parse_int, help="step to draw (default: last)")
    p_render.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p_render.add_argument("--out", help="output file (default: stdout)")
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArchsimError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
