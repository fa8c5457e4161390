"""Command-line surface: every experiment as a reproducible invocation.

Subcommands: seq (dump sequence points), partition (Kakutani refinement
table), disc (discrepancy curves), symmetrize (one symmetral of a set
file), process (a full run with trace CSV), compare (several sequences
on one seed). All numeric output uses 15 significant digits and runs
are fully determined by argv.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys

from .discrepancy import discrepancy_curve
from .partitions import _refinement_levels, interval_counts, length_classes
from .polygons import save_polygon, steiner_polygon
from .process import (
    BUILTIN_SEEDS,
    RASTER_SEEDS,
    ProcessConfig,
    _fmt,
    _read_set,
    compare_csv,
    compare_sequences,
    run_process,
    trace_csv,
)
from .rasters import GridSpec, RasterSet, _pgm_size, rasterize, steiner_raster, write_pgm
from .sequences import (
    GAMMA,
    _parse_alpha,
    parse_sequence_id,
    sequence_values,
    to_direction,
)


class SystemExit2(Exception):
    """Usage error detected after argparse: exits with status 2."""


#: Bytes that one command may plan to allocate; a size flag whose estimate
#: exceeds it is a usage error, raised before anything is allocated.
MEMORY_BUDGET = 2 << 30
#: Peak bytes per point of `seq`, set by vdc, whose digit loop holds four
#: arrays of the points: about 34 measured at 8 million points, under 10
#: for the other kinds (rows are written as they are formatted).
SEQ_BYTES_PER_POINT = 36
#: Peak bytes per point of `disc`, set by its largest size: about 20
#: measured for kf, kronecker and random, 34 for vdc (10 million points).
DISC_BYTES_PER_POINT = 36
#: Peak bytes per grid cell of a raster run of `process` or `compare`:
#: about 60 measured at 2048² (10 steps of a builtin raster seed, with
#: --perimeter and --frames), 63 at 1024².
PLANE_BYTES_PER_CELL = 64


def _check_budget(flag, value, count, bytes_each, unit="point"):
    need = count * bytes_each
    if need > MEMORY_BUDGET:
        raise SystemExit2(
            f"{flag} {value} needs about {need / 2**30:.1f} GiB "
            f"({bytes_each} B a {unit}), over the "
            f"{MEMORY_BUDGET / 2**30:g} GiB memory budget"
        )


def _check_cells(flag, value, cells, runs):
    unit = "cell" if runs == 1 else f"cell in each of {runs} concurrent runs"
    _check_budget(flag, value, cells * runs, PLANE_BYTES_PER_CELL, unit)


def _check_plane_budget(seed, resolution, grid=None, runs=1):
    """Refuse a seed whose grid, in each of `runs` concurrent runs, would
    not fit the memory budget, and a --grid for any seed but a builtin
    raster seed, the only kind it sizes. A polygon builds no grid from
    these flags: its frames draw at most 256² cells."""
    if seed not in [f"builtin:{name}" for name in RASTER_SEEDS]:
        if grid is not None:
            raise SystemExit2(
                f"--grid sets the grid of a builtin raster seed "
                f"({', '.join(RASTER_SEEDS)}), not of {seed}"
            )
        if not seed.startswith("builtin:"):
            _check_pgm_budget("--seed", seed, runs)
    elif grid is None:
        _check_cells("--resolution", resolution, resolution**2, runs)
    else:
        _check_cells("--grid", f"{grid.nx}x{grid.ny}:{grid.h:g}", grid.nx * grid.ny, runs)


def _check_pgm_budget(flag, path, runs=1):
    """Refuse a PGM file whose grid would not fit the memory budget, from
    its header alone, before a sample is read. Other files pass."""
    size = _pgm_size(path)
    if size is not None:
        nx, ny = size
        _check_cells(flag, f"{path} ({nx}x{ny} cells)", nx * ny, runs)


@contextlib.contextmanager
def _output(out):
    """The text stream of an --out value: stdout for None or '-', else the file."""
    if out is None or out == "-":
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write(text, out):
    with _output(out) as fh:
        fh.write(text)


def _alpha_value(text):
    try:
        return _parse_alpha(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad alpha {text!r}") from exc


def _sequence_spec(args):
    spec = parse_sequence_id(args.kind)
    if getattr(args, "base", None) is not None:
        spec = dataclasses.replace(spec, base=args.base)
    if getattr(args, "alpha", None) is not None:
        spec = dataclasses.replace(spec, alpha=args.alpha)
    return spec


def cmd_seq(args):
    if args.n < 1:
        raise SystemExit2("--n must be at least 1")
    _check_budget("--n", args.n, args.n, SEQ_BYTES_PER_POINT)
    spec = _sequence_spec(args)
    xs = sequence_values(spec, args.n)
    # each row is written as it is formatted, so no point costs a held line
    with _output(args.out) as fh:
        fh.write("k,x,theta\n")
        for k, x in enumerate(xs, start=1):
            fh.write(f"{k},{_fmt(float(x))},{_fmt(math.pi * float(x))}\n")
    return 0


def cmd_partition(args):
    if not 0.0 < args.alpha < 1.0:
        raise SystemExit2(f"--alpha must lie in (0, 1), got {args.alpha}")
    if args.level < 0:
        raise SystemExit2("--level must be nonnegative")
    golden = abs(args.alpha - GAMMA) <= 1e-15
    lines = ["level,t,l,s"]
    levels = _refinement_levels(
        args.alpha, args.level, args.max_intervals,
        "level {level} exceeds the cap of {cap} intervals",
    )
    for level, part in enumerate(levels):
        if golden:
            t, long_n, short_n = interval_counts(part, level)
        else:
            classes = length_classes(part)
            t = part.n_intervals
            if len(classes) == 1:
                long_n, short_n = classes[0][1], 0
            elif len(classes) == 2:
                long_n, short_n = classes[0][1], classes[1][1]
            else:
                long_n = short_n = None
        lines.append(f"{level},{t},{_fmt(long_n)},{_fmt(short_n)}")
    _write("\n".join(lines) + "\n", args.out)
    if args.dump_breakpoints:
        text = "\n".join(_fmt(b) for b in part.breakpoints) + "\n"
        _write(text, args.dump_breakpoints)
    return 0


def cmd_disc(args):
    try:
        ns = [int(tok) for tok in args.ns.split(",") if tok]
    except ValueError as exc:
        raise SystemExit2(f"bad --ns list {args.ns!r}") from exc
    if not ns:
        raise SystemExit2("--ns must list at least one size")
    if min(ns) < 2:
        raise SystemExit2("--ns sizes must be at least 2")
    _check_budget("--ns", max(ns), max(ns), DISC_BYTES_PER_POINT)
    spec = _sequence_spec(args)
    rows = discrepancy_curve(spec, ns, include_extreme=args.extreme)
    lines = ["N,d_star,d_extreme,normalized"]
    for row in rows:
        lines.append(
            f"{row['N']},{_fmt(row['d_star'])},{_fmt(row['d_extreme'])},"
            f"{_fmt(row['normalized'])}"
        )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_symmetrize(args):
    _check_pgm_budget("--in", args.infile)
    shape = _read_set(args.infile)
    theta = args.theta if args.theta is not None else to_direction(args.x).theta
    if isinstance(shape, RasterSet):
        write_pgm(args.out, steiner_raster(shape, theta), binary=not args.ascii)
    else:
        save_polygon(args.out, steiner_polygon(shape, theta))
    return 0


def _parse_grid(text):
    # WxH:h, e.g. 512x512:0.005
    try:
        dims, h = text.split(":")
        nx, ny = dims.lower().split("x")
        return GridSpec(nx=int(nx), ny=int(ny), h=float(h))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad grid spec {text!r}, expected WxH:h"
        ) from exc


def _frame_writer(outdir, resolution):
    def callback(step, current):
        path = os.path.join(outdir, f"frame_{step}.pgm")
        if isinstance(current, RasterSet):
            write_pgm(path, current)
        else:
            grid = GridSpec.cover(max(current.circumradius(), 1e-9), n=resolution)
            write_pgm(path, rasterize(current, grid))

    return callback


def cmd_process(args):
    if args.resolution < 1:
        raise SystemExit2("--resolution must be at least 1")
    _check_plane_budget(args.seed, args.resolution, args.grid)
    cfg = ProcessConfig(
        sequence=args.kind,
        seed=args.seed,
        steps=args.steps,
        cadence=args.cadence,
        resolution=args.resolution,
        grid=args.grid,
        with_hausdorff=args.hausdorff,
        with_perimeter=args.perimeter,
    )
    os.makedirs(args.out, exist_ok=True)
    callback = None
    if args.frames:
        callback = _frame_writer(args.out, min(args.resolution, 256))
    result = run_process(cfg, callback=callback)
    path = os.path.join(args.out, "trace.csv")
    _write(trace_csv(result.records), path)
    return 0


def cmd_compare(args):
    if args.resolution < 1:
        raise SystemExit2("--resolution must be at least 1")
    if args.jobs < 1:
        raise SystemExit2("--jobs must be at least 1")
    ids = [tok for tok in args.kinds.split(",") if tok]
    if len(ids) < 2:
        raise SystemExit2("--kinds must list at least two sequence ids")
    _check_plane_budget(args.seed, args.resolution, runs=min(args.jobs, len(ids)))
    os.makedirs(args.out, exist_ok=True)
    ids, rows = compare_sequences(
        args.seed,
        ids,
        steps=args.steps,
        cadence=args.cadence,
        resolution=args.resolution,
        jobs=args.jobs,
    )
    _write(compare_csv(ids, rows), os.path.join(args.out, "compare.csv"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kfsteiner",
        description=(
            "Golden-ratio splitting sequences, discrepancy, and planar "
            "symmetrization experiments"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="dump the first N points of a sequence")
    p.add_argument("--kind", required=True,
                   help="kf | vdc | kronecker | constant:x | geomdecay:a:r | "
                        "random[:seed] | file:PATH")
    p.add_argument("--n", type=int, required=True, help="number of points (>= 1)")
    p.add_argument("--base", type=int, help="van der Corput base (default 2)")
    p.add_argument("--alpha", type=_alpha_value,
                   help="Kronecker multiplier; the literal 'gamma' is accepted")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("partition", help="Kakutani refinement count table")
    p.add_argument("--alpha", type=_alpha_value, required=True,
                   help="splitting ratio in (0, 1); 'gamma' accepted")
    p.add_argument("--level", type=int, required=True, help="final refinement level")
    p.add_argument("--max-intervals", type=int, default=10_000_000)
    p.add_argument("--dump-breakpoints", metavar="PATH",
                   help="also write the final level's breakpoints, one per line")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("disc", help="discrepancy growth table")
    p.add_argument("--kind", required=True, help="sequence id (see seq)")
    p.add_argument("--ns", required=True, help="comma-separated sample sizes")
    p.add_argument("--base", type=int, help="van der Corput base")
    p.add_argument("--alpha", type=_alpha_value, help="Kronecker multiplier")
    p.add_argument("--extreme", action="store_true",
                   help="also compute the two-sided discrepancy (N <= 1e6)")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_disc)

    p = sub.add_parser("symmetrize", help="one symmetral of a polygon or PGM set")
    p.add_argument("--in", dest="infile", required=True, help="input set file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=float, help="direction angle in radians")
    group.add_argument("--x", type=float, help="sequence value; theta = pi * x")
    p.add_argument("--out", required=True, help="output file (same format)")
    p.add_argument("--ascii", action="store_true", help="write P2 instead of P5")
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("process", help="run a symmetrization process")
    p.add_argument("--seed", required=True,
                   help=f"builtin:NAME ({', '.join(BUILTIN_SEEDS)}) or a file path")
    p.add_argument("--kind", required=True, help="sequence id (see seq)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--cadence", type=int, default=1, help="record every k steps")
    p.add_argument("--grid", type=_parse_grid, help="raster grid as WxH:h")
    p.add_argument("--resolution", type=int, default=512,
                   help="raster grid cells per axis for builtin seeds")
    p.add_argument("--hausdorff", action="store_true",
                   help="also record the Hausdorff distance to the ball (polygon)")
    p.add_argument("--perimeter", action="store_true",
                   help="also record the perimeter diagnostic")
    p.add_argument("--frames", action="store_true",
                   help="dump frame_<step>.pgm at every recorded step")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("compare", help="run several sequences on one seed")
    p.add_argument("--seed", required=True)
    p.add_argument("--kinds", required=True, help="comma-separated sequence ids")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--cadence", type=int, default=1)
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--jobs", type=int, default=1, help="concurrent runs")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
