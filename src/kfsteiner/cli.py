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
import math
import os
import sys

from .discrepancy import discrepancy_curve
from .partitions import MAX_INTERVALS, _refinement_levels, interval_counts, length_classes
from .polygons import save_polygon, steiner_polygon
from .process import (
    BUILTIN_SEEDS,
    RASTER_SEEDS,
    ProcessConfig,
    _csv,
    _fmt,
    _naming,
    _read_set,
    compare_csv,
    compare_sequences,
    run_process,
    trace_csv,
)
from .rasters import GridSpec, RasterSet, _pgm_size, rasterize, steiner_raster, write_pgm
from .sequences import GAMMA, _parse_alpha, sequence_values, to_direction


class SystemExit2(Exception):
    """Usage error detected after argparse: exits with status 2."""


#: Bytes that one command may plan to allocate; a size flag whose estimate
#: exceeds it is a usage error, raised before anything is allocated.
MEMORY_BUDGET = 2 << 30
#: Peak bytes per point of `seq`, set by vdc, whose digit loop holds three
#: arrays of the points: 24.0 measured at 1, 3 and 10 million points above
#: the interpreter's 30 MB (259 MB in all at 10 million); 16.1 for
#: kronecker, 8.6 for random and 8.0 for kf (rows are written as they are
#: formatted).
SEQ_BYTES_PER_POINT = 26
#: Peak bytes per point of `disc`, set by vdc: 24.0 measured at 10 million
#: points with or without --extreme and 24.3 at a million with it; 16-17
#: for kf and kronecker and at most 22.5 for random (1, 3 and 10 million
#: points).
DISC_BYTES_PER_POINT = 26
#: Peak bytes per interval of `partition` at its last level: at most 35.8
#: measured (golden levels 29-33, alpha 0.5 at levels 20-21 and 0.3 at
#: level 250, 1.3 to 9.2 million intervals), where the level's breakpoints,
#: its lengths and one deviation array of `interval_counts` are held.
PARTITION_BYTES_PER_INTERVAL = 40
#: Peak bytes per grid cell of a raster run of `process` or `compare`:
#: about 60 measured at 2048² (10 steps of a builtin raster seed, with
#: --perimeter and --frames), 63 at 1024².
PLANE_BYTES_PER_CELL = 64


def _check_budget(flag, value, count, bytes_each, unit="point"):
    need = count * bytes_each
    if need > MEMORY_BUDGET:
        article = "an" if unit[0] in "aeiou" else "a"
        raise SystemExit2(
            f"{flag} {value} needs about {need / 2**30:.1f} GiB "
            f"({bytes_each} B {article} {unit}), over the "
            f"{MEMORY_BUDGET / 2**30:g} GiB memory budget"
        )


def _check_cells(flag, value, cells, runs):
    unit = "cell" if runs == 1 else f"cell in each of {runs} concurrent runs"
    _check_budget(flag, value, cells * runs, PLANE_BYTES_PER_CELL, unit)


def _check_plane_budget(seed, resolution, runs=1):
    """Refuse a seed whose grid, in each of `runs` concurrent runs, would
    not fit the memory budget, and return whether the seed is a raster.
    A polygon builds no grid from --resolution: its frames draw at most
    256² cells."""
    if seed in [f"builtin:{name}" for name in RASTER_SEEDS]:
        _check_cells("--resolution", resolution, resolution**2, runs)
        return True
    return not seed.startswith("builtin:") and _check_pgm_budget("--seed", seed, runs)


def _check_pgm_budget(flag, path, runs=1):
    """Refuse a PGM file whose grid would not fit the memory budget, from
    its header alone, before a sample is read, and return whether the
    file is a PGM. Other files pass."""
    size = _pgm_size(path)
    if size is not None:
        nx, ny = size
        _check_cells(flag, f"{path} ({nx}x{ny} cells)", nx * ny, runs)
    return size is not None


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


def _out_file(outdir, name):
    """Path of the file `name` in `outdir`, which is made here, when its
    first file is written, so no input error leaves it behind."""
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _alpha_value(text):
    try:
        return _parse_alpha(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad alpha {text!r}") from exc


def cmd_seq(args):
    if args.n < 1:
        raise SystemExit2("--n must be at least 1")
    _check_budget("--n", args.n, args.n, SEQ_BYTES_PER_POINT)
    xs = sequence_values(args.kind, args.n)
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
    _check_budget("--max-intervals", args.max_intervals, args.max_intervals,
                  PARTITION_BYTES_PER_INTERVAL, "interval")
    golden = abs(args.alpha - GAMMA) <= 1e-15
    rows = []
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
        rows.append((level, t, long_n, short_n))
    _write(_csv(("level", "t", "l", "s"), rows), args.out)
    if args.dump_breakpoints:
        # each line is written as it is formatted, so no breakpoint costs a held line
        with _output(args.dump_breakpoints) as fh:
            for b in part.breakpoints:
                fh.write(_fmt(b) + "\n")
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
    cols = ("N", "d_star", "d_extreme", "normalized")
    rows = discrepancy_curve(args.kind, ns, include_extreme=args.extreme)
    _write(_csv(cols, ([row[c] for c in cols] for row in rows)), args.out)
    return 0


def cmd_symmetrize(args):
    _check_pgm_budget("--in", args.infile)
    shape = _read_set(args.infile)
    if args.ascii and not isinstance(shape, RasterSet):
        raise SystemExit2(f"--ascii needs a PGM raster; {args.infile} is a polygon")
    theta = args.theta if args.theta is not None else to_direction(args.x)
    with _naming(args.infile):
        if isinstance(shape, RasterSet):
            write_pgm(args.out, steiner_raster(shape, theta), binary=not args.ascii)
        else:
            save_polygon(args.out, steiner_polygon(shape, theta))
    return 0


def _frame_writer(outdir, resolution, written):
    def callback(step, current):
        # the frame is drawn before --out is made, so a failed draw leaves nothing
        if not isinstance(current, RasterSet):
            grid = GridSpec.cover(max(current.circumradius(), 1e-9), n=resolution)
            current = rasterize(current, grid)
        written.append(_out_file(outdir, f"frame_{step}.pgm"))
        write_pgm(written[-1], current)

    return callback


def _check_run_flags(args):
    for flag, value in (("--steps", args.steps), ("--cadence", args.cadence)):
        if value < 1:
            raise SystemExit2(f"{flag} must be at least 1, got {value}")
    # --out is made only at the first file written, so check it before the run
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise SystemExit2(f"--out {args.out} is not a directory")


def cmd_process(args):
    if args.resolution < 1:
        raise SystemExit2("--resolution must be at least 1")
    _check_run_flags(args)
    if _check_plane_budget(args.seed, args.resolution) and args.hausdorff:
        raise SystemExit2(f"--hausdorff needs a polygon seed; {args.seed} is a raster")
    cfg = ProcessConfig(
        sequence=args.kind,
        seed=args.seed,
        steps=args.steps,
        cadence=args.cadence,
        resolution=args.resolution,
        with_hausdorff=args.hausdorff,
        with_perimeter=args.perimeter,
    )
    made, written = not os.path.exists(args.out), []
    callback = None
    if args.frames:
        callback = _frame_writer(args.out, min(args.resolution, 256), written)
    try:
        result = run_process(cfg, callback=callback)
    except Exception:
        # a failed run leaves no frame behind, nor an --out that it made
        for path in written:  # the last may have failed before its file was made
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        if made:
            with contextlib.suppress(OSError):
                os.rmdir(args.out)
        raise
    _write(trace_csv(result.records), _out_file(args.out, "trace.csv"))
    return 0


def cmd_compare(args):
    if args.resolution < 1:
        raise SystemExit2("--resolution must be at least 1")
    if args.jobs < 1:
        raise SystemExit2("--jobs must be at least 1")
    _check_run_flags(args)
    ids = [tok for tok in args.kinds.split(",") if tok]
    if len(ids) < 2:
        raise SystemExit2("--kinds must list at least two sequence ids")
    _check_plane_budget(args.seed, args.resolution, runs=min(args.jobs, len(ids)))
    ids, rows = compare_sequences(
        args.seed,
        ids,
        steps=args.steps,
        cadence=args.cadence,
        resolution=args.resolution,
        jobs=args.jobs,
    )
    _write(compare_csv(ids, rows), _out_file(args.out, "compare.csv"))
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
                   help="kf | vdc[:base] | kronecker[:alpha] | constant:x | "
                        "geomdecay:a:r | random[:seed] | file:PATH")
    p.add_argument("--n", type=int, required=True, help="number of points (>= 1)")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("partition", help="Kakutani refinement count table")
    p.add_argument("--alpha", type=_alpha_value, required=True,
                   help="splitting ratio in (0, 1); 'gamma' accepted")
    p.add_argument("--level", type=int, required=True, help="final refinement level")
    p.add_argument("--max-intervals", type=int, default=MAX_INTERVALS)
    p.add_argument("--dump-breakpoints", metavar="PATH",
                   help="also write the final level's breakpoints, one per line")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("disc", help="discrepancy growth table")
    p.add_argument("--kind", required=True, help="sequence id (see seq)")
    p.add_argument("--ns", required=True, help="comma-separated sample sizes")
    p.add_argument("--extreme", action="store_true",
                   help="also compute the two-sided discrepancy")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_disc)

    p = sub.add_parser("symmetrize", help="one symmetral of a polygon or PGM set")
    p.add_argument("--in", dest="infile", required=True, help="input set file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=float, help="direction angle in radians")
    group.add_argument("--x", type=float, help="sequence value; theta = pi * x")
    p.add_argument("--out", required=True, help="output file (same format)")
    p.add_argument("--ascii", action="store_true", help="write P2, not P5; PGM only")
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("process", help="run a symmetrization process")
    p.add_argument("--seed", required=True,
                   help=f"builtin:NAME ({', '.join(BUILTIN_SEEDS)}) or a file path")
    p.add_argument("--kind", required=True, help="sequence id (see seq)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--cadence", type=int, default=1, help="record every k steps")
    p.add_argument("--resolution", type=int, default=512,
                   help="raster grid cells per axis for builtin seeds")
    p.add_argument("--hausdorff", action="store_true",
                   help="also record the Hausdorff distance to the ball; "
                        "polygon seeds only")
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
