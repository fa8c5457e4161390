"""Each refusal that no other test reaches, with its message."""

import argparse
import re

import numpy as np
import pytest

from kfsteiner import cli
from kfsteiner.metrics import d1_to_ball, moment_of_inertia
from kfsteiner.partitions import kakutani_level
from kfsteiner.polygons import ConvexPolygon, steiner_polygon
from kfsteiner.rasters import GridSpec, RasterSet, _fill_intervals, rasterize, read_pgm
from kfsteiner.sequences import (
    GAMMA,
    checkpoint_index,
    kf_point,
    kronecker_point,
    kronecker_points,
    sequence_values,
    vdc_point,
)


def pgm_file(tmp_path, data):
    path = tmp_path / "set"
    path.write_bytes(data)
    return path


def polygon_file(tmp_path, *rows):
    """A polygon text file of the given 'x y' rows."""
    path = tmp_path / "set"
    path.write_text("".join(f"{row}\n" for row in rows))
    return str(path)


def far_triangle(tmp_path):
    """A triangle of height 1e-7 at 1e9 from the origin: its first
    symmetral holds, and every chord of its second rounds to zero."""
    return polygon_file(tmp_path, "1000000000 0", "1000000001 0", "1000000000.5 1e-07")


def far_hexagon(tmp_path):
    """The hexagon of radius 0.5 centred at (1e10, 0). Its symmetrals
    hold, but drawn back at 1e10 from the origin their shoelace sum keeps
    no digit of the area."""
    return polygon_file(tmp_path, "10000000000.5 0", "10000000000.25 0.433012701892219",
                        "9999999999.75 0.433012701892219", "9999999999.5 6.12323399573677e-17",
                        "9999999999.75 -0.433012701892219", "10000000000.25 -0.433012701892219")


def cli_call(*argv):
    """The subcommand of argv as the cli runs it, its errors raised."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


#: name: (call of tmp_path, the exception it raises, its message; {tmp}
#: stands for the file's path)
REFUSALS = {
    "read_pgm-p2-sample-count": (
        lambda tmp: read_pgm(pgm_file(tmp, b"P2\n2 2\n10\n0 1 2\n")),
        ValueError, "{tmp}: expected 4 samples, got 3"),
    "read_pgm-not-pgm": (
        lambda tmp: read_pgm(pgm_file(tmp, b"0 0\n1 0\n0 1\n")),
        ValueError, "{tmp}: not a P2/P5 PGM file"),
    "rasterset-non-finite": (
        lambda tmp: RasterSet(np.full((2, 2), np.nan), GridSpec(nx=2, ny=2, h=1.0)),
        ValueError, "occupancy must be finite"),
    "fill_intervals-too-long": (
        lambda tmp: _fill_intervals(np.zeros((4, 3)), np.array([0.0, 2.5, 0.0])),
        ValueError, "a column interval of length 5 cells exceeds the grid; "
                    "rebuild on a larger grid"),
    "gridspec-cover-radius-0": (
        lambda tmp: GridSpec.cover(0.0), ValueError, "content radius must be positive"),
    "rasterize-unknown-shape": (
        lambda tmp: rasterize("disk", GridSpec(nx=2, ny=2, h=1.0)),
        TypeError, "cannot rasterize str"),
    "steiner_polygon-degenerate": (
        lambda tmp: steiner_polygon(ConvexPolygon([(0, 0), (1e-7, 0), (0, 1e-7)]), 0.3),
        ValueError, f"degenerate polygon with area {0.5 * 1e-7 * 1e-7!r}"),
    "moment_of_inertia-unknown-type": (
        lambda tmp: moment_of_inertia("disk"), TypeError, "no moment for str"),
    "d1_to_ball-unknown-type": (
        lambda tmp: d1_to_ball("disk"), TypeError, "no d1_to_ball for str"),
    "kakutani_level-negative": (
        lambda tmp: kakutani_level(GAMMA, -1), ValueError, "level must be nonnegative, got -1"),
    "sequence_values-negative-count": (
        lambda tmp: sequence_values("kf", -1), ValueError, "count must be nonnegative"),
    "kf_point-index-0": (
        lambda tmp: kf_point(0), ValueError, "sequence index must be >= 1, got 0"),
    "checkpoint_index-order-0": (
        lambda tmp: checkpoint_index(0), ValueError, "checkpoint order must be >= 1, got 0"),
    "vdc_point-index-0": (lambda tmp: vdc_point(0), ValueError, "index must be >= 1, got 0"),
    "kronecker_point-index-0": (
        lambda tmp: kronecker_point(0), ValueError, "index must be >= 1, got 0"),
    "kronecker_points-overflow": (
        lambda tmp: kronecker_points(3, 1e308), ValueError,
        "kronecker alpha 1e+308 is too large: k * alpha overflows within the first 3 values"),
    "kronecker_points-non-finite": (
        lambda tmp: kronecker_points(3, float("nan")), ValueError,
        "kronecker alpha must be finite, got nan"),
    "cli-partition-alpha-word": (
        lambda tmp: cli._alpha_value("x"), argparse.ArgumentTypeError, "bad alpha 'x'"),
    "process-profile-area-zero-mid-run": (
        lambda tmp: cli_call("process", "--seed", far_triangle(tmp), "--kind", "kf",
                             "--steps", "6", "--out", str(tmp / "out")),
        ValueError, "{tmp}: the symmetral's section profile has area 0.0, "
                    "not a finite positive number"),
    "compare-profile-area-zero-mid-run": (
        lambda tmp: cli_call("compare", "--seed", far_triangle(tmp), "--kinds", "kf,vdc",
                             "--steps", "6", "--out", str(tmp / "out")),
        ValueError, "{tmp}: the symmetral's section profile has area 0.0, "
                    "not a finite positive number"),
    "symmetrize-drawn-vertices-far-off": (
        lambda tmp: cli_call("symmetrize", "--in", far_hexagon(tmp), "--theta", "0.3",
                             "--out", str(tmp / "out.txt")),
        ValueError, "{tmp}: the symmetral's drawn vertices: "
                    "vertices must be ordered counterclockwise"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal_raises_its_message(name, tmp_path):
    call, exc, message = REFUSALS[name]
    with pytest.raises(exc, match=f"^{re.escape(message.format(tmp=tmp_path / 'set'))}$"):
        call(tmp_path)
