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
    path = tmp_path / "set.pgm"
    path.write_bytes(data)
    return path


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
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal_raises_its_message(name, tmp_path):
    call, exc, message = REFUSALS[name]
    with pytest.raises(exc, match=f"^{re.escape(message.format(tmp=tmp_path / 'set.pgm'))}$"):
        call(tmp_path)
