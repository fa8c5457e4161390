"""The raster backend against the exact polygon backend.

A polygon seed runs twice under the kf directions: exactly, through
steiner_polygon, and as its raster, through AlignedRun. After every step
the exact polygon is rasterized in the run's frame and compared with the
run's plane by the set-level d1.
"""

import math

import numpy as np
import pytest

from kfsteiner.metrics import perimeter_estimate
from kfsteiner.polygons import _rotation, steiner_polygon
from kfsteiner.process import builtin_seed
from kfsteiner.rasters import AlignedRun, GridSpec, _rasterize_polygon, rasterize
from kfsteiner.sequences import sequence_values

#: Bound on the set-level d1 between the raster run and the exact set, in
#: units of h * P, with h the cell size and P the seed's 8-direction
#: perimeter estimate. The interval column step stays under 0.15 over 200
#: steps on these seeds. A column step that blurs the set, such as the
#: decreasing rearrangement of the cell values, reads 0.22-0.29 after the
#: first step and grows like the square root of the step count.
SET_D1_FACTOR = 0.2

STEPS = 40


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("name", ["square", "ellipse", "offset-square"])
def test_raster_run_stays_near_the_exact_symmetrals(name, n):
    poly = builtin_seed(name)
    grid = GridSpec.cover(poly.circumradius(), n=n)
    seed = rasterize(poly, grid)
    unit = grid.h * perimeter_estimate(seed, n_directions=8)
    run = AlignedRun(seed)
    for step, x in enumerate(sequence_values("kf", STEPS), start=1):
        theta = math.pi * float(x)
        poly = steiner_polygon(poly, theta)
        run.apply(theta)
        exact = _rasterize_polygon(poly.vertices @ _rotation(run.frame).T, grid)
        gap = float(np.abs(run.occ - exact).sum() * grid.h**2)
        assert gap <= SET_D1_FACTOR * unit, f"step {step}: d1 = {gap / unit:.3f} h P"
