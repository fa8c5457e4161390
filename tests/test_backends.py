"""The raster backend against the exact polygon backend.

A polygon seed runs twice under the same directions, the kf ones or
random ones: exactly, through steiner_polygon, and as its raster,
through AlignedRun. After every step the exact polygon is rasterized in
the run's frame and compared with the run's plane by the set-level d1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_convex_polygon
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

#: The bound for any directions, with P the seed's exact perimeter.
#: A direction nearly parallel to a polygon edge gives the exact symmetral
#: a near-vertical edge, which a column of the staircase cannot place
#: inside itself: a column's error is at most h/2 times the oscillation
#: of the section length over it. A convex profile's oscillations sum to
#: at most twice its longest section, which is at most P/2, so one step
#: errs by at most h * P / 2, and the exact symmetral, an L1 contraction,
#: does not let earlier errors grow. Random seeds and directions read up
#: to 0.23 here, and 0.4 % of them exceed SET_D1_FACTOR.
ANY_DIRECTION_D1_FACTOR = 0.5

STEPS = 40


def _gaps_to_the_exact_symmetrals(poly, thetas, n):
    """Run poly exactly and as its raster on an n-by-n grid; return the
    seed raster and the set-level d1 between the two after every step."""
    grid = GridSpec.cover(poly.circumradius(), n=n)
    seed = rasterize(poly, grid)
    run = AlignedRun(seed)
    gaps = []
    for theta in thetas:
        poly = steiner_polygon(poly, theta)
        run.apply(theta)
        exact = _rasterize_polygon(poly.vertices @ _rotation(run.frame).T, grid)
        gaps.append(float(np.abs(run.occ - exact).sum() * grid.h**2))
    return seed, gaps


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("name", ["square", "ellipse", "offset-square"])
def test_raster_run_stays_near_the_exact_symmetrals(name, n):
    thetas = [math.pi * float(x) for x in sequence_values("kf", STEPS)]
    seed, gaps = _gaps_to_the_exact_symmetrals(builtin_seed(name), thetas, n)
    unit = seed.grid.h * perimeter_estimate(seed, n_directions=8)
    for step, gap in enumerate(gaps, start=1):
        assert gap <= SET_D1_FACTOR * unit, f"step {step}: d1 = {gap / unit:.3f} h P"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(64, 128),
       st.lists(st.floats(0.0, math.pi), min_size=1, max_size=12))
def test_raster_run_stays_near_random_convex_symmetrals(seed, n_points, n, thetas):
    rng = np.random.default_rng(seed)
    center = rng.uniform(-0.3, 0.3, size=2)
    poly = random_convex_polygon(rng, n_points=n_points, center=center)
    raster, gaps = _gaps_to_the_exact_symmetrals(poly, thetas, n)
    unit = raster.grid.h * poly.perimeter()
    for step, gap in enumerate(gaps, start=1):
        assert gap <= ANY_DIRECTION_D1_FACTOR * unit, (
            f"step {step}: d1 = {gap / unit:.3f} h P"
        )
