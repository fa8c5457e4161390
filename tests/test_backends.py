"""The raster backend against the exact polygon backend.

A polygon seed runs twice under the same directions, the kf ones or
random ones: exactly, through steiner_polygon, and as its raster,
through AlignedRun. After every step the exact polygon is rasterized in
the run's frame and compared with the run's plane by the set-level d1,
and the perimeter the run reads off its interval profile is compared
with the exact polygon's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_convex_polygon
from kfsteiner.metrics import perimeter_estimate
from kfsteiner.polygons import _rotation, steiner_polygon
from kfsteiner.process import builtin_seed
from kfsteiner.rasters import (
    AlignedRun,
    GridSpec,
    RasterSet,
    _rasterize_polygon,
    rasterize,
)
from kfsteiner.sequences import sequence_values

#: Bound on the set-level d1 between the raster run and the exact set, in
#: units of h * P, with h the cell size and P the seed's perimeter
#: estimate (its half-level isoline). The interval column step stays
#: under 0.15 over 200 steps on these seeds. A column step that blurs the
#: set, such as the decreasing rearrangement of the cell values, reads
#: 0.22-0.29 after the first step and grows like the square root of the
#: step count.
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

#: Bound on |perimeter_estimate - P| / P for the rasters of a run, with P
#: the exact symmetral's perimeter. Their profile length reads 0.2-1.6 %
#: high on these seeds over STEPS steps. The plain raster of the last
#: world plane (see PLAIN_PERIMETER_FACTOR) would fail it.
PERIMETER_FACTOR = 0.02

#: Bound on |perimeter_estimate - P| / P for the plain raster of the last
#: world plane of a run: the isoline of the turned staircase, which reads
#: 2.3-3.0 % high on these seeds at the last step.
PLAIN_PERIMETER_FACTOR = 0.035

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
    unit = seed.grid.h * perimeter_estimate(seed)
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


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("name", ["square", "ellipse", "offset-square"])
def test_raster_run_perimeter_stays_near_the_exact_symmetrals(name, n):
    poly = builtin_seed(name)
    grid = GridSpec.cover(poly.circumradius(), n=n)
    run = AlignedRun(rasterize(poly, grid))
    for step, x in enumerate(sequence_values("kf", STEPS), start=1):
        theta = math.pi * float(x)
        poly = steiner_polygon(poly, theta)
        world = run.apply(theta).world_raster()
        got = perimeter_estimate(world)
        assert got == perimeter_estimate(run.frame_raster())
        exact = poly.perimeter()
        assert abs(got - exact) <= PERIMETER_FACTOR * exact, (
            f"step {step}: perimeter {got:.6g} against {exact:.6g}"
        )
    # a plain raster of the same plane is measured by its isoline
    plain = perimeter_estimate(RasterSet(world.occ, grid))
    assert abs(plain - exact) <= PLAIN_PERIMETER_FACTOR * exact, (
        f"plain raster: perimeter {plain:.6g} against {exact:.6g}"
    )


@pytest.mark.parametrize("name", ["two-component", "lshape"])
def test_raster_run_perimeter_of_nonconvex_seeds(name):
    run = AlignedRun(builtin_seed(name, resolution=128))
    gaps = 0
    for x in sequence_values("kf", STEPS):
        run.apply(math.pi * float(x))
        got = perimeter_estimate(run.world_raster())
        assert math.isfinite(got) and got > 0.0
        assert got == perimeter_estimate(run.frame_raster())
        half = run.frame_raster()._profile
        occupied = np.flatnonzero(half)
        gaps += int(np.count_nonzero(half[occupied[0] : occupied[-1]] == 0.0))
    # two-component's first steps leave empty columns between occupied ones
    assert (gaps > 0) == (name == "two-component")
