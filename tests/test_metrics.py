import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_matches_oracle,
    oracle_hausdorff,
    random_convex_polygon,
    random_raster,
)
from kfsteiner import metrics, rasters
from kfsteiner.metrics import (
    MetricsRecord,
    area,
    d1,
    d1_to_ball,
    grid_tolerance,
    measure,
    moment_of_inertia,
    perimeter_estimate,
)
from kfsteiner.polygons import (
    Ball,
    ConvexPolygon,
    ball_hausdorff,
    hausdorff,
    regular_polygon,
)
from kfsteiner.rasters import GridSpec, RasterSet, rasterize, steiner_raster

CENTERED_SQUARE = ConvexPolygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])

# d1 between the centered unit square and the ball of equal area, from the
# circular-segment decomposition (see test_polygons for the derivation)
_R = math.sqrt(1.0 / math.pi)
_SEG = _R * _R * math.acos(0.5 / _R) - 0.5 * math.sqrt(_R * _R - 0.25)
SQUARE_BALL_D1 = 2.0 * (1.0 - (math.pi * _R * _R - 4.0 * _SEG))


def test_area_dispatch():
    assert area(CENTERED_SQUARE) == pytest.approx(1.0)
    assert area(Ball(1.0)) == pytest.approx(math.pi)
    g = GridSpec.cover(1.5, n=128)
    # disk coverage is exact up to rounding
    assert area(rasterize(Ball(1.0), g)) == pytest.approx(math.pi, rel=1e-12)
    with pytest.raises(TypeError):
        area("nope")


def test_moment_examples():
    assert moment_of_inertia(CENTERED_SQUARE) == pytest.approx(1.0 / 6.0)
    disk = regular_polygon(1.0 / math.sqrt(math.pi), 2048)
    assert moment_of_inertia(disk) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-5)
    # the ball minimizes the moment at fixed area
    assert moment_of_inertia(CENTERED_SQUARE) > moment_of_inertia(disk)
    assert moment_of_inertia(Ball(1.0)) == pytest.approx(math.pi / 2.0)


def test_moment_raster_full_cells_exact():
    g = GridSpec(nx=10, ny=10, h=0.1)
    rs = RasterSet(np.ones((10, 10)), g)
    assert moment_of_inertia(rs) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_d1_examples(unit_grid_256):
    a = rasterize(regular_polygon(0.4, 64, center=(0.45, 0.0)), unit_grid_256)
    assert d1(a, a) == 0.0
    g = GridSpec.cover(2.5, n=256)
    sq1 = rasterize(ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]), g)
    sq2 = rasterize(ConvexPolygon([(-1.5, 0), (-0.5, 0), (-0.5, 1), (-1.5, 1)]), g)
    assert d1(sq1, sq2) == pytest.approx(2.0, abs=1e-6)


def test_d1_concentric_balls(unit_grid_256):
    a = rasterize(Ball(0.9), unit_grid_256)
    b = rasterize(Ball(0.6), unit_grid_256)
    assert d1(a, b) == pytest.approx(math.pi * (0.81 - 0.36), abs=1e-2)


def test_d1_is_a_metric(unit_grid_128, rng):
    a = random_raster(rng, unit_grid_128)
    b = random_raster(rng, unit_grid_128)
    c = random_raster(rng, unit_grid_128)
    assert d1(a, b) == d1(b, a)
    assert d1(a, c) <= d1(a, b) + d1(b, c) + 1e-12
    assert d1(a, a) == 0.0


def test_d1_to_ball_fixed_point(unit_grid_256):
    disk = rasterize(Ball(1.0), unit_grid_256)
    assert d1_to_ball(disk) <= grid_tolerance(disk)


def test_d1_to_ball_square_exact_matches_oracle():
    assert d1_to_ball(CENTERED_SQUARE) == pytest.approx(SQUARE_BALL_D1, abs=1e-12)


def test_d1_to_ball_square_high_resolution_oracle():
    # fine grid (h close to 1e-3) pins the value; a coarse grid must agree
    # within 2 percent
    rad = math.sqrt(0.5)
    fine = rasterize(CENTERED_SQUARE, GridSpec.cover(rad, n=1536))
    coarse = rasterize(CENTERED_SQUARE, GridSpec.cover(rad, n=192))
    fine_val = d1_to_ball(fine)
    coarse_val = d1_to_ball(coarse)
    assert fine_val == pytest.approx(SQUARE_BALL_D1, rel=5e-3)
    assert coarse_val == pytest.approx(fine_val, rel=0.02)


def test_d1_to_ball_empty_set(unit_grid_128):
    empty = RasterSet(np.zeros((128, 128)), unit_grid_128)
    assert d1_to_ball(empty) == 0.0


def test_ball_map_contraction(unit_grid_128, rng):
    # mapping each set to its equal-area centered ball contracts d1
    for _ in range(100):
        a = random_raster(rng, unit_grid_128)
        b = random_raster(rng, unit_grid_128)
        lhs = abs(a.area() - b.area())  # exact d1 of the two centered balls
        tol = max(grid_tolerance(a), grid_tolerance(b))
        assert lhs <= d1(a, b) + tol


def test_moment_monotone_under_symmetrization(unit_grid_128, rng):
    for _ in range(25):
        rs = random_raster(rng, unit_grid_128)
        theta = rng.random() * math.pi
        out = steiner_raster(rs, theta)
        assert moment_of_inertia(out) <= moment_of_inertia(rs) + grid_tolerance(rs)


def test_moment_equality_for_symmetric_raster(unit_grid_256):
    disk = rasterize(Ball(0.9), unit_grid_256)
    out = steiner_raster(disk, 1.234)
    assert abs(moment_of_inertia(out) - moment_of_inertia(disk)) <= grid_tolerance(disk)


def test_hausdorff_examples():
    sq_a = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert hausdorff(sq_a, sq_a) == 0.0
    for t in (0.1, 0.35):
        sq_b = ConvexPolygon([(t, 0), (1 + t, 0), (1 + t, 1), (t, 1)])
        assert hausdorff(sq_a, sq_b) == pytest.approx(t, abs=1e-6)


def test_hausdorff_square_vs_ball_polygon_stable_across_resolutions():
    expected = math.sqrt(0.5) - _R  # corner excess dominates
    vals = [hausdorff(CENTERED_SQUARE, regular_polygon(_R, n)) for n in (256, 512)]
    assert max(vals) - min(vals) <= 0.01 * expected
    assert vals[-1] == pytest.approx(expected, rel=1e-3)


def test_perimeter_estimates(unit_grid_256):
    sq = rasterize(CENTERED_SQUARE, GridSpec.cover(1.0, n=256))
    assert perimeter_estimate(sq) == pytest.approx(4.0, rel=0.05)
    ball = rasterize(Ball(1.0), unit_grid_256)
    assert perimeter_estimate(ball) == pytest.approx(2.0 * math.pi, rel=0.05)
    empty = RasterSet(np.zeros((64, 64)), GridSpec(nx=64, ny=64, h=0.1))
    assert perimeter_estimate(empty) == 0.0


def test_profile_perimeter_follows_the_section_polyline():
    h = 0.5
    # centre to centre, a rectangle: two sides of 3 cells, two caps of 2
    assert metrics._profile_perimeter(np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0]), h) == (
        2.0 * h * (3.0 + 1.0 + 1.0)
    )
    # the gap pinches the profile: a slope down to the empty centre, nothing
    # along the midline between the two empty ones, a slope up to 2.0
    half = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 2.0, 0.0])
    sides = 1.0 + math.sqrt(2.0) + math.sqrt(5.0)
    assert metrics._profile_perimeter(half, h) == pytest.approx(
        2.0 * h * (sides + 1.0 + 2.0), rel=1e-15)
    assert metrics._profile_perimeter(np.zeros(5), h) == 0.0


def _plain(occ, h=1.0):
    """perimeter_estimate of occ as a plain raster with cells of size h."""
    ny, nx = occ.shape
    return perimeter_estimate(RasterSet(occ, GridSpec(nx=nx, ny=ny, h=h)))


def isoline_oracle(occ, h=1.0, join_high=None):
    """Length of the 0.5-level isoline of occ, one cell of four adjacent
    centres at a time, with zero outside the grid. A cell's segments cut
    off its corners whose class (occ >= 0.5) is not the joined one: on a
    saddle the class join_high picks, by default that of the cell mean;
    on any other cell the one corner or two adjacent corners that are
    alone in their class."""
    v = np.pad(occ, 1)
    xy = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    total = 0.0
    for i in range(v.shape[0] - 1):
        for j in range(v.shape[1] - 1):
            vals = [v[i, j], v[i, j + 1], v[i + 1, j + 1], v[i + 1, j]]
            high = [x >= 0.5 for x in vals]
            if sum(high) in (0, 4):
                continue
            cut = {}  # edge e runs from corner e to corner e + 1
            for e in range(4):
                p, q = vals[e], vals[(e + 1) % 4]
                if high[e] != high[(e + 1) % 4]:
                    t = (0.5 - p) / (q - p)
                    (x0, y0), (x1, y1) = xy[e], xy[(e + 1) % 4]
                    cut[e] = (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
            if len(cut) == 2:
                pairs = [tuple(cut)]
            else:
                joined = sum(vals) / 4.0 >= 0.5 if join_high is None else join_high
                # corner e lies between edges e - 1 and e
                pairs = [((e - 1) % 4, e) for e in range(4) if high[e] != joined]
            for e, f in pairs:
                total += math.dist(cut[e], cut[f])
    return h * total


@pytest.mark.parametrize("k, m", [(1, 1), (1, 4), (3, 5), (8, 2), (17, 11)])
@pytest.mark.parametrize("h", [1.0, 0.37, 1.0 / 512])
def test_isoline_of_a_full_block_cuts_its_corners(k, m, h):
    want = (2 * (k + m) - (4.0 - 2.0 * math.sqrt(2.0))) * h
    for pad in ((3, 4), (0, 2), (0, 0)):  # inside, and at the grid's edges
        occ = np.pad(np.ones((k, m)), (pad, pad[::-1]))
        assert _plain(occ, h) == pytest.approx(want, rel=1e-14, abs=0.0), f"pad {pad}"


@st.composite
def small_planes(draw):
    """Small planes of random values, many of them at the level 0.5 or at
    0, 1 and the saddle-making 0.25 and 0.75, and some set along the
    grid's edges."""
    ny, nx = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occ = rng.random((ny, nx))
    ties = rng.random((ny, nx)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    occ[ties] = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=int(ties.sum()))
    return occ


@settings(max_examples=150, deadline=None)
@given(small_planes())
def test_isoline_is_marching_squares_cell_by_cell(occ):
    assert _plain(occ, 0.5) == pytest.approx(isoline_oracle(occ, 0.5), rel=1e-12, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(small_planes())
def test_isoline_keeps_its_length_under_turns_and_flips(occ):
    want = _plain(occ)
    for turned in (np.rot90(occ), np.rot90(occ, 2), np.rot90(occ, 3), occ.T,
                   occ[::-1], occ[:, ::-1], np.rot90(occ).T):
        assert _plain(turned) == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("high, low", [(0.9, 0.3), (0.6, 0.2)])
def test_isoline_splits_a_saddle_by_its_cell_mean(high, low):
    # two high cells on one diagonal, two low ones on the other: the
    # centre cell is a saddle whose crossings sit at t = (0.5 - low) /
    # (high - low) from the low corners, and the split isolates either the
    # two low corners (short cuts) or the two high ones (long cuts)
    occ = np.array([[high, low], [low, high]])
    t = (0.5 - low) / (high - low)
    short, long_ = 2.0 * math.sqrt(2.0) * t, 2.0 * math.sqrt(2.0) * (1.0 - t)
    joined = 0.5 * (high + low) >= 0.5
    got = _plain(occ)
    assert got == pytest.approx(isoline_oracle(occ, join_high=joined), rel=1e-14)
    other = isoline_oracle(occ, join_high=not joined)
    # joining the high corners cuts off the low ones
    assert other - got == pytest.approx((long_ - short) * (1 if joined else -1), rel=1e-12)
    assert abs(other - got) > 0.1


#: Bound on |perimeter_estimate - P| of a plain raster: ISOLINE_REL * P plus
#: h for each vertex of a polygon, whose corners the isoline cuts (a
#: right angle by (2 - sqrt(2)) h). The isoline reads disks 0.22-0.30 %
#: high at 128²-1024², and straight edges up to 0.48 % high by their
#: angle to the grid. A 64-direction Crofton estimate over a bilinear
#: resampling read the same disk 1.04-1.08 % high at every size, and the
#: rectangle 1.43 % and 1.54 % high at 512² and 1024², so it fails.
ISOLINE_REL = 0.006


def _turned(vertices, angle):
    c, s = math.cos(angle), math.sin(angle)
    return ConvexPolygon(np.asarray(vertices) @ np.array([[c, -s], [s, c]]).T)


@pytest.mark.parametrize("n", [128, 256, 512, 1024])
def test_isoline_is_near_the_exact_perimeter(n):
    grid = GridSpec.cover(1.0, n=n)
    shapes = [
        (Ball(0.8), 2.0 * math.pi * 0.8, 0),
        (_turned(CENTERED_SQUARE.vertices, math.pi / 6), 4.0, 4),
        (_turned([(-0.7, -0.3), (0.7, -0.3), (0.7, 0.3), (-0.7, 0.3)], 0.4), 4.0, 4),
        (_turned(regular_polygon(0.8, 6).vertices, 0.1), 6 * 0.8, 6),
        (_turned(regular_polygon(0.8, 3).vertices, 0.2), 3 * math.sqrt(3.0) * 0.8, 3),
    ]
    for shape, exact, corners in shapes:
        got = perimeter_estimate(rasterize(shape, grid))
        bound = ISOLINE_REL * exact + corners * grid.h
        assert abs(got - exact) <= bound, (
            f"{shape!r}: {got:.6g} against {exact:.6g}, "
            f"{100 * (got / exact - 1):+.3f} %"
        )


def test_perimeter_never_grows_much(unit_grid_128, rng):
    for _ in range(10):
        rs = random_raster(rng, unit_grid_128)
        theta = rng.random() * math.pi
        out = steiner_raster(rs, theta)
        assert perimeter_estimate(out) <= 1.05 * perimeter_estimate(rs)


def test_measure_bundles(unit_grid_128):
    disk = rasterize(Ball(0.8), unit_grid_128)
    rec = measure(disk, with_perimeter=True)
    assert isinstance(rec, MetricsRecord)
    assert rec.area == pytest.approx(disk.area())
    assert rec.perimeter == pytest.approx(2 * math.pi * 0.8, rel=0.05)
    assert rec.hausdorff_to_ball is None
    poly_rec = measure(CENTERED_SQUARE, with_hausdorff=True, with_perimeter=True)
    assert poly_rec.perimeter == pytest.approx(4.0)
    assert poly_rec.hausdorff_to_ball == pytest.approx(math.sqrt(0.5) - _R, abs=1e-12)


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["nested", "overlapping", "disjoint"]))
def test_hausdorff_matches_sampled_oracle(seed, layout):
    rng = np.random.default_rng(seed)
    a = random_convex_polygon(rng, n_points=int(rng.integers(3, 40)))
    if layout == "nested":
        b = random_convex_polygon(rng, n_points=int(rng.integers(3, 40)), scale=0.3)
    else:
        shift = 0.5 if layout == "overlapping" else 3.0  # hulls lie in [-1, 1]**2
        angle = rng.uniform(0.0, 2.0 * math.pi)
        center = (shift * math.cos(angle), shift * math.sin(angle))
        b = random_convex_polygon(rng, n_points=int(rng.integers(3, 40)), center=center)
    d = hausdorff(a, b)
    assert_matches_oracle(d, oracle_hausdorff(a, b, 0.05))
    assert_matches_oracle(hausdorff(b, a), d)
    assert hausdorff(a, ConvexPolygon(a.vertices)) == 0.0


def test_hausdorff_memory_is_bounded_at_2000_vertices():
    # the sampled all-pairs form held (samples x vertices) float arrays,
    # about 137 MiB at its tracemalloc peak here; the exact form holds a
    # few arrays of the vertex count
    ball_poly = regular_polygon(0.5, 2000)
    square = ConvexPolygon([(-0.4, -0.4), (0.4, -0.4), (0.4, 0.4), (-0.4, 0.4)])
    tracemalloc.start()
    try:
        d = hausdorff(square, ball_poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert_matches_oracle(d, oracle_hausdorff(square, ball_poly, 3.2e-3))


def test_measure_and_d1_to_ball_agree_on_polygons(rng):
    for _ in range(20):
        poly = random_convex_polygon(rng, center=tuple(rng.uniform(-0.3, 0.3, 2)))
        assert measure(poly).d1_to_ball == d1_to_ball(poly)


# ---------------------------------------------------------------------------
# the frame raster of a stepped run is measured from its intervals
# ---------------------------------------------------------------------------


@st.composite
def interval_planes(draw):
    """A centred grid, half-lengths from _interval_lengths, the plane
    _fill_intervals writes for them, and the table of an origin ball that
    fits the grid, whatever the plane's area. Each column is empty,
    inside one cell (half-length below 0.5), full, short of full by less
    than a cell (reaching the first and last rows) or random."""
    ny = draw(st.integers(1, 41))
    nx = draw(st.integers(1, 41))
    grid = GridSpec(nx=nx, ny=ny, h=draw(st.sampled_from([0.05, 0.37, 1.0])))
    kinds = {
        "empty": st.just(0.0),
        "one cell": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "full": st.just(float(ny)),
        "nearly full": st.floats(ny - 1.0, ny, exclude_min=True, exclude_max=True),
        "random": st.floats(0.0, ny),
    }
    mass = [draw(kinds[draw(st.sampled_from(sorted(kinds)))]) for _ in range(nx)]
    half = rasters._interval_lengths(np.array(mass), ny)
    plane = np.zeros((ny, nx))
    rasters._fill_intervals(plane, half)
    r = draw(st.floats(0.05, 0.99)) * 0.5 * min(nx, ny) * grid.h
    return plane, half, grid, rasters._ball_table(grid, math.pi * r * r)


@settings(max_examples=300, deadline=None)
@given(interval_planes())
def test_intervals_measure_as_their_full_grid(case):
    plane, half, grid, ball = case
    closed = measure(RasterSet._trusted(plane, grid, half, ball=lambda: ball))
    full = measure(RasterSet._trusted(plane, grid, ball=lambda: ball))
    for name in ("area", "mu", "d1_to_ball"):
        got, want = getattr(closed, name), getattr(full, name)
        assert abs(got - want) <= 1e-12 * abs(want), (name, got, want)


@settings(max_examples=200, deadline=None)
@given(interval_planes())
def test_measure_of_intervals_has_the_bits_of_each_functional(case):
    # measure takes the interval cells once for the moment and d1
    _, half, grid, ball = case
    rs = RasterSet._trusted(None, grid, half, ball=lambda: ball)
    rec = measure(rs)
    assert rec.mu == moment_of_inertia(rs)
    assert rec.d1_to_ball == d1_to_ball(rs)


def test_measure_of_polygons_has_the_bits_of_each_functional(rng):
    # measure shares its edge columns with the Hausdorff distance and the
    # perimeter; two of the polygons do not contain the origin
    for k in range(20):
        center = (3.0, -2.0) if k < 2 else tuple(rng.uniform(-0.3, 0.3, 2))
        poly = random_convex_polygon(rng, n_points=8 + 50 * k, center=center)
        rec = measure(poly, with_hausdorff=True, with_perimeter=True)
        assert rec.hausdorff_to_ball == ball_hausdorff(poly, math.sqrt(poly.area() / math.pi))
        assert rec.perimeter == poly.perimeter()
        assert rec.mu == moment_of_inertia(poly)
