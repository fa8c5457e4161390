import bisect
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import U, as_integers, convex_hull, random_convex_polygon, random_raster
from kfsteiner import rasters
from kfsteiner.metrics import (
    d1,
    grid_tolerance,
    measure,
    perimeter_estimate,
)
from kfsteiner.polygons import (
    Ball,
    ConvexPolygon,
    _rotation,
    regular_polygon,
    steiner_polygon,
)
from kfsteiner.process import builtin_seed
from kfsteiner.rasters import (
    AlignedRun,
    GridSpec,
    RasterSet,
    annulus_fixture,
    rasterize,
    read_pgm,
    steiner_raster,
    write_pgm,
)
from kfsteiner.sequences import sequence_values


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=0, ny=4, h=0.1)
    with pytest.raises(ValueError):
        GridSpec(nx=4, ny=4, h=0.0)
    g = GridSpec.cover(1.0, n=100)
    assert g.half_width >= 1.0


@pytest.mark.parametrize("field", ["h"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_gridspec_rejects_non_finite_geometry(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        GridSpec(nx=4, ny=4, **{field: value})


@pytest.mark.parametrize("field", ["cellsize", "ox", "oy"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_pgm_rejects_non_finite_geometry(field, value, tmp_path):
    # a grid center enters only through a PGM's geometry comment
    geometry = {"cellsize": "0.1", "ox": "0", "oy": "0", field: value}
    path = tmp_path / "bad.pgm"
    comment = " ".join(f"{k}={v}" for k, v in geometry.items())
    path.write_bytes(f"P5\n# {comment}\n2 2\n255\n".encode() + bytes(4))
    with pytest.raises(ValueError, match="cell size and center must be finite") as err:
        read_pgm(path)
    assert str(err.value).startswith(f"{path}: ")


def test_rasterset_validation():
    g = GridSpec(nx=4, ny=4, h=0.5)
    with pytest.raises(ValueError):
        RasterSet(np.zeros((3, 4)), g)
    with pytest.raises(ValueError):
        RasterSet(np.full((4, 4), 1.5), g)


def test_rasterize_aligned_square_is_binary():
    # cells of size 0.25 align with the square's edges
    g = GridSpec(nx=8, ny=8, h=0.25)
    sq = ConvexPolygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    rs = rasterize(sq, g)
    inner = rs.occ[2:6, 2:6]
    assert np.all(inner == 1.0)
    assert rs.area() == pytest.approx(1.0, abs=1e-12)
    rs.occ[2:6, 2:6] = 0.0
    assert rs.occ.sum() == 0.0


def test_rasterize_triangle_exact():
    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    g = GridSpec.cover(1.5, n=128)
    rs = rasterize(tri, g)
    assert abs(rs.area() - 0.5) < 1e-6


#: Relative rounding bound on the area of an exactly covered disk: about
#: 8 r / h boundary cells, each within 1e-13 of exact (see
#: test_disk_fraction_matches_decimal_oracle), err by at most
#: 8e-13 * h / (pi * r) of the area; the other cells are exact.
DISK_AREA_RTOL = 1e-12


def test_rasterize_ball_mass():
    g = GridSpec(nx=220, ny=220, h=0.01)
    rs = rasterize(Ball(1.0), g)
    assert abs(rs.area() - math.pi) <= DISK_AREA_RTOL * math.pi


def test_rasterize_bounds_check():
    g = GridSpec(nx=16, ny=16, h=0.1)
    with pytest.raises(ValueError):
        rasterize(Ball(2.0), g)


def test_annulus_fixture():
    g = GridSpec.cover(1.0, n=256)
    disk = annulus_fixture(0.0, 1.0, g)
    assert abs(disk.area() - math.pi) <= DISK_AREA_RTOL * math.pi
    ring = annulus_fixture(0.5, 1.0, g)
    assert abs(ring.area() - math.pi * 0.75) <= DISK_AREA_RTOL * math.pi * 0.75
    with pytest.raises(ValueError):
        annulus_fixture(1.0, 1.0, g)
    with pytest.raises(ValueError):
        annulus_fixture(-0.1, 0.5, g)


def test_binary_column_rearrangement():
    g = GridSpec(nx=3, ny=11, h=1.0)
    occ = np.zeros((11, 3))
    occ[0:5, 1] = 1.0
    out = steiner_raster(RasterSet(occ, g), math.pi / 2)
    assert np.array_equal(out.occ[:, 1], np.r_[np.zeros(3), np.ones(5), np.zeros(3)])
    assert np.all(out.occ[:, 0] == 0.0)


def test_fractional_column_becomes_its_centred_interval():
    g = GridSpec(nx=1, ny=5, h=1.0)
    occ = np.array([[0.2], [0.9], [0.0], [0.4], [0.0]])
    out = steiner_raster(RasterSet(occ, g), math.pi / 2)
    # the column's mass 1.5 as the interval [1.75, 3.25] about the midline 2.5
    assert np.allclose(out.occ[:, 0], [0.0, 0.25, 1.0, 0.25, 0.0])


def test_horizontal_direction_rearranges_rows():
    g = GridSpec(nx=11, ny=3, h=1.0)
    occ = np.zeros((3, 11))
    occ[1, 0:4] = 1.0
    out = steiner_raster(RasterSet(occ, g), 0.0)
    # an even run on an odd grid becomes the interval [3.5, 7.5] about the
    # midline 5.5: three full cells and a half cell at each end
    assert np.array_equal(
        out.occ[1, :], np.r_[np.zeros(3), 0.5, np.ones(3), 0.5, np.zeros(3)]
    )


def test_axis_aligned_idempotent_exactly():
    g = GridSpec.cover(1.2, n=64)
    rng = np.random.default_rng(3)
    rs = random_raster(rng, g)
    once = steiner_raster(rs, math.pi / 2)
    twice = steiner_raster(once, math.pi / 2)
    assert np.array_equal(once.occ, twice.occ)


def test_negative_axis_angles_are_the_axis_symmetrals_bit_for_bit():
    # fmod keeps the sign: -pi/2 is folded onto pi/2 by adding pi, and
    # -pi leaves -0.0, the horizontal axis
    rs = random_raster(np.random.default_rng(5), GridSpec.cover(1.2, n=48))
    vertical = steiner_raster(rs, math.pi / 2).occ
    horizontal = steiner_raster(rs, 0.0).occ
    assert not np.array_equal(vertical, horizontal)
    assert np.array_equal(steiner_raster(rs, -math.pi / 2).occ, vertical)
    assert np.array_equal(steiner_raster(rs, -math.pi).occ, horizontal)


def test_disk_fixed_point_any_direction(unit_grid_256):
    disk = rasterize(Ball(1.0), unit_grid_256)
    for theta in (0.3, 1.1, 2.7):
        out = steiner_raster(disk, theta)
        tol = 4.0 * unit_grid_256.h * 2.0 * math.pi
        assert d1(out, disk) <= tol


def test_square_to_rectangle_raster():
    sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    g = GridSpec.cover(math.sqrt(2.0), n=256)
    rs = rasterize(sq, g)
    out = steiner_raster(rs, math.pi / 2)
    rect = rasterize(
        ConvexPolygon([(0, -0.5), (1, -0.5), (1, 0.5), (0, 0.5)]), g
    )
    assert d1(out, rect) <= 4.0 * g.h


def test_mass_exact_after_renormalization(unit_grid_128, rng):
    for _ in range(10):
        rs = random_raster(rng, unit_grid_128)
        theta = rng.random() * math.pi
        run = AlignedRun(rs).apply(theta)
        out = run.world_raster()
        assert abs(out.mass() - rs.mass()) <= 1e-9 * max(rs.mass(), 1.0)
        assert abs(run.mass_drift) <= 0.01


def test_quarter_turn_world_raster_keeps_the_mass():
    # a floating-point quarter turn, whose cosine is 6e-17, leaves the
    # block's column masses off by rounding; the scaled intervals and the
    # exact staircase raster bring the world raster back to its 42 cells
    grid = GridSpec(nx=21, ny=23, h=0.05)
    occ = np.zeros((23, 21))
    occ[5:11, 5:12] = 1.0
    world = AlignedRun(RasterSet(occ, grid)).apply(0.0).world_raster()
    assert abs(world.mass() - 42.0) <= 1e-12 * 42.0
    assert world.occ.min() >= 0.0 and world.occ.max() <= 1.0


def test_oblique_idempotence_within_grid_tolerance(unit_grid_128, rng):
    rs = random_raster(rng, unit_grid_128)
    theta = 0.7
    once = steiner_raster(rs, theta)
    twice = steiner_raster(once, theta)
    assert d1(twice, once) <= grid_tolerance(once)


def test_symmetry_of_output(unit_grid_128, rng):
    for theta in (math.pi / 2, 0.6, 2.2):
        rs = random_raster(rng, unit_grid_128)
        out = steiner_raster(rs, theta)
        # the reflection across the line orthogonal to the angle theta
        ux, uy = math.cos(theta), math.sin(theta)
        flip = np.array([[1.0 - 2.0 * ux * ux, -2.0 * ux * uy],
                         [-2.0 * ux * uy, 1.0 - 2.0 * uy * uy]])
        mirror = full_grid_pull(out.occ, out.grid, flip)
        defect = d1(out, out.with_occ(mirror))
        assert defect <= grid_tolerance(out), f"theta={theta}"


def test_monotonicity_nested_axis_aligned_exact():
    g = GridSpec.cover(1.2, n=64)
    rng = np.random.default_rng(5)
    small = random_raster(rng, g)
    # grow the small set into a superset
    grow = np.clip(small.occ + random_raster(rng, g).occ, 0.0, 1.0)
    big = RasterSet(np.maximum(small.occ, grow), g)
    s_small = steiner_raster(small, math.pi / 2)
    s_big = steiner_raster(big, math.pi / 2)
    assert np.all(s_small.occ <= s_big.occ + 1e-12)


def test_monotonicity_nested_oblique_within_tolerance(unit_grid_128):
    rng = np.random.default_rng(6)
    small = random_raster(rng, unit_grid_128)
    big = RasterSet(
        np.maximum(small.occ, random_raster(rng, unit_grid_128).occ), unit_grid_128
    )
    theta = 1.3
    run_s = AlignedRun(small).apply(theta)
    run_b = AlignedRun(big).apply(theta)
    s_small, s_big = run_s.world_raster(), run_b.world_raster()
    # cellwise containment up to the discretization tolerance
    slack = 2.0 * max(abs(run_s.mass_drift), abs(run_b.mass_drift)) + 0.35
    assert np.all(s_small.occ <= s_big.occ + slack)
    # and the areas are ordered exactly
    assert s_small.area() <= s_big.area() + 1e-9


def test_d1_contraction(unit_grid_128, rng):
    worst = -1.0
    for _ in range(100):
        a = random_raster(rng, unit_grid_128)
        b = random_raster(rng, unit_grid_128)
        theta = rng.random() * math.pi
        before = d1(a, b)
        after = d1(steiner_raster(a, theta), steiner_raster(b, theta))
        tol = max(grid_tolerance(a), grid_tolerance(b))
        worst = max(worst, after - before)
        assert after <= before + tol
    # record how tight the contraction is in practice
    assert worst < 0.2


def test_continuity_in_direction(unit_grid_256):
    rng = np.random.default_rng(9)
    rs = random_raster(rng, unit_grid_256)
    theta = 1.0
    base = steiner_raster(rs, theta)
    for dtheta in (1e-3, 5e-4):
        moved = steiner_raster(rs, theta + dtheta)
        gap = d1(moved, base)
        # recorded envelope: the gap scales like C * dtheta with C below
        # a few times radius * perimeter
        c = gap / dtheta
        assert c < 20.0, f"continuity constant {c}"


def test_rotation_requires_margin():
    g = GridSpec(nx=32, ny=32, h=0.1)
    occ = np.ones((32, 32))  # content out to the corners
    with pytest.raises(ValueError, match="grid"):
        steiner_raster(RasterSet(occ, g), 1.0)


def test_direction_nan_rejected(unit_grid_128):
    rs = RasterSet(np.zeros((128, 128)), unit_grid_128)
    with pytest.raises(ValueError):
        steiner_raster(rs, float("nan"))


def test_d1_refuses_rasters_on_different_grids():
    fine = rasterize(Ball(0.8), GridSpec.cover(1.0, n=256))
    coarse = rasterize(Ball(0.8), GridSpec.cover(1.0, n=128))
    with pytest.raises(ValueError, match="different grids"):
        d1(fine, coarse)


def test_pgm_roundtrip(tmp_path, unit_grid_128):
    rng = np.random.default_rng(12)
    rs = random_raster(rng, unit_grid_128)
    for binary in (True, False):
        path = tmp_path / f"set_{binary}.pgm"
        write_pgm(path, rs, binary=binary)
        back = read_pgm(path)
        assert back.grid.same_geometry(rs.grid)
        assert np.abs(back.occ - rs.occ).max() <= 0.5 / 65535 + 1e-12


def test_pgm_defaults_without_metadata(tmp_path):
    path = tmp_path / "bare.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 255\n255 0\n")
    rs = read_pgm(path)
    assert rs.grid.h == 1.0
    # top row first in the file: file row 0 is grid row 1
    assert rs.occ[1, 0] == 0.0 and rs.occ[1, 1] == 1.0
    assert rs.occ[0, 0] == 1.0 and rs.occ[0, 1] == 0.0


@pytest.mark.parametrize("data", [
    # samples whose bytes spell a geometry comment
    b"P5\n23 1\n255\n# cellsize=2 ox=0 oy=0 ",
    # a geometry comment after the samples
    b"P5\n2 1\n255\n\x00\xff\n# cellsize=3 ox=0 oy=0\n",
], ids=["in-samples", "after-samples"])
def test_pgm_geometry_comes_from_the_header_only(tmp_path, data):
    path = tmp_path / "bare.pgm"
    path.write_bytes(data)
    assert read_pgm(path).grid.h == 1.0


@pytest.mark.parametrize("binary", [True, False])
def test_pgm_center_must_be_the_origin(tmp_path, binary):
    h = 0.1
    path = tmp_path / "offset.pgm"
    body = bytes(4) if binary else b"0 0 0 0\n"
    header = f"P{5 if binary else 2}\n# cellsize={h} ox={{}} oy=0\n2 2\n255\n"
    # within 1e-9 cells of the origin the center reads as the origin
    path.write_bytes(header.format(repr(1e-12 * h)).encode() + body)
    assert read_pgm(path).grid == GridSpec(nx=2, ny=2, h=h)
    path.write_bytes(header.format(repr(1e-3 * h)).encode() + body)
    with pytest.raises(ValueError, match="is not the origin") as err:
        read_pgm(path)
    assert str(err.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# the resampling oracle of the symmetry test, and the column step against
# exact rasters of its staircase
# ---------------------------------------------------------------------------


def allocating_gather(occ, fi, fj):
    """The bilinear gather as one expression over fresh arrays."""
    ny, nx = occ.shape
    padded = np.zeros((ny + 3, nx + 3))
    padded[1 : ny + 1, 1 : nx + 1] = occ
    fi = np.clip(fi, -1.0, float(ny)) + 1.0
    fj = np.clip(fj, -1.0, float(nx)) + 1.0
    i0 = np.floor(fi).astype(np.int64)
    j0 = np.floor(fj).astype(np.int64)
    di = fi - i0
    dj = fj - j0
    stride = nx + 3
    base = i0 * stride + j0
    flat = padded.ravel()
    v00 = flat[base]
    v01 = flat[base + 1]
    v10 = flat[base + stride]
    v11 = flat[base + stride + 1]
    return (
        (1.0 - di) * ((1.0 - dj) * v00 + dj * v01)
        + di * ((1.0 - dj) * v10 + dj * v11)
    )


def full_grid_pull(occ, grid, matrix):
    """occ resampled under the world map p -> matrix @ p (about the
    origin): every cell centre reads the bilinear interpolant of occ at
    its preimage, with zero outside the grid."""
    xs = grid.x_centers()
    ys = grid.y_centers()
    tx = xs[None, :]
    ty = ys[:, None]
    inv = np.linalg.inv(matrix)
    sx = inv[0, 0] * tx + inv[0, 1] * ty
    sy = inv[1, 0] * tx + inv[1, 1] * ty
    fj = sx / grid.h + (grid.nx - 1) / 2.0
    fi = sy / grid.h + (grid.ny - 1) / 2.0
    return np.clip(allocating_gather(occ, fi, fj), 0.0, 1.0)


@st.composite
def raster_sets(draw):
    """Small rasters whose content is a random block, nothing, a full
    block about the centre, or a band within two cells of the grid edge."""
    ny = draw(st.integers(5, 40))
    nx = draw(st.integers(5, 40))
    h = draw(st.sampled_from([0.05, 0.1, 0.37, 1.0]))
    grid = GridSpec(nx=nx, ny=ny, h=h)
    kind = draw(st.sampled_from(("random", "empty", "centre_block", "margin")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occ = np.zeros((ny, nx))
    if kind == "random":
        i0, i1 = sorted(draw(st.lists(st.integers(0, ny), min_size=2, max_size=2)))
        j0, j1 = sorted(draw(st.lists(st.integers(0, nx), min_size=2, max_size=2)))
        block = rng.random((i1 - i0, j1 - j0))
        block[block < 0.3] = 0.0
        occ[i0:i1, j0:j1] = block
    elif kind == "centre_block":
        occ[ny // 4 : ny - ny // 4, nx // 4 : nx - nx // 4] = 1.0
    elif kind == "margin":
        occ = rng.random((ny, nx))
        occ[2 : ny - 2, 2 : nx - 2] = 0.0
    return RasterSet(occ, grid)


angles = st.floats(-2.0 * math.pi, 2.0 * math.pi, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(raster_sets())
def test_interval_plane_is_the_raster_of_its_staircase(rs):
    half = rasters._interval_lengths(rs.occ.sum(axis=0), rs.grid.ny)
    plane = np.zeros_like(rs.occ)
    rasters._fill_intervals(plane, half)
    staircase = rasters._rasterize_intervals(rs.grid, half, np.eye(2))
    assert np.allclose(plane, staircase, rtol=0.0, atol=1e-12)
    # every column sums back to its interval's length without rounding
    assert np.array_equal(plane.sum(axis=0), 2.0 * half)


@st.composite
def rotated_polygons(draw):
    """A centred grid and a convex polygon, turned by a random angle about
    the origin, inside the grid's inscribed disk."""
    n = draw(st.integers(4, 64))
    h = draw(st.sampled_from([0.05, 0.1, 0.37, 1.0]))
    grid = GridSpec(nx=n, ny=n, h=h)
    size = draw(st.floats(0.02, 0.35)) * n * h
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poly = random_convex_polygon(rng, n_points=draw(st.integers(3, 12)), scale=size)
    return poly.vertices @ _rotation(draw(angles)).T, grid


@settings(max_examples=200, deadline=None)
@given(rotated_polygons())
def test_column_masses_are_the_column_sums_of_the_exact_raster(case):
    v, grid = case
    got = rasters._column_masses(v, np.roll(v, -1, axis=0), 1.0, grid)
    want = rasters._rasterize_polygon(v, grid).sum(axis=0)
    assert np.abs(got - want).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(raster_sets(), st.booleans(), angles)
def test_raster_edges_give_the_column_sums_and_keep_the_mass(rs, signed_zeros, theta):
    occ = rs.occ.copy()
    if signed_zeros:
        occ[occ == 0.0] = -0.0
    p, q, w = rasters._raster_edges(occ, rs.grid)
    assert np.all(w != 0.0)
    at_identity = rasters._column_masses(p, q, w, rs.grid)
    assert np.abs(at_identity - occ.sum(axis=0)).max() <= 1e-12
    # a turn about the origin keeps the mass; content turned off the grid
    # counts in its first or last column
    rot = _rotation(theta)
    turned = rasters._column_masses(p @ rot.T, q @ rot.T, w, rs.grid)
    assert abs(turned.sum() - occ.sum()) <= 1e-12 * occ.sum()


@pytest.mark.parametrize("name", ["lshape", "two-component"])
def test_run_mass_drift_is_rounding_and_is_steiner_rasters(name):
    seed = builtin_seed(name, resolution=128)
    run = AlignedRun(seed)
    for k, x in enumerate(sequence_values("kf", 30), start=1):
        run.apply(math.pi * float(x))
        assert abs(run.mass_drift) <= 1e-12, f"step {k}"
    # a first oblique step from the seed is steiner_raster's step
    for theta in (0.3, 1.1, 2.2, 3.3):
        first = AlignedRun(seed).apply(theta)
        out = steiner_raster(seed, theta)
        assert np.array_equal(out.occ, first.world_raster().occ), f"theta {theta}"


def test_oblique_symmetral_mass_drift_is_rounding(unit_grid_128):
    for seed in range(8):
        rng = np.random.default_rng(seed)
        rs = random_raster(rng, unit_grid_128)
        for theta in (0.3, 1.0, 2.2, rng.random() * math.pi):
            run = AlignedRun(rs).apply(theta)
            assert abs(run.mass_drift) <= 1e-12, f"seed {seed}, theta {theta}"


@st.composite
def rim_rasters(draw):
    """Centred rasters whose content reaches out to about the edge of the
    grid's inscribed disk, so that the staircase of a step leaves that disk
    after zero, one or several steps; some carry random speckle."""
    n = draw(st.integers(12, 40))
    h = draw(st.sampled_from([0.05, 0.1, 1.0]))
    grid = GridSpec(nx=n, ny=n, h=h)
    radius = (0.5 * n - 1.5 + draw(st.floats(-3.0, 0.5))) * h
    occ = rasters._disk_fraction(grid, radius)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        occ = occ * rng.random(occ.shape)
    return RasterSet(occ, grid)


@st.composite
def polygon_rasters(draw):
    """Centred rasters of a convex polygon, as rasterize builds the seeds,
    and some with -0.0 in every empty cell, as a plane built by hand may
    hold."""
    n = draw(st.integers(8, 40))
    h = draw(st.sampled_from([0.05, 0.1, 1.0]))
    grid = GridSpec(nx=n, ny=n, h=h)
    size = draw(st.floats(0.1, 0.4)) * n * h
    if draw(st.booleans()):
        poly = regular_polygon(size, draw(st.integers(3, 64)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        poly = random_convex_polygon(rng, scale=size)
    occ = rasterize(poly, grid).occ
    if draw(st.booleans()):
        occ[occ == 0.0] = -0.0
    return RasterSet(occ, grid)


@settings(max_examples=120, deadline=None)
@given(st.one_of(raster_sets(), rim_rasters(), polygon_rasters()),
       st.lists(st.one_of(angles, st.sampled_from([0.0, 0.5 * math.pi])),
                min_size=1, max_size=8))
def test_run_steps_write_their_staircase_or_refuse_the_grid(rs, thetas):
    run = AlignedRun(rs)
    for step, theta in enumerate(thetas, start=1):
        try:
            run.apply(theta)
        except ValueError as exc:
            assert "grid" in str(exc), f"step {step}"
            break
        # the plane holds intervals, so its column sums are their lengths
        frame = run.frame_raster().occ.copy()
        half = frame.sum(axis=0) / 2.0
        staircase = rasters._rasterize_intervals(rs.grid, half, np.eye(2))
        assert np.abs(frame - staircase).max() <= 1e-12, f"step {step}"
        world = run.world_raster()  # raises if the rotated staircase leaves the grid
        assert abs(world.mass() - run.target_mass) <= 1e-9 * run.target_mass, (
            f"step {step}"
        )
        if run.target_mass == 0.0:
            assert not frame.any() and not world.occ.any(), f"step {step}"
        # a repeated direction changes nothing
        assert np.array_equal(run.apply(theta).frame_raster().occ, frame), f"step {step}"


# ---------------------------------------------------------------------------
# a run keeps its memory: no grid-sized temporaries per step
# ---------------------------------------------------------------------------


def _traced_peak(fn):
    """Bytes fn allocates at its peak beyond what was live before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    fn()
    return tracemalloc.get_traced_memory()[1] - before


def test_run_steps_allocate_no_grid_planes():
    seed = builtin_seed("lshape", resolution=512)
    plane = seed.occ.nbytes
    run = AlignedRun(seed)
    xs = sequence_values("kf", 10)
    measure(run.frame_raster())  # builds the run's comparison ball
    run.apply(math.pi * float(xs[0]))
    tracemalloc.start()
    try:
        for x in xs[1:]:
            apply_peak = _traced_peak(lambda: run.apply(math.pi * float(x)))
            assert apply_peak < 2 * plane, f"apply peak {apply_peak / plane:.2f} planes"
            measure_peak = _traced_peak(lambda: measure(run.frame_raster()))
            assert measure_peak < 0.5 * plane, (
                f"measure peak {measure_peak / plane:.2f} planes"
            )
    finally:
        tracemalloc.stop()


def _stepped_run(name, n, steps):
    run = AlignedRun(builtin_seed(name, resolution=n))
    for x in sequence_values("kf", steps):
        run.apply(math.pi * float(x))
    return run


def test_frame_and_world_rasters_are_read_only_snapshots_of_their_step():
    run = _stepped_run("lshape", 128, 3)
    frame, world = run.frame_raster(), run.world_raster()
    step3 = run.frame_raster().occ.copy()
    world3 = run.world_raster().occ.copy()
    run.apply(math.pi * 0.3).apply(math.pi * 0.71)
    assert not np.array_equal(run.frame_raster().occ, step3)
    # drawn only now, after two more steps, both still hold step 3
    assert np.array_equal(frame.occ, step3)
    assert np.array_equal(world.occ, world3)
    for plane in (frame.occ, world.occ):
        with pytest.raises(ValueError):
            plane[0, 0] = 1.0
    assert not np.shares_memory(frame.occ, world.occ)
    # before a step both are the seed's plane, which the run copied
    seed = builtin_seed("lshape", resolution=128)
    kept = seed.occ.copy()
    unstepped = AlignedRun(seed)
    seed.occ[...] = 0.0
    for rs in (unstepped.frame_raster(), unstepped.world_raster()):
        assert np.array_equal(rs.occ, kept)
        with pytest.raises(ValueError):
            rs.occ[0, 0] = 1.0


@pytest.mark.parametrize("name, n", [("lshape", 128), ("two-component", 127),
                                     ("annulus", 96)])
def test_stepped_frame_plane_is_its_row_flip(name, n):
    # every column is an interval from mid - half to mid + half, both
    # exact, as are the row edges, so the drawn plane is symmetric about
    # its midline bit for bit
    occ = _stepped_run(name, n, 5).frame_raster().occ
    assert occ.any()
    assert np.array_equal(occ, occ[::-1, :])


def test_world_raster_plane_cannot_be_edited_behind_its_profile():
    world = _stepped_run("lshape", 64, 3).world_raster()
    with pytest.raises(ValueError):
        world.occ[...] = 0.0
    assert world.occ.any()
    assert perimeter_estimate(world.with_occ(np.zeros_like(world.occ))) == 0.0


def test_world_raster_draws_its_plane_when_first_read():
    run = _stepped_run("lshape", 256, 3)
    plane = 8 * run.grid.nx * run.grid.ny
    taken = []
    tracemalloc.start()
    try:
        peak = _traced_peak(lambda: taken.append(run.world_raster()))
        drawn = _traced_peak(lambda: taken[0].occ)
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * plane, f"world_raster peak {peak / plane:.2f} planes"
    assert drawn >= plane, f"first read of occ peak {drawn / plane:.2f} planes"


def test_plain_perimeter_holds_less_than_a_plane():
    # the isoline reads the plane through views of the box around the set
    # and holds its class masks: about 0.39 of a plane here
    seed = builtin_seed("lshape", resolution=512)
    plane = seed.occ.nbytes
    tracemalloc.start()
    try:
        peak = _traced_peak(lambda: perimeter_estimate(seed))
    finally:
        tracemalloc.stop()
    assert peak < plane, f"perimeter_estimate peak {peak / plane:.2f} planes"


# ---------------------------------------------------------------------------
# the signed-area rasterizer and the column masses against one exact sweep
# ---------------------------------------------------------------------------
#
# Floats are exact rationals: a case's coordinates are integers over one
# power of two, an edge crosses a grid line at a parameter that is a ratio
# of integers, and the area a boundary sweeps in a column strip or a cell
# is exact. The kernels must come within c * U * scale of it, and keep the
# bits where they are exact: a cell that no edge enters reads +0.0 or 1.0.

#: c of each bound, with the largest ratio measured here in brackets. The
#: scale of a column mass: |w| (|u_a| + |u_b|) (|v_a| + |v_b|) summed over
#: the pieces a -> b in it and its two neighbours (rounding moves piece
#: ends across lines), in grid units from the left edge [0.94]; of a cell:
#: max(nx, ny) + 2, its largest grid coordinate and prefix sum [1.6]; of a
#: disk's cell that plus r / h, as (r / h)**2 (phi - sin(phi)) cancels [1.5].
COLUMN_MASS_ULPS, COVERAGE_ULPS, DISK_COVERAGE_ULPS = 4, 3, 4


def exact_sweep(p, q, w, grid, cells=False):
    """The mass in cells of each column strip that the edges p -> q with
    weights w bound, or with cells the covered fraction of each cell:
    ((approx, slack, terms), scales or entered), each value in floats within
    slack of exact and as integer fractions terms(k), with the columns'
    COLUMN_MASS_ULPS scales or the cells that an edge enters. Strips run
    between x0 + j h and y0 + i h, (x0, y0) the grid's lower-left corner,
    and pieces off the grid count in the first or last one. By Green's
    theorem a counterclockwise loop bounds -integral of v du, and its part
    in row i of a column -integral of (clip(v, y_i, y_i+1) - y_i) du."""
    p, q = np.reshape(p, (-1, 2)), np.reshape(q, (-1, 2))
    m = len(p)
    ints, den = as_integers(np.r_[p.T.ravel(), q.T.ravel(), np.broadcast_to(w, (m,)),
                                  -grid.half_width, -grid.half_height, grid.h])
    x0, y0, h = ints[-3:]
    lines = ([x0 + j * h for j in range(1, grid.nx)],
             [y0 + i * h for i in range(1, grid.ny)] if cells else [])
    # grid units, for the scales only
    gu, gv = ((p[:, 0] + grid.half_width) / grid.h).tolist(), (p[:, 1] / grid.h).tolist()
    gdu, gdv = ((q[:, 0] - p[:, 0]) / grid.h).tolist(), ((q[:, 1] - p[:, 1]) / grid.h).tolist()
    gw = np.abs(np.broadcast_to(w, (m,))).tolist()
    own, above, scales, entered = {}, {}, np.zeros(grid.nx), set()
    for e, (a_u, a_v, b_u, b_v, wt) in enumerate(zip(*(ints[k * m:(k + 1) * m] for k in range(5)))):
        du, dv = b_u - a_u, b_v - a_v
        if du == 0 and cells:  # sweeps nothing, but enters its cells
            j = min(max((a_u - x0) // h, 0), grid.nx - 1)
            rows = sorted(min(max((v - y0) // h, 0), grid.ny - 1) for v in (a_v, b_v))
            entered.update((i, j) for i in range(rows[0], rows[1] + 1))
        if du == 0 or wt == 0:
            continue
        # the point at t = tau / big_t along the edge: big_t is a common
        # denominator of the parameters of its crossings
        big_t, taus = du * (dv or 1), {0, du * (dv or 1)}
        for at, a, b, scale in zip(lines, (a_u, a_v), (b_u, b_v), (dv or 1, du)):
            crossed = at[bisect.bisect_right(at, min(a, b)):bisect.bisect_left(at, max(a, b))]
            taus.update((line - a) * scale for line in crossed)
        taus = sorted(taus, reverse=big_t < 0)
        for t0, t1 in zip(taus, taus[1:]):
            mid = (2 * big_t * (a_u - x0) + (t0 + t1) * du, 2 * big_t * (a_v - y0) + (t0 + t1) * dv)
            key = (min(max(mid[1] // (2 * big_t * h), 0), grid.ny - 1) if cells else 0,
                   min(max(mid[0] // (2 * big_t * h), 0), grid.nx - 1))
            # -w du times the integrals over t of v - y_row and of 1, in cells
            base = y0 + key[0] * h if cells else 0
            own.setdefault(key, []).append((
                -wt * du * (2 * big_t * (t1 - t0) * (a_v - base) + dv * (t1 * t1 - t0 * t0)),
                2 * big_t * big_t * den * h * h))
            if cells:
                above.setdefault(key, []).append((-wt * du * (t1 - t0), big_t * den * h))
                entered.add(key)
            else:
                s0, s1 = t0 / big_t, t1 / big_t
                scales[key[1]] += gw[e] * (abs(gu[e] + s0 * gdu[e]) + abs(gu[e] + s1 * gdu[e])) * (
                    abs(gv[e] + s0 * gdv[e]) + abs(gv[e] + s1 * gdv[e]))
    if not cells:
        approx, slack = np.transpose([fsum_slack(own.get((0, j), [])) for j in range(grid.nx)])
        # rounding moves piece ends across a line into the next column
        return (approx, slack, lambda j: own.get((0, j), [])), np.convolve(scales, np.ones(3))[1:-1]
    approx, slack = np.zeros((grid.ny, grid.nx)), np.zeros((grid.ny, grid.nx))
    for j in {j for _, j in own}:
        run, top = [], grid.ny  # what the pieces above sweep
        for i in sorted((i for i, k in own if k == j), reverse=True):
            approx[i + 1:top, j], slack[i + 1:top, j] = fsum_slack(run)
            approx[i, j], slack[i, j] = fsum_slack(own[(i, j)] + run)
            run, top = run + above[(i, j)], i
        approx[:top, j], slack[:top, j] = fsum_slack(run)

    def terms(k):
        i, j = divmod(k, grid.nx)
        return own.get((i, j), []) + [t for r in range(i + 1, grid.ny) for t in above.get((r, j), [])]
    inside = np.zeros((grid.ny, grid.nx), dtype=bool)
    inside[tuple(np.transpose(list(entered) or np.empty((0, 2), int)))] = True
    return (approx, slack, terms), inside


def fsum_slack(parts):
    """The integer fractions' sum in floats, and a bound on its error: each
    fraction rounds by at most U of itself, and fsum rounds its sum once."""
    near = [n / d for n, d in parts]
    total = math.fsum(near)
    return total, 2 * U * (math.fsum(map(abs, near)) + abs(total))


def assert_all_within(got, sweep, ulps, scale, what):
    """|got - exact| <= ulps * U * scale for every entry of an exact sweep:
    in floats where the gap is clearly inside, exactly elsewhere."""
    approx, slack, terms = sweep
    got, bound = np.ravel(got), ulps * U * np.ravel(np.broadcast_to(scale, np.shape(approx)))
    gap = np.abs(got - np.ravel(approx))
    for k in np.flatnonzero(gap * (1 + 4 * U) + np.ravel(slack) + 4 * U * np.abs(got) > bound):
        exact = abs(Fraction(got[k]) - sum(Fraction(n, d) for n, d in terms(k)))
        assert exact <= Fraction(bound[k]), (what, k, float(exact) / (U * bound[k] / ulps))


def assert_coverage_exact(v, grid):
    """_rasterize_polygon within COVERAGE_ULPS of the exact coverage, and a
    cell away from those an edge enters exactly +0.0 or 1.0 (a vertex that
    rounding puts off a grid line leaves a sliver of some U there)."""
    got = rasters._rasterize_polygon(v, grid)
    want, entered = exact_sweep(v, np.roll(v, -1, axis=0), 1.0, grid, cells=True)
    assert_all_within(got, want, COVERAGE_ULPS, max(grid.nx, grid.ny) + 2, "coverage")
    away = got[~near(entered)]
    assert np.all((away == 0.0) | (away == 1.0)) and not np.signbit(away).any()


def assert_column_masses_exact(p, q, w, grid, theta=0.0):
    """_column_masses of the edges turned by theta, within COLUMN_MASS_ULPS
    of the exact masses of the turned edges."""
    p, q = p @ _rotation(theta).T, q @ _rotation(theta).T
    got = rasters._column_masses(p, q, w, grid)
    want, scales = exact_sweep(p, q, w, grid)
    assert got.shape == (grid.nx,)
    assert_all_within(got, want, COLUMN_MASS_ULPS, scales, "column mass")


@st.composite
def polygons_on_grids(draw, max_cells=40):
    """A grid and a convex polygon inside it.

    Kinds: the hull of random points; the hull of points on grid lines
    (vertices on lines, axis-aligned edges); an axis-aligned rectangle;
    a polygon inside one cell; a polygon whose bounding box is the grid
    extent. Cell sizes include powers of two, where the grid lines of an
    origin-centred grid are exact integers in grid units.
    """
    nx = draw(st.integers(1, max_cells))
    ny = draw(st.integers(1, max_cells))
    h = draw(st.sampled_from([0.25, 1.0, 0.1, 0.37, 2.5]))
    grid = GridSpec(nx=nx, ny=ny, h=h)
    xe, ye = grid.x_edges(), grid.y_edges()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "on_lines", "rectangle", "in_cell", "extent")))
    n_points = draw(st.integers(3, 12))
    if kind == "on_lines":
        ix = rng.integers(0, nx + 1, n_points)
        iy = rng.integers(0, ny + 1, n_points)
        pts = np.column_stack([xe[ix], ye[iy]])
    else:
        if kind == "random":
            w = rng.random((n_points, 2))
        elif kind == "rectangle":
            (x0, x1), (y0, y1) = np.sort(rng.random((2, 2)), axis=1)
            w = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
        elif kind == "in_cell":
            i, j = rng.integers(0, ny), rng.integers(0, nx)
            w = (np.array([j, i]) + 0.05 + 0.9 * rng.random((n_points, 2))) / (nx, ny)
        else:
            # one vertex on each side of the grid box, plus interior points
            side = rng.random(4)
            w = np.vstack([
                [[side[0], 0.0], [1.0, side[1]], [side[2], 1.0], [0.0, side[3]]],
                rng.random((n_points, 2)),
            ])
        pts = np.column_stack([xe[0] + w[:, 0] * (xe[-1] - xe[0]),
                               ye[0] + w[:, 1] * (ye[-1] - ye[0])])
    # keep rounding from pushing a vertex past the grid box
    pts[:, 0] = np.clip(pts[:, 0], xe[0], xe[-1])
    pts[:, 1] = np.clip(pts[:, 1], ye[0], ye[-1])
    pts = np.unique(pts, axis=0)
    assume(len(pts) >= 3)
    hull = convex_hull(pts)
    assume(len(hull) >= 3)
    try:
        poly = ConvexPolygon(hull)
    except ValueError:
        assume(False)
    return poly, grid


def near(mask):
    """The cells of a mask and their eight neighbours."""
    padded = np.pad(mask, 1)
    ny, nx = mask.shape
    return np.any(
        [padded[di : di + ny, dj : dj + nx] for di in range(3) for dj in range(3)],
        axis=0,
    )


@settings(max_examples=400, deadline=None)
@given(polygons_on_grids())
def test_polygon_coverage_matches_the_exact_sweep(case):
    poly, grid = case
    assert_coverage_exact(poly.vertices, grid)


def test_fine_grid_coverage_matches_the_exact_sweep():
    grid = GridSpec.cover(math.sqrt(0.5), n=512)
    poly = ConvexPolygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.0), (-0.5, 0.0)])
    assert_coverage_exact(poly.vertices, grid)


def test_saturated_polygon_area_is_exact():
    poly = ConvexPolygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    for x in sequence_values("kf", 20):
        poly = steiner_polygon(poly, math.pi * float(x))
    assert len(poly) >= 30_000
    rs = rasterize(poly, GridSpec.cover(poly.circumradius(), n=128))
    assert abs(rs.area() - poly.area()) <= 1e-12 * poly.area()


# ---------------------------------------------------------------------------
# exact disk coverage against an extended-precision oracle
# ---------------------------------------------------------------------------

ORACLE_DIGITS = 50


def _asin_series(z):
    """asin(z) for 0 <= z <= 0.75 by its Taylor series, to ORACLE_DIGITS."""
    term = total = z
    z2 = z * z
    eps = Decimal(10) ** -(ORACLE_DIGITS + 5)
    n = 0
    while abs(term) > eps:
        n += 1
        term *= z2 * (2 * n - 1) * (2 * n - 1) / ((2 * n) * (2 * n + 1))
        total += term
    return total


def _decimal_disk_coverage(grid, r, cells):
    """Covered fraction of each (i, j) in cells by the origin disk of
    radius r, in Decimal arithmetic.

    The area of the disk inside [x0, x1] x [y0, y1] is the inclusion-
    exclusion G(x1, y1) - G(x0, y1) - G(x1, y0) + G(x0, y0) of the signed
    quadrant area G(x, y) = sign(x) sign(y) Q(|x|, |y|), where Q(a, b) is
    the area of the disk inside [0, a] x [0, b]. With a, b <= r and
    a**2 + b**2 > r**2, Q = b c + I(a) - I(c) for c = sqrt(r**2 - b**2)
    and I(t) = (t sqrt(r**2 - t**2) + r**2 asin(t / r)) / 2.
    """
    r = Decimal(r)
    r2 = r * r
    half_pi = 3 * _asin_series(Decimal("0.5"))

    def asin(z):
        if z <= Decimal("0.7"):
            return _asin_series(z)
        return half_pi - _asin_series((1 - z * z).sqrt())

    def integral(t):
        return (t * (r2 - t * t).sqrt() + r2 * asin(t / r)) / 2

    integrals = {}

    def quadrant(a, b):
        a, b = min(abs(a), r), min(abs(b), r)
        if a * a + b * b <= r2:
            return a * b
        c = (r2 - b * b).sqrt()
        for t in (a, c):
            if t not in integrals:
                integrals[t] = integral(t)
        return b * c + integrals[a] - integrals[c]

    def signed(x, y):
        return quadrant(x, y).copy_sign(x * y) if x * y else Decimal(0)

    xe = [Decimal(x) for x in grid.x_edges()]
    ye = [Decimal(y) for y in grid.y_edges()]
    out = []
    for i, j in cells:
        x0, x1, y0, y1 = xe[j], xe[j + 1], ye[i], ye[i + 1]
        covered = signed(x1, y1) - signed(x0, y1) - signed(x1, y0) + signed(x0, y0)
        out.append(covered / ((x1 - x0) * (y1 - y0)))
    return out


def assert_disk_fraction_exact(got, grid, r, touching=True):
    """A disk's coverage within DISK_COVERAGE_ULPS of 50 digits, with the
    cells the circle misses or covers exactly 0.0 or 1.0 and no -0.0; with
    touching, also the cells it only touches at a point, whose coverage
    is exactly 0 or 1 (a circle tangent to a grid line may leave 1e-29
    in the cells beyond it)."""
    xe, ye = grid.x_edges(), grid.y_edges()
    # nearest and farthest point of every cell from the origin; cells that
    # float arithmetic places clearly inside or outside need no oracle
    near_x = np.maximum(np.maximum(xe[:-1], -xe[1:]), 0.0)[None, :]
    near_y = np.maximum(np.maximum(ye[:-1], -ye[1:]), 0.0)[:, None]
    far_x = np.maximum(np.abs(xe[:-1]), np.abs(xe[1:]))[None, :]
    far_y = np.maximum(np.abs(ye[:-1]), np.abs(ye[1:]))[:, None]
    inside = np.hypot(far_x, far_y) < r * (1.0 - 1e-9)
    outside = np.hypot(near_x, near_y) > r * (1.0 + 1e-9)
    band = np.argwhere(~inside & ~outside)
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS + 10
        covered = _decimal_disk_coverage(grid, r, band)
    want = np.where(inside, 1.0, 0.0)
    want[band[:, 0], band[:, 1]] = [float(c) for c in covered]
    full, empty = inside.copy(), outside.copy()
    if touching:
        full[band[:, 0], band[:, 1]] = [c == 1 for c in covered]
        empty[band[:, 0], band[:, 1]] = [c == 0 for c in covered]
    scale = max(grid.nx, grid.ny) + 2 + r / grid.h
    gap = np.abs(got - want).max() if got.size else 0.0
    # want rounds each exact value once, within U of 1
    assert gap <= (DISK_COVERAGE_ULPS + 1) * U * scale, gap / (U * scale)
    assert np.all(got[full] == 1.0)
    assert np.all(got[empty] == 0.0)
    assert not np.signbit(got).any()


@pytest.mark.parametrize(
    "grid, r",
    [
        (GridSpec.cover(math.sqrt(0.5), n=512), math.sqrt(0.75 / math.pi)),
        (GridSpec.cover(math.sqrt(0.5), n=512), math.sqrt(1.0 / math.pi)),
        (GridSpec.cover(1.0, n=31), 0.9),
        (GridSpec.cover(1.0, n=32), 0.9),
        (GridSpec(nx=5, ny=5, h=1.0), 0.3),
        # through the grid corners (0.75, 1) and (1, 0.75): 0.75**2 + 1 == 1.25**2
        (GridSpec(nx=16, ny=16, h=0.25), 1.25),
        # tangent to the lines x = +-2.5 and y = +-2.5 at the middle of an arc
        (GridSpec(nx=15, ny=15, h=1.0), 2.5),
    ],
    ids=["lshape-512", "unit-area-512", "odd-31", "even-32", "in-one-cell",
         "through-corners", "tangent"],
)
def test_disk_fraction_matches_decimal_oracle(grid, r):
    assert_disk_fraction_exact(rasters._disk_fraction(grid, r), grid, r)


def test_disk_that_does_not_fit_the_grid_raises():
    grid = GridSpec(nx=16, ny=16, h=0.1)
    with pytest.raises(ValueError, match="shape exceeds the grid"):
        rasters._disk_fraction(grid, 0.81)
    with pytest.raises(ValueError, match="shape exceeds the grid"):
        rasters._ball_table(grid, math.pi * 0.81**2)


# ---------------------------------------------------------------------------
# grid edges, turned column masses and ball tables
# ---------------------------------------------------------------------------


def assert_raster_edges_exact(occ, grid):
    """_raster_edges, in any order: every unit side of the grid across which
    occ, with zeros around it, jumps, weighted by the jump rounded once;
    horizontal sides left to right with the value above minus the value
    below, vertical ones upwards with the value on the left minus the
    value on the right."""
    p, q, w = rasters._raster_edges(occ, grid)
    xe, ye = grid.x_edges(), grid.y_edges()
    z = np.pad(occ, 1)
    rise = z[1:, 1:-1] - z[:-1, 1:-1]  # at y_i: row i minus row i - 1
    fall = z[1:-1, :-1] - z[1:-1, 1:]  # at x_j: column j - 1 minus column j
    (i, j), (k, m) = np.nonzero(rise), np.nonzero(fall)
    want = zip(np.r_[xe[j], xe[m]], np.r_[ye[i], ye[k]], np.r_[xe[j + 1], xe[m]],
               np.r_[ye[i], ye[k + 1]], np.r_[rise[i, j], fall[k, m]])
    assert sorted(zip(*p.T, *q.T, w)) == sorted(want) and np.all(w != 0.0)
    return p, q, w


turns = st.one_of(angles, st.sampled_from([0.0, 0.5 * math.pi, math.pi, -0.25 * math.pi]))


@settings(max_examples=200, deadline=None)
@given(raster_sets(), turns, st.integers(0, 3))
def test_column_masses_of_turned_staircases_keep_their_bits(rs, theta, steps):
    # the staircase of a seed's column sums, and of up to three run steps
    run = AlignedRun(rs)
    half = rasters._interval_lengths(rs.occ.sum(axis=0), rs.grid.ny)
    for x in sequence_values("kf", steps):
        try:
            half = run.apply(math.pi * float(x))._lengths
        except ValueError:
            break
    p = rasters._staircase(rs.grid, half)
    assert_column_masses_exact(p, np.roll(p, -1, axis=0), 1.0, rs.grid, theta)


@settings(max_examples=200, deadline=None)
@given(raster_sets(), st.booleans(), turns)
def test_raster_edges_keep_their_bits(rs, signed_zeros, theta):
    occ = rs.occ.copy()
    if signed_zeros:
        occ[occ == 0.0] = -0.0
    p, q, w = assert_raster_edges_exact(occ, rs.grid)
    assert_column_masses_exact(p, q, w, rs.grid, theta)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_raster_edges_of_an_all_zero_plane_are_none(zero):
    grid = GridSpec(nx=7, ny=5, h=0.3)
    p, q, w = rasters._raster_edges(np.full((5, 7), zero), grid)
    assert p.shape == q.shape == (0, 2) and w.shape == (0,)
    masses = rasters._column_masses(p, q, w, grid)
    assert np.array_equal(masses, np.zeros(7)) and not np.signbit(masses).any()


@st.composite
def framed_polygons(draw):
    """A grid and a convex polygon whose vertices lie on the grid's frame,
    so its pieces reach the first and last rows and columns and those on
    the frame clip into them."""
    nx, ny = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    grid = GridSpec(nx=nx, ny=ny, h=draw(st.sampled_from([0.05, 0.37, 1.0])))
    w, h = grid.half_width, grid.half_height
    # counterclockwise positions along the frame, from its bottom-left corner
    length = 2.0 * (nx + ny)
    stops = sorted(set(draw(st.lists(
        st.one_of(st.integers(0, int(length) - 1).map(float),
                  st.floats(0.0, length, exclude_max=True)),
        min_size=3, max_size=8))))
    assume(len(stops) >= 3)
    pts = []
    for s in stops:
        if s < nx:
            pts.append((-w + s * grid.h, -h))
        elif s < nx + ny:
            pts.append((w, -h + (s - nx) * grid.h))
        elif s < 2 * nx + ny:
            pts.append((w - (s - nx - ny) * grid.h, h))
        else:
            pts.append((-w, h - (s - 2 * nx - ny) * grid.h))
    v = np.array(pts)
    x, y = v[:, 0], v[:, 1]
    assume(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0.0)
    return np.clip(v, (-w, -h), (w, h)), grid


@settings(max_examples=200, deadline=None)
@given(framed_polygons(), turns)
def test_pieces_clipped_to_the_first_or_last_column_keep_their_bits(case, theta):
    v, grid = case
    assert_coverage_exact(v, grid)
    # turned, the polygon leaves the grid, and the column masses clip its
    # pieces into the first and last columns
    assert_column_masses_exact(v, np.roll(v, -1, axis=0), 1.0, grid, theta)


@settings(max_examples=200, deadline=None)
@given(rotated_polygons())
def test_rotated_polygons_keep_their_bits(case):
    v, grid = case
    assert_coverage_exact(v, grid)
    assert_column_masses_exact(v, np.roll(v, -1, axis=0), 1.0, grid)


@settings(max_examples=200, deadline=None)
@given(raster_sets(), angles)
def test_turned_staircases_match_the_exact_sweep(rs, theta):
    # the non-convex loops a world draw rasterizes, whose connector edges
    # run there and back, at half size so that every turn fits the grid
    g = rs.grid
    loop = 0.5 * rasters._staircase(g, rasters._interval_lengths(rs.occ.sum(axis=0), g.ny))
    assume(len(loop) and np.hypot(*loop.T).max() < min(g.half_width, g.half_height))
    assert_coverage_exact(loop @ _rotation(theta).T, g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.sampled_from([0.05, 0.37, 1.0]),
       st.floats(0.01, 0.99))
def test_disks_and_ball_tables_keep_their_bits(nx, ny, h, fraction):
    grid = GridSpec(nx=nx, ny=ny, h=h)
    area = math.pi * (fraction * 0.5 * min(nx, ny) * h) ** 2
    r = math.sqrt(area / math.pi)
    ball, prefix = rasters._ball_table(grid, area)
    assert_disk_fraction_exact(ball, grid, r, touching=False)
    # the prefix sums are np.cumsum of the ball, bit for bit
    assert np.array_equal(prefix[1:].view(np.int64), np.cumsum(ball, axis=0).view(np.int64))
    assert np.array_equal(prefix[0].view(np.int64), np.zeros(nx).view(np.int64))


def test_first_run_step_scans_the_support_box_only():
    # a first oblique step reads the seed's grid edges from its support box:
    # about 0.9 planes at peak on the 512² lshape, 3.1 over the full grid
    seed = builtin_seed("lshape", resolution=512)
    run = AlignedRun(seed)
    theta = math.pi * float(sequence_values("kf", 1)[0])
    tracemalloc.start()
    try:
        peak = _traced_peak(lambda: run.apply(theta))
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * seed.occ.nbytes, f"first step peak {peak / seed.occ.nbytes:.2f} planes"
