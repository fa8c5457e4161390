import math
import pickle
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    assert_matches_oracle,
    convex_hull,
    oracle_hausdorff,
    random_convex_polygon,
)
from kfsteiner.metrics import d1_to_ball, hausdorff, measure
from kfsteiner.polygons import (
    COLLINEAR_REL_TOL,
    SIMPLIFY_AREA_FRACTION,
    Ball,
    ConvexPolygon,
    _chord_profile,
    _rotation,
    _shoelace,
    _simplify_profile,
    ball_hausdorff,
    ball_of_same_area,
    disk_intersection_area,
    load_polygon,
    reflect_polygon,
    regular_polygon,
    save_polygon,
    steiner_polygon,
    symmetry_defect,
)
from kfsteiner.process import builtin_seed
from kfsteiner.sequences import sequence_values

CENTERED_SQUARE = [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (0, 1), (1, 0)])  # clockwise
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (1, 0), (1, 0), (0, 1)])  # repeated vertex
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])  # reflex vertex
    with pytest.raises(ValueError, match="finite"):
        ConvexPolygon([(0, 0), (1, 0), (np.nan, 1)])
    with pytest.raises(ValueError, match="finite"):
        ConvexPolygon([(0, 0), (1, 0), (0, np.inf)])
    with pytest.raises(ValueError, match="zero extent"):
        ConvexPolygon([(0.3, 0.7)] * 3)
    with pytest.raises(ValueError, match="shape"):
        ConvexPolygon([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    # near-collinear vertices are tolerated
    ConvexPolygon([(0, 0), (0.5, -1e-12), (1, 0), (1, 1), (0, 1)])


def test_vertices_are_read_only_columns():
    poly = ConvexPolygon(np.array(CENTERED_SQUARE))
    v = poly.vertices
    assert v.shape == (4, 2)
    assert v.flags.f_contiguous
    assert not v.flags.writeable
    assert np.array_equal(v, CENTERED_SQUARE)
    # nor can the array be swapped, which would leave the area stale
    with pytest.raises(AttributeError):
        poly.vertices = np.array(CENTERED_SQUARE) * 2.0
    assert poly.area() == 1.0
    copied = pickle.loads(pickle.dumps(poly))
    assert not copied.vertices.flags.writeable
    assert np.array_equal(copied.vertices, v) and copied.area() == 1.0


def test_area_perimeter_moment():
    sq = ConvexPolygon(CENTERED_SQUARE)
    assert sq.area() == pytest.approx(1.0)
    assert sq.perimeter() == pytest.approx(4.0)
    assert sq.moment_about_origin() == pytest.approx(1.0 / 6.0)
    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    assert tri.area() == pytest.approx(0.5)


def test_ball_of_same_area():
    assert ball_of_same_area(math.pi).radius == pytest.approx(1.0)
    assert ball_of_same_area(1.0).radius == pytest.approx(0.5641895835477563)
    assert ball_of_same_area(0.0).radius == 0.0
    with pytest.raises(ValueError):
        ball_of_same_area(-1.0)
    with pytest.raises(ValueError):
        Ball(-0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_radius_or_area_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Ball(bad)
    with pytest.raises(ValueError, match="finite"):
        ball_of_same_area(bad)
    with pytest.raises(ValueError, match="finite"):
        disk_intersection_area(ConvexPolygon(CENTERED_SQUARE), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_direction_rejected(bad):
    with pytest.raises(ValueError, match=f"direction angle is {bad}"):
        steiner_polygon(ConvexPolygon(CENTERED_SQUARE), bad)


def test_square_to_rectangle():
    sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    out = steiner_polygon(sq, math.pi / 2)
    expected = np.array([(0, -0.5), (1, -0.5), (1, 0.5), (0, 0.5)])
    assert len(out) == 4
    got = out.vertices[np.lexsort((out.vertices[:, 1], out.vertices[:, 0]))]
    want = expected[np.lexsort((expected[:, 1], expected[:, 0]))]
    assert np.abs(got - want).max() < 1e-9
    assert out.area() == pytest.approx(1.0, abs=1e-12)


def test_triangle_to_kite():
    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    out = steiner_polygon(tri, math.pi / 2)
    expected = np.array([(0, -0.5), (1, 0.0), (0, 0.5)])
    assert len(out) == 3
    got = out.vertices[np.lexsort((out.vertices[:, 1], out.vertices[:, 0]))]
    want = expected[np.lexsort((expected[:, 1], expected[:, 0]))]
    assert np.abs(got - want).max() < 1e-9
    assert out.area() == pytest.approx(0.5, abs=1e-12)


def test_ball_polygon_fixed_point_on_axes():
    ball = regular_polygon(0.7, 64)
    for k in (0, 9, 32, 41):
        out = steiner_polygon(ball, k * math.pi / 64)
        assert symmetry_defect(out, k * math.pi / 64) < 1e-12
        assert hausdorff(ball, out) < 1e-9


def test_ball_polygon_near_fixed_generic_direction():
    # a generic direction moves an m-gon by about r * (2 pi / m)**2
    m = 256
    ball = regular_polygon(0.7, m)
    out = steiner_polygon(ball, 1.0)
    bound = 2.0 * 0.7 * (2 * math.pi / m) ** 2
    assert hausdorff(ball, out) < bound


def test_degenerate_polygon_rejected():
    sliver = [(0, 0), (1, 0), (1, 1e-13)]
    with pytest.raises(ValueError):
        steiner_polygon(ConvexPolygon(sliver), 0.3)


def test_random_suite_area_symmetry_idempotence_moment(rng):
    for _ in range(200):
        poly = random_convex_polygon(rng)
        theta = rng.random() * math.pi
        out = steiner_polygon(poly, theta)
        # area preservation
        assert abs(out.area() - poly.area()) <= 1e-9 * poly.area()
        # symmetry about the line orthogonal to the direction
        assert symmetry_defect(out, theta) <= 1e-9
        # moment never increases
        assert out.moment_about_origin() <= poly.moment_about_origin() + 1e-9
        # idempotence
        again = steiner_polygon(out, theta)
        assert len(again) == len(out)
        a = np.sort(out.vertices, axis=0)
        b = np.sort(again.vertices, axis=0)
        assert np.abs(a - b).max() <= 1e-9


def test_moment_equality_for_symmetric_input(rng):
    # symmetrizing an already symmetric set keeps the moment
    ball = regular_polygon(0.6, 64)
    for k in (3, 20):
        theta = k * math.pi / 64
        out = steiner_polygon(ball, theta)
        assert out.moment_about_origin() == pytest.approx(
            ball.moment_about_origin(), rel=1e-12
        )


def test_reflect_polygon():
    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    out = reflect_polygon(tri, math.pi / 2)  # across the x axis
    want = np.array([(0, 0), (1, 0), (0, -1)])
    got = out.vertices[np.lexsort((out.vertices[:, 1], out.vertices[:, 0]))]
    want = want[np.lexsort((want[:, 1], want[:, 0]))]
    assert np.abs(got - want).max() < 1e-12


def test_disk_intersection_against_segment_oracle():
    # unit square centered at the origin against the ball of equal area:
    # the disk pokes out through each edge by one circular segment
    sq = ConvexPolygon(CENTERED_SQUARE)
    r = math.sqrt(1.0 / math.pi)
    seg = r * r * math.acos(0.5 / r) - 0.5 * math.sqrt(r * r - 0.25)
    oracle = math.pi * r * r - 4.0 * seg
    assert disk_intersection_area(sq, r) == pytest.approx(oracle, abs=1e-12)


def test_disk_intersection_monte_carlo(rng):
    poly = random_convex_polygon(rng, center=(0.2, -0.1))
    r = 0.8
    exact = disk_intersection_area(poly, r)
    pts = rng.random((200_000, 2)) * 2.4 - 1.2
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    rel = pts[:, None, :] - v[None, :, :]
    inside_poly = np.all(
        e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0] >= 0, axis=1
    )
    inside_disk = (pts**2).sum(axis=1) <= r * r
    mc = np.count_nonzero(inside_poly & inside_disk) / len(pts) * 2.4**2
    assert exact == pytest.approx(mc, abs=4e-2)
    assert disk_intersection_area(poly, 0.0) == 0.0


def test_ball_hausdorff_square():
    sq = ConvexPolygon(CENTERED_SQUARE)
    r = math.sqrt(1.0 / math.pi)
    assert ball_hausdorff(sq, r) == pytest.approx(math.sqrt(0.5) - r, abs=1e-12)
    # origin outside the polygon: the support minimum is minus its distance
    off = ConvexPolygon([(2, 2), (3, 2), (3, 3), (2, 3)])
    d = ball_hausdorff(off, 0.5)
    assert d == pytest.approx(math.hypot(3, 3) - 0.5, abs=1e-12)
    # balls large enough that the support minimum decides, in directions
    # off any regular sampling: nearest at a vertex, then inside an edge
    corner = ConvexPolygon([(2, 1.3), (3, 1.3), (3, 2.3), (2, 2.3)])
    assert ball_hausdorff(corner, 5.0) == pytest.approx(5.0 + math.hypot(2, 1.3), abs=1e-12)
    strip = ConvexPolygon([(-1, 1), (1, 1.2), (1, 2), (-1, 2)])
    want = 3.0 + 2.2 / math.hypot(2, 0.2)
    assert ball_hausdorff(strip, 3.0) == pytest.approx(want, abs=1e-12)


def test_polygon_file_roundtrip(tmp_path):
    poly = ConvexPolygon(CENTERED_SQUARE)
    path = tmp_path / "sq.txt"
    save_polygon(path, poly)
    back = load_polygon(path)
    assert np.abs(back.vertices - poly.vertices).max() < 1e-14

    cw = tmp_path / "cw.txt"
    cw.write_text("# clockwise square\n0 0\n0 1\n1 1\n1 0\n")
    with pytest.warns(UserWarning, match="reorienting"):
        fixed = load_polygon(cw)
    assert fixed.area() == pytest.approx(1.0)

    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n1 0\n")
    with pytest.raises(ValueError):
        load_polygon(bad)


# ---------------------------------------------------------------------------
# The row-major kernels as they were before the vertices became two
# contiguous columns, kept as oracles: the column kernels must give the
# same bits.
# ---------------------------------------------------------------------------


def oracle_shoelace(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def oracle_validate(vertices):
    """The ConvexPolygon checks on a row-major array; returns the array."""
    v = np.array(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError("need at least 3 vertices of shape (m, 2)")
    if not np.all(np.isfinite(v)):
        raise ValueError("vertices must be finite")
    span = float(np.ptp(v, axis=0).max())
    if span <= 0.0:
        raise ValueError("degenerate polygon with zero extent")
    edges = np.roll(v, -1, axis=0) - v
    if np.any(np.hypot(edges[:, 0], edges[:, 1]) <= 1e-12 * span):
        raise ValueError("repeated consecutive vertices")
    if oracle_shoelace(v) <= 0.0:
        raise ValueError("vertices must be ordered counterclockwise")
    nxt = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    if np.any(cross < -COLLINEAR_REL_TOL * span * span):
        raise ValueError("polygon is not convex")
    return v


def oracle_moment(v):
    p = np.ascontiguousarray(v)
    q = np.roll(p, -1, axis=0)
    cross = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    terms = (p * p).sum(axis=1) + (p * q).sum(axis=1) + (q * q).sum(axis=1)
    return float(np.sum(cross * terms) / 12.0)


def oracle_disk_intersection_area(v, radius):
    """The per-edge form disk_intersection_area had before the segment
    form: two arctans on every edge. It no longer gives the same bits;
    test_disk_intersection_matches_decimal_oracle measures both."""
    if radius <= 0.0:
        return 0.0
    p = np.ascontiguousarray(v)
    q = np.roll(p, -1, axis=0)
    d = q - p
    a = (d * d).sum(axis=1)
    b = (p * d).sum(axis=1)
    c = (p * p).sum(axis=1) - radius**2
    disc = b * b - a * c
    root = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = np.clip(np.where(a > 0.0, (-b - root) / a, 0.0), 0.0, 1.0)
        t1 = np.clip(np.where(a > 0.0, (-b + root) / a, 0.0), 0.0, 1.0)
    miss = disc <= 0.0
    t0 = np.where(miss, 0.0, t0)
    t1 = np.where(miss, 0.0, t1)
    entry = p + t0[:, None] * d
    exit_ = p + t1[:, None] * d

    def _sector(u, w):
        cross = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
        dot = (u * w).sum(axis=1)
        return 0.5 * radius**2 * np.arctan2(cross, dot)

    straight = 0.5 * (entry[:, 0] * exit_[:, 1] - entry[:, 1] * exit_[:, 0])
    total = _sector(p, entry) + straight + _sector(exit_, q)
    return float(np.sum(total))


def oracle_chain_envelope(chain, span, take_min):
    x = chain[:, 0]
    y = chain[:, 1]
    new = np.empty(len(x), dtype=bool)
    new[0] = True
    new[1:] = np.diff(x) > 1e-12 * span
    starts = np.nonzero(new)[0]
    gx = x[starts]
    gy = np.minimum.reduceat(y, starts) if take_min else np.maximum.reduceat(y, starts)
    return gx, gy


def oracle_chord_profile(v):
    m = len(v)
    order = np.lexsort((v[:, 1], v[:, 0]))
    i_lo, i_hi = int(order[0]), int(order[-1])
    idx = (np.arange(m) + i_lo) % m
    vr = v[idx]
    j = int(np.nonzero(idx == i_hi)[0][0])
    lower = vr[: j + 1]
    upper = np.concatenate([vr[j:], vr[:1]])[::-1]

    xs = np.unique(v[:, 0])
    span = xs[-1] - xs[0]
    if span <= 0.0:
        raise ValueError("polygon collapses to a vertical segment in this frame")
    keep = np.empty(len(xs), dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(xs) > 1e-12 * span
    xs = xs[keep]

    lo_x, lo_y = oracle_chain_envelope(lower, span, take_min=True)
    up_x, up_y = oracle_chain_envelope(upper, span, take_min=False)
    lo = np.interp(xs, lo_x, lo_y)
    up = np.interp(xs, up_x, up_y)
    return xs, np.maximum(up - lo, 0.0)


#: Largest gap allowed between disk_intersection_area and the per-edge
#: form, relative to pi r**2. Against the decimal oracle the per-edge form
#: errs by up to 2.0e-15 of the area on the saturated kf polygon, the
#: segment form by 9e-17; over 20000 polygons of the strategy below the
#: two differ by at most 1.1e-15 of pi r**2.
PER_EDGE_FORM_RTOL = 4e-15


def assert_kernels_match_oracles(poly, thetas):
    v = np.ascontiguousarray(poly.vertices)
    assert np.array_equal(oracle_validate(v), poly.vertices)
    assert poly.area() == oracle_shoelace(v)
    assert _shoelace(poly.vertices) == oracle_shoelace(v)
    assert poly.moment_about_origin() == oracle_moment(v)
    r_eq = math.sqrt(poly.area() / math.pi)
    for r in (0.0, 0.05, 0.5 * r_eq, r_eq, 1.5 * r_eq, 2.0 * poly.circumradius()):
        gap = disk_intersection_area(poly, r) - oracle_disk_intersection_area(v, r)
        assert abs(gap) <= PER_EDGE_FORM_RTOL * math.pi * r * r
    for theta in thetas:
        # the frame steiner_polygon hands to the chord profile
        rot = _rotation(0.5 * math.pi - theta)
        frame = poly.vertices @ rot.T
        xs, ell = _chord_profile(frame)
        want_xs, want_ell = oracle_chord_profile(frame)
        assert np.array_equal(xs, want_xs)
        assert np.array_equal(ell, want_ell)


@st.composite
def convex_polygons(draw):
    """Hulls of random points: real-valued, on a small lattice (many
    vertical and horizontal edges, so x ties at both extremes), thin, and
    far from the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "lattice", "thin", "offset")))
    n = draw(st.integers(3, 40))
    if kind == "lattice":
        pts = rng.integers(-4, 5, (n, 2)).astype(float) * 0.25
    else:
        pts = rng.random((n, 2)) * 2.0 - 1.0
        if kind == "thin":
            pts[:, 1] *= 1e-3
        elif kind == "offset":
            pts += rng.uniform(-5.0, 5.0, 2)
    pts = np.unique(pts, axis=0)
    assume(len(pts) >= 3)
    hull = convex_hull(pts)
    assume(len(hull) >= 3)
    try:
        oracle_validate(hull)
    except ValueError:
        assume(False)
    return ConvexPolygon(hull)


@settings(max_examples=300, deadline=None)
@given(convex_polygons(), st.lists(st.floats(0.0, math.pi), min_size=1, max_size=4))
def test_column_kernels_match_row_major_oracles(poly, thetas):
    assert_kernels_match_oracles(poly, thetas + [0.0, 0.5 * math.pi])


def reflected_oracle(poly, theta):
    """The polygon reflected point by point, v - 2 (v.u) u, reordered CCW."""
    u = np.array([math.cos(theta), math.sin(theta)])
    v = np.ascontiguousarray(poly.vertices)
    return ConvexPolygon((v - 2.0 * np.outer(v @ u, u))[::-1])


@settings(max_examples=200, deadline=None)
@given(convex_polygons(), st.floats(0.0, math.pi))
def test_symmetry_defect_is_the_gap_to_the_reflected_set(poly, theta):
    for p in (poly, steiner_polygon(poly, theta)):
        assert_matches_oracle(symmetry_defect(p, theta),
                              oracle_hausdorff(p, reflected_oracle(p, theta), 0.05))


@st.composite
def vertex_lists(draw):
    """Arbitrary point lists, so every constructor check gets hit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(-3, 4, (draw(st.integers(1, 12)), 2)).astype(float)
    kind = draw(st.sampled_from(("points", "hull", "reversed", "repeat", "non-finite")))
    if kind in ("hull", "reversed", "repeat"):
        uniq = np.unique(pts, axis=0)
        pts = convex_hull(uniq) if len(uniq) >= 3 else uniq
        if kind == "reversed":
            pts = pts[::-1]
        elif kind == "repeat":
            pts = np.insert(pts, 1, pts[0], axis=0)
    elif kind == "non-finite":
        pts[rng.integers(0, len(pts))] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    return pts


@settings(max_examples=300, deadline=None)
@given(vertex_lists())
def test_constructor_checks_match_row_major_oracle(pts):
    try:
        want = oracle_validate(pts)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            ConvexPolygon(pts)
        assert str(err.value) == str(exc)
    else:
        assert np.array_equal(ConvexPolygon(pts).vertices, want)


@pytest.fixture(scope="module")
def saturated_kf_polygon():
    poly = ConvexPolygon(CENTERED_SQUARE)
    for x in sequence_values("kf", 40):
        poly = steiner_polygon(poly, math.pi * float(x))
    return poly


def test_column_kernels_match_oracles_on_saturated_polygon(saturated_kf_polygon):
    poly = saturated_kf_polygon
    assert len(poly) >= 40_000
    thetas = [math.pi * float(x) for x in sequence_values("kf", 41)[-3:]]
    assert_kernels_match_oracles(poly, thetas + [0.0, 0.5 * math.pi])


@pytest.mark.parametrize("theta", [0.5 * math.pi, 0.0])
def test_chord_profile_on_axis_aligned_square(theta):
    # vertical edges at both x extremes: the lexsort tie-breaks decide
    # where the lower and upper chains start and end
    rot = _rotation(0.5 * math.pi - theta)
    frame = ConvexPolygon(CENTERED_SQUARE).vertices @ rot.T
    for k in range(4):
        v = np.roll(frame, k, axis=0)
        xs, ell = _chord_profile(v)
        want_xs, want_ell = oracle_chord_profile(v)
        assert np.array_equal(xs, want_xs)
        assert np.array_equal(ell, want_ell)
    assert np.array_equal(ell, [1.0, 1.0])


@pytest.mark.parametrize("verts", [
    [(0, 0), (2, -1), (3, 1), (0, 2)],  # leftmost x shared by two vertices
    [(0, 2), (0, 1), (0, 0), (2, -1), (3, 1)],  # ... by three, collinear
    [(0, 0), (3, -1), (3, 0), (3, 1), (1, 1)],  # rightmost x shared by three
])
def test_chord_profile_with_shared_extreme_x(verts):
    for k in range(len(verts)):
        v = np.roll(ConvexPolygon(verts).vertices, k, axis=0)
        xs, ell = _chord_profile(v)
        want_xs, want_ell = oracle_chord_profile(np.ascontiguousarray(v))
        assert np.array_equal(xs, want_xs)
        assert np.array_equal(ell, want_ell)


# ---------------------------------------------------------------------------
# A whole step and the edge kernels as they were with np.roll and row-major
# frames, kept as oracles: the step must give the same bits.
# ---------------------------------------------------------------------------


def oracle_simplify_profile(xs, ell, eps_area):
    """The breakpoint merge with its runs walked point by point: in each
    pass, every other point of a run of removable ones goes, from its
    first."""
    for _ in range(64):
        if len(xs) <= 2:
            break
        x1, y1 = xs[:-2], ell[:-2]
        x2, y2 = xs[1:-1], ell[1:-1]
        x3, y3 = xs[2:], ell[2:]
        double_area = np.abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
        removable = double_area <= 2.0 * eps_area
        if not removable.any():
            break
        keep = np.ones(len(xs), dtype=bool)
        run = 0
        for i, r in enumerate(removable.tolist(), start=1):
            run = run + 1 if r else 0
            keep[i] = run % 2 == 0
        xs, ell = xs[keep], ell[keep]
    return xs, ell


def oracle_profile_polygon(xs, ell):
    half = 0.5 * ell
    tiny = 1e-12 * max(float(half.max()), xs[-1] - xs[0])
    bottom = np.column_stack([xs, -half])
    top = np.column_stack([xs, half])[::-1]
    if half[-1] <= tiny:
        top = top[1:]
    if half[0] <= tiny:
        top = top[:-1]
    return np.concatenate([bottom, top])


def oracle_steiner_polygon(poly, theta):
    """steiner_polygon on row-major arrays, from the oracles above."""
    v = np.ascontiguousarray(poly.vertices)
    area0 = oracle_shoelace(v)
    rot = _rotation(0.5 * math.pi - theta)
    xs, ell = oracle_chord_profile(v @ rot.T)
    xs, ell = oracle_simplify_profile(xs, ell, SIMPLIFY_AREA_FRACTION * area0)
    out = oracle_profile_polygon(xs, ell) @ rot
    return oracle_validate(out * math.sqrt(area0 / oracle_shoelace(out)))


def oracle_perimeter(v):
    e = np.roll(v, -1, axis=0) - v
    return float(np.hypot(e[:, 0], e[:, 1]).sum())


def oracle_contains_origin(v):
    d = np.roll(v, -1, axis=0) - v
    return bool(np.all(d[:, 0] * -v[:, 1] - d[:, 1] * -v[:, 0] >= 0.0))


def oracle_ball_hausdorff(v, radius):
    p = np.ascontiguousarray(v)
    q = np.roll(p, -1, axis=0)
    hi = float(np.hypot(p[:, 0], p[:, 1]).max())
    e = q - p
    if oracle_contains_origin(p):
        cross = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
        lo = float((np.abs(cross) / np.hypot(e[:, 0], e[:, 1])).min())
    else:
        t = np.clip(-(p[:, 0] * e[:, 0] + p[:, 1] * e[:, 1])
                    / (e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]), 0.0, 1.0)
        lo = -float(np.hypot(p[:, 0] + t * e[:, 0], p[:, 1] + t * e[:, 1]).min())
    return max(hi - radius, radius - lo, 0.0)


def oracle_polygon_hausdorff(a, b):
    """The support-function gap of polygons.hausdorff, with np.roll."""
    def normals(v):
        e = np.roll(v, -1, axis=0) - v
        length = np.hypot(e[:, 0], e[:, 1])
        nx, ny = e[:, 1] / length, -e[:, 0] / length
        return nx, ny, np.arctan2(ny, nx)

    def support(angles, t):
        order = np.argsort(angles, kind="stable")
        return order[np.searchsorted(angles[order], t) % len(angles)]

    va, vb = np.ascontiguousarray(a.vertices), np.ascontiguousarray(b.vertices)
    ax, ay, a_ang = normals(va)
    bx, by, b_ang = normals(vb)
    ang = np.concatenate([a_ang, b_ang])
    order = np.argsort(ang, kind="stable")
    ang = ang[order]
    u = np.column_stack([np.concatenate([ax, bx]), np.concatenate([ay, by])])[order]
    w = np.roll(u, -1, axis=0)
    end = np.append(ang[1:], ang[0] + 2.0 * math.pi)
    d = va[support(a_ang, end)] - vb[support(b_ang, end)]
    dx, dy = d[:, 0], d[:, 1]
    gap = np.maximum(np.abs(dx * u[:, 0] + dy * u[:, 1]),
                     np.abs(dx * w[:, 0] + dy * w[:, 1]))
    inner = (u[:, 0] * dy - u[:, 1] * dx) * (dx * w[:, 1] - dy * w[:, 0]) > 0.0
    return float(np.where(inner, np.hypot(dx, dy), gap).max())


def assert_steps_match_oracles(poly, thetas):
    v = np.ascontiguousarray(poly.vertices)
    assert poly.perimeter() == oracle_perimeter(v)
    assert poly.contains_origin() == oracle_contains_origin(v)
    r_eq = math.sqrt(poly.area() / math.pi)
    for r in (0.5 * r_eq, r_eq, 2.0 * r_eq):
        assert ball_hausdorff(poly, r) == oracle_ball_hausdorff(v, r)
    for theta in thetas:
        rot = _rotation(0.5 * math.pi - theta)
        # the frame steiner_polygon takes and the one the oracle takes
        assert np.array_equal((rot @ poly.vertices.T).T, v @ rot.T)
        out = steiner_polygon(poly, theta)
        assert np.array_equal(out.vertices, oracle_steiner_polygon(poly, theta))
        assert hausdorff(poly, out) == oracle_polygon_hausdorff(poly, out)


@settings(max_examples=200, deadline=None)
@given(convex_polygons(), st.lists(st.floats(0.0, math.pi), min_size=1, max_size=3))
def test_steps_and_edge_kernels_match_roll_oracles(poly, thetas):
    assert_steps_match_oracles(poly, thetas + [0.0, 0.5 * math.pi])
    off = ConvexPolygon(poly.vertices + 3.0 * poly.circumradius())
    assert not off.contains_origin()
    assert_steps_match_oracles(off, thetas)


def test_steps_match_roll_oracles_on_saturated_ellipse():
    poly = builtin_seed("ellipse")
    xs = [math.pi * float(x) for x in sequence_values("kf", 28)]
    for theta in xs[:25]:
        poly = steiner_polygon(poly, theta)
    assert len(poly) >= 50_000
    assert_steps_match_oracles(poly, xs[25:] + [0.0, 0.5 * math.pi])


# ---------------------------------------------------------------------------
# The moment and the disk parts as they were before they shared one pass
# over the edges, kept as oracles: measure, moment_about_origin, d1_to_ball
# and disk_intersection_area must give their bits.
# ---------------------------------------------------------------------------


def oracle_disk_parts(v, r):
    """(turn, segments) of the segment form of the disk intersection, each
    edge column formed from a row-major array with np.roll."""
    if r <= 0.0:
        return 0.0, 0.0
    r2 = r * r
    p = np.ascontiguousarray(v)
    q = np.roll(p, -1, axis=0)
    x, y, xn, yn = p[:, 0], p[:, 1], q[:, 0], q[:, 1]
    side = x * yn - y * xn
    near = x * x + y * y <= r2
    inner = near & np.roll(near, -1)
    whole = np.flatnonzero(inner)
    dx, dy = xn - x, yn - y
    a = dx * dx + dy * dy
    disc = r2 * a - side * side
    k = np.flatnonzero((disc > 0.0) & ~inner)
    px, py, qx, qy, dx, dy, a = x[k], y[k], xn[k], yn[k], dx[k], dy[k], a[k]
    root = np.sqrt(disc[k])
    t = np.clip((-root - (px * dx + py * dy)) / a, 0.0, 1.0)
    s = np.clip(((qx * dx + qy * dy) - root) / a, 0.0, 1.0)
    ex, ey = px + t * dx, py + t * dy
    fx, fy = qx - s * dx, qy - s * dy
    cross = np.concatenate([side[whole], np.copysign(ex * fy - ey * fx, side[k])])
    dot = np.concatenate([x[whole] * xn[whole] + y[whole] * yn[whole],
                          ex * fx + ey * fy])
    seg = 0.5 * (r2 * np.arctan2(cross, dot) - cross)
    seg[whole.size:][t + s >= 1.0] = 0.0
    if side.min() > 0.0:
        return None, float(np.sum(seg))
    dot = x * xn + y * yn
    on = (side == 0.0) & (dot <= 0.0)
    angle = float(np.sum(np.arctan2(side[~on], dot[~on])))
    if on.any():
        seg[np.isin(np.concatenate([whole, k]), np.flatnonzero(on))] = 0.0
    else:
        angle = 2.0 * math.pi * round(angle / (2.0 * math.pi))
    return angle, float(np.sum(seg))


def oracle_disk_area(v, r):
    turn, segments = oracle_disk_parts(v, r)
    if turn is None:
        return math.pi * (r * r) - segments
    return 0.5 * (r * r) * turn - segments


def oracle_polygon_d1(v, a):
    r = math.sqrt(a / math.pi)
    turn, segments = oracle_disk_parts(v, r)
    if turn is None:
        return 2.0 * segments
    return 2.0 * (a - (0.5 * (r * r) * turn - segments))


def assert_edge_pass_matches_oracles(poly):
    v = np.ascontiguousarray(poly.vertices)
    a = poly.area()
    record = measure(poly)
    assert record.mu == poly.moment_about_origin() == oracle_moment(v)
    assert record.d1_to_ball == d1_to_ball(poly) == oracle_polygon_d1(v, a)
    r_eq = math.sqrt(a / math.pi)
    for r in (0.0, 0.5 * r_eq, r_eq, 2.0 * poly.circumradius()):
        assert disk_intersection_area(poly, r) == oracle_disk_area(v, r)


def moved_copies(poly):
    """The polygon, and its copies moved so that the origin is its first
    vertex and the midpoint of its first edge: on the lattice of
    convex_polygons both are exact, the boundary paths of the disk parts.
    A move may round a near-collinear turn past the convexity tolerance;
    such a copy is left out."""
    v = poly.vertices
    out = [poly]
    for origin in (v[0], 0.5 * (v[0] + v[1])):
        try:
            out.append(ConvexPolygon(v - origin))
        except ValueError:
            pass
    return out


@settings(max_examples=300, deadline=None)
@given(convex_polygons())
def test_one_edge_pass_gives_the_moment_and_d1_bits(poly):
    for p in moved_copies(poly):
        assert_edge_pass_matches_oracles(p)


@pytest.mark.parametrize("verts", [
    [(0, 0), (1, 0), (1, 1), (0, 1)],  # origin at a vertex
    [(-1, 0), (1, 0), (1, 1), (-1, 1)],  # origin on an edge
    [(-1, -1), (1, -1), (1, 1e-9), (0.5, 0), (-1, 1e-9)],  # inside, by a reflex turn
    [(2, 1), (3, 1), (3, 2)],  # origin outside
])
def test_one_edge_pass_on_the_paths_off_winding_one(verts):
    poly = ConvexPolygon(verts)
    p = np.ascontiguousarray(poly.vertices)
    q = np.roll(p, -1, axis=0)
    # some cross(p, q) <= 0: the disk parts sum the angles
    assert np.min(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]) <= 0.0
    assert_edge_pass_matches_oracles(poly)


def test_one_edge_pass_on_the_saturated_polygon(saturated_kf_polygon):
    assert len(saturated_kf_polygon) >= 40_000
    assert_edge_pass_matches_oracles(saturated_kf_polygon)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 1000, 1001])
def test_merge_of_an_all_removable_profile(n):
    # a parabola sampled at spacing h: every triangle of neighbours has
    # twice the area 2 h**3, so with eps 4 h**3 the first pass finds every
    # interior point removable, and the spacing 2 h after it mostly not
    xs = np.linspace(-1.0, 1.0, n)
    h = xs[1] - xs[0]
    ell = 1.0 - xs * xs
    for eps in (4.0 * h**3, 1.0):  # and one where every pass removes all
        got_xs, got_ell = _simplify_profile(xs, ell, eps)
        want_xs, want_ell = oracle_simplify_profile(xs, ell, eps)
        assert np.array_equal(got_xs, want_xs)
        assert np.array_equal(got_ell, want_ell)
    if n % 2:
        # the first pass keeps xs[::2], and at spacing 2 h the second none
        assert np.array_equal(_simplify_profile(xs, ell, 4.0 * h**3)[0], xs[::2])
    assert np.array_equal(_simplify_profile(xs, ell, 1.0)[0], [xs[0], xs[-1]])


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 600), st.data())
def test_merge_with_kinks_matches_the_point_by_point_oracle(n, data):
    # kinks in the removable parabola above keep their points and their
    # neighbours: few of them take the sliced runs, many the index pass
    xs = np.linspace(-1.0, 1.0, n)
    h = xs[1] - xs[0]
    ell = 1.0 - xs * xs
    kinks = data.draw(st.lists(st.integers(0, n - 1), max_size=min(n, 120)))
    ell[kinks] += 0.25
    got_xs, got_ell = _simplify_profile(xs, ell, 4.0 * h**3)
    want_xs, want_ell = oracle_simplify_profile(xs, ell, 4.0 * h**3)
    assert np.array_equal(got_xs, want_xs)
    assert np.array_equal(got_ell, want_ell)


# ---------------------------------------------------------------------------
# disk intersection against an extended-precision oracle
# ---------------------------------------------------------------------------

ORACLE_DIGITS = 40

#: Bound on the error of disk_intersection_area against the decimal
#: oracle, relative to pi r**2: a few units in the last place of the disk
#: area. The largest error over the cases below is 2.0e-16, with the
#: polygon inside the disk. The per-edge form (oracle_disk_intersection_area)
#: errs by 2.6e-6 with the origin 5e-13 off a vertex, where its chord end
#: p + 1 * (q - p) misses q, and by at most 2.6e-16 elsewhere.
DISK_AREA_RTOL = 5e-16


def decimal_atan(z):
    """atan(z) for 0 <= z <= 1: halve the angle until z < 1/32, then sum
    the Taylor series."""
    halvings = 0
    while z > Decimal(1) / 32:
        z = z / (1 + (1 + z * z).sqrt())
        halvings += 1
    term = total = z
    z2 = z * z
    eps = Decimal(10) ** -(ORACLE_DIGITS + 5)
    n = 0
    while abs(term) > eps:
        n += 1
        term *= -z2
        total += term / (2 * n + 1)
    return total * 2**halvings


def decimal_angle(ux, uy, wx, wy, pi):
    """Signed angle from u to w in (-pi, pi]; 0 if either is zero."""
    y = ux * wy - uy * wx
    x = ux * wx + uy * wy
    if y == 0 and x >= 0:
        return Decimal(0)
    ay, ax = abs(y), abs(x)
    angle = decimal_atan(ay / ax) if ay <= ax else pi / 2 - decimal_atan(ax / ay)
    if x < 0:
        angle = pi - angle
    return angle if y >= 0 else -angle


def decimal_disk_intersection_area(vertices, radius):
    """Area of the polygon inside the origin disk, in Decimal arithmetic.

    Green's theorem about the origin, edge by edge: the apex triangle of
    p -> q clipped to the disk is a sector from p to the chord's start e,
    the triangle (0, e, f) and a sector from the chord's end f to q. The
    sectors lie outside the disk, so they never see the origin on their
    edge, and an edge through the origin adds a triangle of area zero.
    """
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS + 10
        pi = 4 * decimal_atan(Decimal(1))
        r2 = Decimal(radius) ** 2
        zero, one = Decimal(0), Decimal(1)
        pts = [(Decimal(x), Decimal(y)) for x, y in np.asarray(vertices).tolist()]
        total = zero
        for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1]):
            dx, dy = qx - px, qy - py
            a = dx * dx + dy * dy
            b = px * dx + py * dy
            disc = b * b - a * (px * px + py * py - r2)
            t0 = t1 = zero
            if disc > 0:
                root = disc.sqrt()
                t0 = min(max((-b - root) / a, zero), one)
                t1 = min(max((-b + root) / a, zero), one)
            ex, ey = (px, py) if t0 == 0 else (px + t0 * dx, py + t0 * dy)
            fx, fy = (qx, qy) if t1 == 1 else (px + t1 * dx, py + t1 * dy)
            arcs = decimal_angle(px, py, ex, ey, pi) + decimal_angle(fx, fy, qx, qy, pi)
            total += r2 * arcs / 2 + (ex * fy - ey * fx) / 2
        return total


@pytest.fixture(scope="module")
def kf_iterate_2k():
    poly = ConvexPolygon(CENTERED_SQUARE)
    for x in sequence_values("kf", 10):
        poly = steiner_polygon(poly, math.pi * float(x))
    return poly


def test_disk_intersection_matches_decimal_oracle(kf_iterate_2k):
    square = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    unit = [(0, 0), (1, 0), (1, 1), (0, 1)]
    slanted = [(-0.5, -0.25), (1, 0.5), (0.25, 1.25), (-1.25, 0.5)]
    pentagon = [(-0.7, -0.4), (0.5, -0.6), (0.9, 0.2), (0.3, 0.8), (-0.6, 0.5)]
    iterate = kf_iterate_2k
    assert 2000 <= len(iterate) <= 2100
    r_eq = math.sqrt(iterate.area() / math.pi)
    cases = [
        ("origin inside", pentagon, 0.6),
        ("origin outside", np.add(pentagon, (0.9, 0.3)), 0.8),
        ("origin on an edge: half disk", [(-1, 0), (1, 0), (1, 1), (-1, 1)], 0.7),
        ("origin on a slanted edge: half disk", slanted, 0.4),
        ("origin on a slanted edge", slanted, 1.0),
        ("origin at a vertex: quarter disk", unit, 0.5),
        ("origin at a vertex", unit, 1.2),
        ("origin at a slanted vertex", [(0, 0), (1, 0.25), (0.25, 1)], 0.6),
        ("origin 5e-13 off a vertex", np.add(unit, (3e-13, 4e-13)), 0.1),
        ("origin inside, by a reflex turn",
         [(-1, -1), (1, -1), (1, 1e-9), (0.5, 0), (-1, 1e-9)], 0.6),
        ("disk inside the polygon", square, 0.3),
        ("tangent edges", square, 1.0),
        ("zero radius", square, 0.0),
        ("kf iterate", iterate, 0.5 * r_eq),
        ("kf iterate", iterate, r_eq),
        ("kf iterate", iterate, 1.5 * r_eq),
        ("polygon inside the disk", iterate, 2.0 * iterate.circumradius()),
    ]
    for name, verts, r in cases:
        poly = verts if isinstance(verts, ConvexPolygon) else ConvexPolygon(verts)
        want = decimal_disk_intersection_area(poly.vertices, r)
        err = abs(Decimal(disk_intersection_area(poly, r)) - want)
        assert err <= Decimal(DISK_AREA_RTOL * math.pi * r * r), (name, r, float(err))
    assert disk_intersection_area(ConvexPolygon(unit), 0.5) == pytest.approx(
        math.pi * 0.25 / 4, rel=1e-15)


#: Bound on the gap between a polygon's d1_to_ball and 2 (pi r**2 - |P & B|)
#: in 40 digits, twice the disk's segments outside the polygon, relative
#: to the area a, with r = sqrt(a / pi) as d1_to_ball takes it. The sum
#: of segments errs by at most 4.5e-17 a on the cases below; the
#: difference 2 (a - |P & B|) it replaced by 3.9e-16 to 4.6e-16 a, the
#: rounding of a - pi r**2.
D1_SEGMENTS_RTOL = 1e-16


def test_polygon_d1_is_twice_the_segments_outside(kf_iterate_2k):
    for poly in (kf_iterate_2k, regular_polygon(0.7, 1024), regular_polygon(1.3, 2048)):
        a = poly.area()
        r = math.sqrt(a / math.pi)
        inside = decimal_disk_intersection_area(poly.vertices, r)
        with localcontext() as ctx:
            ctx.prec = ORACLE_DIGITS + 10
            want = 2 * (4 * decimal_atan(Decimal(1)) * Decimal(r) ** 2 - inside)
        err = abs(Decimal(d1_to_ball(poly)) - want)
        assert err <= Decimal(D1_SEGMENTS_RTOL * a), (len(poly), float(err / want))
