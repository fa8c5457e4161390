import bisect
import math
import pickle
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    U,
    as_integers,
    assert_matches_oracle,
    convex_hull,
    mirror_gap,
    oracle_hausdorff,
    random_convex_polygon,
)
from kfsteiner.metrics import d1_to_ball, measure
from kfsteiner.polygons import (
    COLLINEAR_REL_TOL,
    SIMPLIFY_AREA_FRACTION,
    Ball,
    ConvexPolygon,
    _chord_profile,
    _frame,
    _profile_area,
    _profile_polygon,
    _rotation,
    _shoelace,
    _simplify_profile,
    _symmetral,
    ball_hausdorff,
    disk_intersection_area,
    hausdorff,
    load_polygon,
    regular_polygon,
    save_polygon,
    steiner_polygon,
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
    # a zero area is degenerate, not clockwise: collinear, or underflowed
    for flat in ([(0, 0), (1, 0), (2, 0)], [(1e-200, 1e-200), (3e-200, 1e-200), (2e-200, 3e-200)]):
        with pytest.raises(ValueError, match="^degenerate polygon with zero area$"):
            ConvexPolygon(flat)
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


def test_ball_radius_must_be_nonnegative():
    with pytest.raises(ValueError):
        Ball(-0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_radius_or_area_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Ball(bad)
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
        assert mirror_gap(out, k * math.pi / 64) < 1e-12
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
        assert mirror_gap(out, theta) <= 1e-9
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

    token = tmp_path / "token.txt"
    token.write_text("# a comment\n0 0\n1 x\n0 1\n")
    with pytest.raises(ValueError) as err:
        load_polygon(token)
    assert str(err.value) == f"{token}:3: could not convert string to float: 'x'"


# ---------------------------------------------------------------------------
# the constructor's checks, written on a row-major array
# ---------------------------------------------------------------------------


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
    area = 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
    if area == 0.0:
        raise ValueError("degenerate polygon with zero area")
    if area < 0.0:
        raise ValueError("vertices must be ordered counterclockwise")
    nxt = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    if np.any(cross < -COLLINEAR_REL_TOL * span * span):
        raise ValueError("polygon is not convex")
    return v


# ---------------------------------------------------------------------------
# Exact oracles: each kernel within c * U * scale of the exact value of what
# it computes. A polygon's float coordinates are integers over one power of
# two, so shoelace sums, moments and cross products are exact in Python
# integers; a square root or an arctan takes 40-digit Decimal.
# ---------------------------------------------------------------------------

#: c of each bound, with the largest ratio measured here in brackets. The
#: scales: area sum(|x yn| + |xn y|) / 2 over the edges p -> q [1.6]; moment
#: sum((|x yn| + |xn y|)(|p|^2 + |p.q| + |q|^2)) / 12 [2.5]; a chord the
#: frame's largest |y| [3.4]; perimeter itself [1.9]; ball_hausdorff max(r,
#: |p|) + max (|x yn| + |xn y| + |x xn| + |y yn|) / |q - p|, the distance to
#: a short edge's line being ill conditioned [0.6]; a step's vertices their
#: largest |coordinate| [4.4], its area the area's [4.3 of 4 AREA_ULPS];
#: disk_intersection_area and d1_to_ball pi r**2 [5.6, 6.8].
AREA_ULPS, MOMENT_ULPS, CHORD_ULPS, PERIMETER_ULPS = 4, 8, 8, 4
BALL_HAUSDORFF_ULPS, STEP_ULPS, DISK_ULPS = 2, 8, 16


def exact_edges(v):
    """(x, y, xn, yn, den): the ends p and q of every edge, integers over den."""
    ints, den = as_integers(np.transpose(v))
    x, y = ints[: len(v)], ints[len(v):]
    return x, y, x[1:] + x[:1], y[1:] + y[:1], den


def assert_within(got, exact, ulps, scale, what=""):
    """|got - exact| <= ulps * U * scale, exact a number or an integer
    fraction (num, den): in floats where the gap is clearly inside (the
    float of exact rounds once), exactly elsewhere."""
    near = exact[0] / exact[1] if isinstance(exact, tuple) else float(exact)
    if abs(got - near) * (1 + 4 * U) + 4 * U * abs(got) <= ulps * U * scale:
        return
    gap = abs(Fraction(got) - (Fraction(*exact) if isinstance(exact, tuple) else Fraction(exact)))
    assert gap <= Fraction(ulps * U) * Fraction(scale), (what, float(gap) / (U * scale))


def exact_area(edges):
    x, y, xn, yn, den = edges
    return Fraction(sum(a * d - b * c for a, b, c, d in zip(x, y, xn, yn)), 2 * den * den)


def edge_floats(v):
    """(x, y, xn, yn, |x yn| + |xn y|) of every edge p -> q, in floats."""
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return x, y, xn, yn, np.abs(x * yn) + np.abs(xn * y)


def assert_area_and_moment_exact(poly):
    v = poly.vertices
    edges = x, y, xn, yn, den = exact_edges(v)
    moment = Fraction(sum((a * d - b * c) * (a * a + b * b + a * c + b * d + c * c + d * d)
                          for a, b, c, d in zip(x, y, xn, yn)), 12 * den**4)
    x, y, xn, yn, products = edge_floats(v)
    radii = x * x + y * y + np.abs(x * xn + y * yn) + xn * xn + yn * yn
    assert_within(poly.area(), exact_area(edges), AREA_ULPS, 0.5 * products.sum(), "area")
    assert_within(poly.moment_about_origin(), moment, MOMENT_ULPS,
                  (products * radii).sum() / 12.0, "moment")


def exact_contains_origin(v, edges):
    """Whether the origin is in the polygon, by the exact signs of
    cross(p, q); None when a nonzero one is within the float test's
    rounding of zero."""
    x, y, xn, yn, den = edges
    crosses = [a * d - b * c for a, b, c, d in zip(x, y, xn, yn)]
    px, py = np.abs(v[:, 0]), np.abs(v[:, 1])
    slack = 4 * U * ((px + np.roll(px, -1)) * py + (py + np.roll(py, -1)) * px) * den * den
    if any(c and abs(c) <= s for c, s in zip(crosses, slack.tolist())):
        return None
    return min(crosses) >= 0


def exact_ball_hausdorff(edges):
    """r -> the Hausdorff distance from the polygon to the origin ball of
    radius r in 40 digits: max(R - r, r - h, 0), R the largest |p| and h
    the least support value, the distance from the origin to the nearest
    edge line when the origin is inside and minus its distance to the
    polygon when outside."""
    x, y, xn, yn, den = edges
    segments = list(zip(x, y, xn, yn))
    if min(a * d - b * c for a, b, c, d in segments) >= 0:
        # the nearest edge line is among those within 1e-9 of it in floats
        px, py, qx, qy = np.transpose(segments).astype(float) / den
        line = np.abs(px * qy - py * qx) / np.hypot(qx - px, qy - py)
        near = min(Fraction((a * d - b * c) ** 2, (c - a) ** 2 + (d - b) ** 2)
                   for a, b, c, d in (segments[k] for k in np.flatnonzero(line <= line.min() * (1 + 1e-9))))
    else:
        def dist2(a, b, c, d):
            t = min(max(Fraction(-a * (c - a) - b * (d - b), (c - a) ** 2 + (d - b) ** 2), 0), 1)
            return (a + t * (c - a)) ** 2 + (b + t * (d - b)) ** 2
        near = -min(dist2(*e) for e in segments)
    far = max(a * a + b * b for a, b in zip(x, y))

    def distance(r):
        with localcontext() as ctx:
            ctx.prec = ORACLE_DIGITS + 10
            h = Decimal(abs(near.numerator)).sqrt() / Decimal(near.denominator).sqrt() / den
            return max(Decimal(far).sqrt() / den - Decimal(r),
                       Decimal(r) - h.copy_sign(Decimal(near.numerator or 1)), Decimal(0))
    return distance


def exact_perimeter(edges):
    x, y, xn, yn, den = edges
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS + 10
        return sum(Decimal((c - a) ** 2 + (d - b) ** 2).sqrt()
                   for a, b, c, d in zip(x, y, xn, yn)) / den


def polygon_chains(v):
    """The lower and upper boundary of a convex polygon, as (xs, ys) with xs
    ascending: its vertices from a leftmost to a rightmost one,
    counterclockwise and clockwise. A vertex within 1e-12 of the span in x
    of the one before it joins that one's point with the least (lower) or
    greatest (upper) y: chords are taken to that tolerance, and exactly at
    a vertical edge this is the boundary itself."""
    m, x, y = len(v), v[:, 0], v[:, 1]
    i_lo, i_hi = int(np.argmin(x)), int(np.argmax(x))
    chains = []
    for step, pick in ((1, np.minimum), (-1, np.maximum)):
        chain = (i_lo + step * np.arange((step * (i_hi - i_lo)) % m + 1)) % m
        starts = np.flatnonzero(np.r_[True, np.diff(x[chain]) > 1e-12 * np.ptp(x)])
        chains.append((x[chain][starts].tolist(), pick.reduceat(y[chain], starts).tolist()))
    return chains


def exact_chord(chain, x):
    """A chain's y at x by exact interpolation, as integers (num, den); its
    end value past an end."""
    xs, ys = chain
    k = bisect.bisect_left(xs, x)
    if k in (0, len(xs)) or xs[k] == x:
        return ys[min(k, len(xs) - 1)].as_integer_ratio()
    (x0, x1, y0, y1, x), den = as_integers([xs[k - 1], xs[k], ys[k - 1], ys[k], x])
    return y0 * (x1 - x0) + (x - x0) * (y1 - y0), (x1 - x0) * den


def assert_chord_profile_exact(frame, sample=None):
    """_chord_profile: every vertex x once, ascending, without those within
    1e-12 of the span of the one before (as the chains join them), and
    each chord within CHORD_ULPS of the exact one there; on a large
    polygon at `sample` breakpoints spread evenly."""
    xs, ell = _chord_profile(frame)
    unique = np.unique(frame[:, 0])
    assert np.array_equal(xs, unique[np.r_[True, np.diff(unique) > 1e-12 * np.ptp(unique)]])
    lower, upper = polygon_chains(frame)
    picks = range(len(xs)) if sample is None else np.linspace(0, len(xs) - 1, sample).astype(int)
    scale = np.abs(frame[:, 1]).max()
    for i in picks:
        (a, b), (c, d) = exact_chord(upper, xs[i]), exact_chord(lower, xs[i])
        # the kernel clips a chord that rounds below zero
        assert_within(ell[i], (max(a * d - b * c, 0), b * d), CHORD_ULPS, scale, ("chord", i))
    return xs, ell


def assert_step_exact(poly, theta, area=True):
    """steiner_polygon: the polygon of +-ell / 2 over the breakpoints of the
    frame's chord profile that the point-by-point run rule keeps, an end
    chord within 1e-12 of the extent taken as zero and a top end of zero
    chord left out, turned back and scaled to the input's exact area
    (within the rounding of float areas)."""
    rot = _rotation(0.5 * math.pi - theta)
    xs, ell = _chord_profile(_frame(poly, 0.5 * math.pi - theta))
    xs, ell = oracle_simplify_profile(xs, ell, SIMPLIFY_AREA_FRACTION * poly.area())
    half = 0.5 * ell
    tiny = 1e-12 * max(float(half.max()), xs[-1] - xs[0])
    half[[k for k in (0, -1) if half[k] <= tiny]] = 0.0
    top = [k for k in range(len(xs))[::-1] if half[k] > 0.0 or 0 < k < len(xs) - 1]
    want = np.r_[np.c_[xs, -half], np.c_[xs[top], half[top]]]
    out = steiner_polygon(poly, theta)
    back = out.vertices @ rot.T  # rounded by both turns
    assert back.shape == want.shape
    # the scale, fitted here, is checked by the area below
    gap = np.abs(back - np.sum(back * want) / np.sum(want * want) * want).max()
    assert gap <= STEP_ULPS * U * np.abs(back).max(), gap / (U * np.abs(back).max())
    if area:
        assert_within(poly.area(), exact_area(exact_edges(out.vertices)), 4 * AREA_ULPS,
                      0.5 * edge_floats(out.vertices)[4].sum(), "step area")
    return out


def assert_kernels_match_oracles(poly, thetas, sample=None):
    assert np.array_equal(oracle_validate(poly.vertices), poly.vertices)
    if poly._profile is None:
        # the constructor takes the bits of _shoelace from its edge columns
        assert _shoelace(poly.vertices) == poly.area()
    else:
        # a symmetral's area is the trapezoid sum of its profile
        assert _profile_area(*poly._profile[:2]) == poly.area()
    assert_area_and_moment_exact(poly)
    for theta in thetas:
        # the frame steiner_polygon hands to the chord profile
        assert_chord_profile_exact(_frame(poly, 0.5 * math.pi - theta), sample)


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
    assert_kernels_match_oracles(poly, thetas + [0.0, 0.5 * math.pi], sample=1000)


@pytest.mark.parametrize("theta", [0.5 * math.pi, 0.0])
def test_chord_profile_on_axis_aligned_square(theta):
    # vertical edges at both x extremes: the lexsort tie-breaks decide
    # where the lower and upper chains start and end
    rot = _rotation(0.5 * math.pi - theta)
    frame = ConvexPolygon(CENTERED_SQUARE).vertices @ rot.T
    for k in range(4):
        xs, ell = assert_chord_profile_exact(np.roll(frame, k, axis=0))
    assert np.array_equal(ell, [1.0, 1.0])


@pytest.mark.parametrize("verts", [
    [(0, 0), (2, -1), (3, 1), (0, 2)],  # leftmost x shared by two vertices
    [(0, 2), (0, 1), (0, 0), (2, -1), (3, 1)],  # ... by three, collinear
    [(0, 0), (3, -1), (3, 0), (3, 1), (1, 1)],  # rightmost x shared by three
])
def test_chord_profile_with_shared_extreme_x(verts):
    for k in range(len(verts)):
        assert_chord_profile_exact(np.roll(ConvexPolygon(verts).vertices, k, axis=0))


# ---------------------------------------------------------------------------
# a whole step, and the edge kernels of the polygon metrics
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


def assert_edge_functionals_match_oracles(poly, v, perimeter=True):
    """The perimeter (unless not perimeter: on a large polygon its oracle
    takes seconds), the origin test, the circumradius and ball_hausdorff
    of poly against the exact oracles of the polygon of vertices v. The
    circumradius is the distance to the ball of radius 0."""
    edges = exact_edges(v)
    if perimeter:
        assert_within(poly.perimeter(), exact_perimeter(edges), PERIMETER_ULPS, poly.perimeter())
    inside = exact_contains_origin(v, edges)
    assert inside is None or poly.contains_origin() == inside
    x, y, xn, yn, products = edge_floats(v)
    conditioning = ((products + np.abs(x * xn) + np.abs(y * yn)) / np.hypot(xn - x, yn - y)).max()
    distance, r_eq = exact_ball_hausdorff(edges), math.sqrt(poly.area() / math.pi)
    assert_within(poly.circumradius(), distance(0.0), BALL_HAUSDORFF_ULPS,
                  poly.circumradius() + conditioning, "circumradius")
    for r in (0.5 * r_eq, r_eq, 2.0 * r_eq):
        assert_within(ball_hausdorff(poly, r), distance(r), BALL_HAUSDORFF_ULPS,
                      max(r, poly.circumradius()) + conditioning, "ball_hausdorff")


def assert_steps_match_oracles(poly, thetas, large=False):
    """The edge kernels and a step in each direction against the exact
    oracles; on a large polygon without the perimeter and the sampled
    Hausdorff oracle, which take seconds there, and with one step's area."""
    assert_edge_functionals_match_oracles(poly, poly.vertices, perimeter=not large)
    for theta in thetas:
        out = assert_step_exact(poly, theta, area=not large or theta == thetas[0])
        if not large:
            # the sampled oracle takes its maxima at vertices, which it
            # always samples: the vertices alone lose nothing
            assert_matches_oracle(hausdorff(poly, out), oracle_hausdorff(poly, out, math.inf))


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
    assert_steps_match_oracles(poly, xs[25:] + [0.0, 0.5 * math.pi], large=True)


# ---------------------------------------------------------------------------
# measure, moment_about_origin, d1_to_ball and disk_intersection_area read
# one pass over the edges
# ---------------------------------------------------------------------------


def assert_edge_pass_matches_oracles(poly, disk=True):
    """measure has the bits of each functional, the moment is exact within
    MOMENT_ULPS, and d1 and the disk areas are within DISK_ULPS of 40
    digits (unless not disk: on a large polygon that oracle takes
    seconds)."""
    record = measure(poly)
    assert record.mu == poly.moment_about_origin()
    assert record.d1_to_ball == d1_to_ball(poly)
    assert_area_and_moment_exact(poly)
    assert disk_intersection_area(poly, 0.0) == 0.0
    r_eq = math.sqrt(poly.area() / math.pi)
    for r in (0.5 * r_eq, r_eq, 2.0 * poly.circumradius()) if disk else ():
        inside = decimal_disk_intersection_area(poly.vertices, r)
        area = math.pi * r * r
        assert_within(disk_intersection_area(poly, r), inside, DISK_ULPS, area, ("disk", r))
        if r == r_eq:
            with localcontext() as ctx:
                ctx.prec = ORACLE_DIGITS + 10
                want = 2 * (DECIMAL_PI * Decimal(r) ** 2 - inside)
            assert_within(record.d1_to_ball, want, DISK_ULPS, area, "d1")


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
    assert_edge_pass_matches_oracles(saturated_kf_polygon, disk=False)


# ---------------------------------------------------------------------------
# a symmetral's functionals from the upper half of its profile, against the
# oracles of its profile polygon
# ---------------------------------------------------------------------------


@st.composite
def concave_profiles(draw):
    """(xs, half) of a concave, nonnegative section profile: ends pointed,
    vertical or both vertical and equal (a rectangle, the symmetral of a
    square), with the origin inside the breakpoints' range, outside it,
    or at an end of it (on an end edge, or at the vertex of a pointed
    end)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ends = draw(st.sampled_from(("pointed", "vertical", "one vertical", "rectangle")))
    n = 2 if ends == "rectangle" else draw(st.integers(2, 30))
    origin = draw(st.sampled_from(("inside", "outside", "left end", "right end")))
    gaps = rng.uniform(0.05, 1.0, n - 1)
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    if origin == "inside":
        xs -= rng.uniform(0.1, 0.9) * xs[-1]
    elif origin == "outside":
        xs += rng.uniform(0.5, 3.0) if rng.random() < 0.5 else -xs[-1] - rng.uniform(0.5, 3.0)
    elif origin == "right end":
        xs -= xs[-1]
    # a concave bump, zero at both ends, on a line through the end heights
    slopes = np.sort(rng.uniform(-2.0, 2.0, n - 1))[::-1]
    bump = np.concatenate([[0.0], np.cumsum(slopes * gaps)])
    t = (xs - xs[0]) / (xs[-1] - xs[0])
    bump -= bump[-1] * t
    left, right = {"pointed": (0.0, 0.0), "vertical": tuple(rng.uniform(0.1, 1.0, 2)),
                   "one vertical": (0.0, rng.uniform(0.1, 1.0)),
                   "rectangle": (0.5, 0.5)}[ends]
    half = np.maximum(bump + left + (right - left) * t, 0.0)
    half[0], half[-1] = left, right
    assume(half.max() > 0.0)
    return xs, half


@settings(max_examples=300, deadline=None)
@given(concave_profiles())
def test_half_profile_kernels_match_the_profile_polygon_oracles(profile):
    # every functional within the bounds of the exact oracles of the
    # profile polygon, the drawn vertices at frame angle 0: the moment's
    # apex triangles are exact, d1 and the disk areas are within DISK_ULPS
    # of pi r**2 against 40 digits. The perimeter, the origin test, the
    # circumradius and the distance to the ball draw nothing
    xs, half = profile
    poly = _symmetral(xs.copy(), half.copy(), 0.0)
    assert_edge_functionals_match_oracles(poly, _profile_polygon(xs, half))
    assert poly._vertices is None
    assert poly.area() == _profile_area(xs, half)
    assert np.array_equal(poly.vertices, _profile_polygon(xs, half))
    assert len(poly) == len(poly.vertices)
    assert_edge_pass_matches_oracles(poly)


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
#: polygon inside the disk. The per-edge form this kernel replaced erred by
#: 2.6e-6 with the origin 5e-13 off a vertex, where its chord end
#: p + 1 * (q - p) missed q, and by at most 2.6e-16 elsewhere.
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


with localcontext() as ctx:
    ctx.prec = ORACLE_DIGITS + 10
    DECIMAL_PI = 4 * decimal_atan(Decimal(1))


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
        pi = DECIMAL_PI
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
            want = 2 * (DECIMAL_PI * Decimal(r) ** 2 - inside)
        err = abs(Decimal(d1_to_ball(poly)) - want)
        assert err <= Decimal(D1_SEGMENTS_RTOL * a), (len(poly), float(err / want))
