"""Convex polygons, balls, and the exact chord symmetral.

The symmetral is computed in a rotated frame where the chosen direction
is vertical. For a convex polygon the vertical chord length is a
concave piecewise-linear function of the horizontal coordinate, so the
symmetral is the polygon {|y| <= l(x)/2} over the same breakpoints: its
section profile. Breakpoints whose removal changes the area by less
than a tiny fraction of the total are merged; without the merge the
vertex count would double with every application. The profile is then
rescaled about the origin, breakpoints and half-lengths alike, so that
its area matches the input exactly, which keeps long composition chains
drift-free.

A symmetral is held as that profile and its frame angle. Its vertices
are drawn, turned back to the world frame and through the constructor's
checks, only when they are first read. Its area is the trapezoid sum of
the profile, a sum over the held shape whose rounding is that of the
breakpoints' differences, not of products of coordinates as in a
shoelace sum; its second moment and disk parts are those of the
profile's upper half, doubled. The next step turns the profile polygon
into its frame directly, so a run's bits do not depend on what drew its
vertices. A step whose profile has no finite, positive area raises.

Vertices are stored column-major: the x and y coordinates are two
contiguous arrays, and every per-vertex kernel (validation, shoelace,
second moment, disk intersection, chord profile) works on those two
columns as 1-D arrays instead of reducing over the length-2 axis.

A polygon near its ball has about 60k vertices, and each per-vertex job
is done once per step. The constructor's orientation check computes the
shoelace area, and a plain polygon carries it: area() returns it, and
the vertices cannot be rebound. The repeated-vertex check takes hypot only
of edges short in both coordinates. The disk intersection behind d1 is
w pi r**2 minus a sum of circular segments, w the winding number about
the origin, so only edges whose line meets the disk take an arctan, and
an edge with both ends in the disk is its own chord.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvexPolygon",
    "Ball",
    "regular_polygon",
    "steiner_polygon",
    "disk_intersection_area",
    "ball_hausdorff",
    "hausdorff",
    "load_polygon",
    "save_polygon",
]

# Relative tolerance for the convexity test (cross products of
# consecutive edges may dip slightly negative at collinear vertices).
COLLINEAR_REL_TOL = 1e-9

# Areas below this are treated as degenerate input.
DEGENERATE_AREA = 1e-12

# load_polygon refuses a coordinate larger than this in magnitude: the
# second moment grows as |v|**4, so every functional of a polygon within
# it stays finite (about 1e240 at most).
MAX_COORDINATE = 1e60

# A chord-profile breakpoint is merged when dropping it cuts less than
# this fraction of the polygon area. Small enough that a 200-step
# composition stays inside the 1e-9 area and moment contracts, large
# enough to keep the vertex count bounded (about 1e5 at saturation).
SIMPLIFY_AREA_FRACTION = 1e-13

# A merge pass that keeps fewer than this many interior breakpoints in
# place, as a step's first pass near the ball does, keeps the rest by
# slicing the runs between them; Python's per-run cost outgrows the index
# pass beyond.
_SLICED_MERGE_STOPS = 64


def as_theta(direction):
    """Angle in radians of a direction, checked to be finite."""
    theta = float(direction)
    if not math.isfinite(theta):
        raise ValueError(f"direction angle is {theta}, not a finite number")
    return theta


def _rotation(angle):
    """Matrix of the counterclockwise rotation by `angle` radians."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _next(a):
    """The 1-D array a shifted by one place: the value at the next vertex,
    the last one's next being the first. Equal to np.roll(a, -1), in two
    slice copies and no temporary."""
    out = np.empty_like(a)
    out[:-1] = a[1:]
    out[-1] = a[0]
    return out


def _shoelace(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * _next(y) - _next(x) * y))


def _edge_columns(v):
    """(x, y, xn, yn) for the edges p -> q of the polygon with vertices v:
    p's coordinates and q's, the first four columns of _edge_terms."""
    x, y = v[:, 0], v[:, 1]
    return x, y, _next(x), _next(y)


def _edge_terms(v):
    """The per-edge columns that the second moment, the disk parts and
    the Hausdorff distance share, for the edges p -> q of the polygon
    with vertices v: (x, y, xn, yn, cross, p2, pq, q2), where x, y are
    p's coordinates, xn, yn q's, cross is cross(p, q), p2 is |p|**2, pq is
    p.q and q2 is |q|**2, _next(p2)."""
    x, y, xn, yn = _edge_columns(v)
    p2 = x * x + y * y
    return x, y, xn, yn, x * yn - y * xn, p2, x * xn + y * yn, _next(p2)


def _half_terms(xs, half):
    """The _edge_terms columns of the upper half of the profile polygon
    of breakpoints xs and half-lengths half, along the path from
    (xs[-1], 0) up its right end, back over the chain (xs, half) and down
    its left end to (xs[0], 0). An end of zero half-length is a point of
    the chain, so no edge of the path has length zero. The edge along the
    axis that closes the half is left out: cross(p, q) is zero on it, so
    it adds nothing to the moment, and its turn about the origin is
    _disk_parts' to add."""
    px, py = [xs[::-1]], [half[::-1]]
    if half[-1] > 0.0:
        px.insert(0, xs[-1:])
        py.insert(0, [0.0])
    if half[0] > 0.0:
        px.append(xs[:1])
        py.append([0.0])
    px, py = np.concatenate(px), np.concatenate(py)
    p2 = px * px + py * py
    x, y, xn, yn = px[:-1], py[:-1], px[1:], py[1:]
    return x, y, xn, yn, x * yn - y * xn, p2[:-1], x * xn + y * yn, p2[1:]


def _edge_lengths(columns):
    """|q - p| of every edge, from the _edge_columns (or _edge_terms)
    columns."""
    x, y, xn, yn = columns[:4]
    return np.hypot(xn - x, yn - y)


def _contains_origin(columns):
    """Whether the origin lies in the polygon of the _edge_columns (or
    _edge_terms) columns, its boundary included."""
    x, y, xn, yn = columns[:4]
    dx, dy = xn - x, yn - y
    return bool(np.all(dx * -y - dy * -x >= 0.0))


def _moment(terms):
    """Integral of x**2 + y**2 over the polygon of the _edge_terms terms:
    the sum over edges of cross(p, q) * (|p|^2 + p.q + |q|^2) / 12."""
    _, _, _, _, cross, p2, pq, q2 = terms
    return float(np.sum(cross * ((p2 + pq) + q2)) / 12.0)


def _profile_area(xs, half):
    """Area of the profile polygon of breakpoints xs and half-lengths
    half: the sum of its trapezoids dx * (half_i + half_i+1)."""
    return float(np.sum(np.diff(xs) * (half[:-1] + half[1:])))


class ConvexPolygon:
    """Immutable convex polygon given by CCW vertices, shape (m, 2).

    The vertex array is read-only and cannot be rebound, so the area the
    constructor computes for its orientation check stays the polygon's
    area. A symmetral that steiner_polygon returns holds its section
    profile instead (see _symmetral) and draws its vertices, through the
    constructor, when they are first read.
    """

    __slots__ = ("_vertices", "_area", "_profile")

    def __init__(self, vertices):
        # column-major, so v[:, 0] and v[:, 1] are contiguous
        v = np.array(vertices, dtype=float, order="F")
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("need at least 3 vertices of shape (m, 2)")
        x, y = v[:, 0], v[:, 1]
        # min and max carry a NaN or an inf through, so the four extremes
        # are finite exactly when every vertex is
        x_lo, x_hi = float(x.min()), float(x.max())
        y_lo, y_hi = float(y.min()), float(y.max())
        if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi))):
            raise ValueError("vertices must be finite")
        span = max(x_hi - x_lo, y_hi - y_lo)
        if span <= 0.0:
            raise ValueError("degenerate polygon with zero extent")
        # the bits of _shoelace(v), from the next-vertex columns that the
        # edges then overwrite: two columns fewer to allocate and fill
        xn, yn = _next(x), _next(y)
        area = 0.5 * float(np.sum(x * yn - xn * y))
        ex, ey = np.subtract(xn, x, out=xn), np.subtract(yn, y, out=yn)
        # hypot(ex, ey) >= max(|ex|, |ey|), so only edges short in both
        # coordinates can be short
        tiny = 1e-12 * span
        short = np.flatnonzero((np.abs(ex) <= tiny) & (np.abs(ey) <= tiny))
        if np.any(np.hypot(ex[short], ey[short]) <= tiny):
            raise ValueError("repeated consecutive vertices")
        if area == 0.0:
            raise ValueError("degenerate polygon with zero area")
        if area < 0.0:
            raise ValueError("vertices must be ordered counterclockwise")
        cross = ex * _next(ey) - ey * _next(ex)
        if np.any(cross < -COLLINEAR_REL_TOL * span * span):
            raise ValueError("polygon is not convex")
        v.setflags(write=False)
        self._vertices = v
        self._area = area
        self._profile = None

    @property
    def vertices(self):
        if self._vertices is None:
            # the profile polygon turned back, checked and read-only
            xs, half, phi = self._profile
            try:
                drawn = ConvexPolygon(_turn(_profile_polygon(xs, half), _rotation(phi).T))
            except ValueError as exc:
                raise ValueError(f"the symmetral's drawn vertices: {exc}") from exc
            self._vertices = drawn._vertices
        return self._vertices

    def __reduce__(self):
        # a pickled copy goes through the constructor, so it is read-only too
        return ConvexPolygon, (self.vertices,)

    def __len__(self):
        if self._profile is None:
            return len(self._vertices)
        # the vertices _profile_polygon draws: the top omits an end of zero
        half = self._profile[1]
        return 2 * len(half) - int(half[0] == 0.0) - int(half[-1] == 0.0)

    def __repr__(self):
        return f"ConvexPolygon({len(self)} vertices, area={self.area():.6g})"

    def area(self):
        return self._area

    def perimeter(self):
        return float(_edge_lengths(_edge_columns(self.vertices)).sum())

    def _halves(self):
        """(terms, copies): the _edge_terms columns that the second moment
        and the disk parts sum, and how many mirror copies of them make up
        the polygon. A plain polygon is one copy of its edges; a
        symmetral is two of the upper half of its profile (_half_terms)."""
        if self._profile is None:
            return _edge_terms(self._vertices), 1
        xs, half, _ = self._profile
        return _half_terms(xs, half), 2

    def moment_about_origin(self):
        """Integral of x**2 + y**2 over the polygon, exact.

        Sum over edges of the apex-triangle second moment about the
        origin: cross(p, q) * (|p|^2 + p.q + |q|^2) / 12; over the upper
        half of a symmetral's profile, doubled.
        """
        terms, copies = self._halves()
        return copies * _moment(terms)

    def circumradius(self):
        """Largest distance from the origin to a vertex."""
        return float(np.hypot(self.vertices[:, 0], self.vertices[:, 1]).max())

    def contains_origin(self):
        return _contains_origin(_edge_columns(self.vertices))


def _symmetral(xs, half, phi):
    """The ConvexPolygon of the profile polygon of breakpoints xs and
    half-lengths half, in the frame that the rotation by phi turns the
    world into. It holds the profile, read-only, with its trapezoid area,
    and draws no vertex until one is read."""
    xs.setflags(write=False)
    half.setflags(write=False)
    poly = object.__new__(ConvexPolygon)
    poly._vertices = None
    poly._profile = (xs, half, phi)
    poly._area = _profile_area(xs, half)
    return poly


@dataclass(frozen=True)
class Ball:
    """Disk of the given radius centered at the origin."""

    radius: float

    def __post_init__(self):
        if not 0.0 <= self.radius < math.inf:
            raise ValueError(
                f"radius must be finite and nonnegative, got {self.radius}")

    @property
    def area(self):
        return math.pi * self.radius**2


def regular_polygon(radius, n=128, center=(0.0, 0.0)):
    """Regular n-gon inscribed in the circle of the given radius."""
    ang = 2.0 * math.pi * np.arange(n) / n
    cx, cy = center
    return ConvexPolygon(
        np.column_stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang)])
    )


# ---------------------------------------------------------------------------
# chord profile and symmetral
# ---------------------------------------------------------------------------


def _chain_envelope(x, y, span, take_min):
    """Collapse a monotone-x chain to strictly increasing x with min or max y.

    A chain whose x values are all apart, as every chain of a polygon near
    its ball is, is returned as it is.
    """
    new = np.empty(len(x), dtype=bool)
    new[0] = True
    new[1:] = np.diff(x) > 1e-12 * span
    if new.all():
        return x, y
    starts = np.nonzero(new)[0]
    gx = x[starts]
    gy = np.minimum.reduceat(y, starts) if take_min else np.maximum.reduceat(y, starts)
    return gx, gy


def _arc(a, i, j):
    """a[i], a[i + 1], ..., a[j] with the indices taken cyclically: a view
    when i <= j."""
    if i <= j:
        return a[i : j + 1]
    return np.concatenate([a[i:], a[: j + 1]])


def _chord_profile(v):
    """Breakpoints and vertical chord lengths of a convex polygon."""
    x, y = v[:, 0], v[:, 1]
    # the chains run from the leftmost vertex (lowest among ties, then
    # first) to the rightmost (highest among ties, then last)
    left = np.flatnonzero(x == x.min())
    i_lo = int(left[np.argmin(y[left])])
    right = np.flatnonzero(x == x.max())[::-1]
    i_hi = int(right[np.argmax(y[right])])
    lower = _arc(x, i_lo, i_hi), _arc(y, i_lo, i_hi)
    upper = _arc(x, i_hi, i_lo)[::-1], _arc(y, i_hi, i_lo)[::-1]

    # every x, sorted: the two chains are sorted runs, which a stable sort
    # merges; repeated values fall to the closeness test below
    xs = np.sort(np.concatenate([lower[0], upper[0]]), kind="stable")
    span = xs[-1] - xs[0]
    if span <= 0.0:
        raise ValueError("polygon collapses to a vertical segment in this frame")
    keep = np.empty(len(xs), dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(xs) > 1e-12 * span
    xs = xs[keep]

    lo_x, lo_y = _chain_envelope(*lower, span, take_min=True)
    up_x, up_y = _chain_envelope(*upper, span, take_min=False)
    lo = np.interp(xs, lo_x, lo_y)
    up = np.interp(xs, up_x, up_y)
    return xs, np.maximum(up - lo, 0.0)


def _simplify_profile(xs, ell, eps_area):
    """Drop breakpoints whose removal cuts at most eps_area from the shape.

    Removals in one pass are never adjacent, so each cut is exactly the
    triangle against kept neighbors. Runs of droppable points thin out
    geometrically over passes.
    """
    for _ in range(64):
        if len(xs) <= 2:
            break
        x1, y1 = xs[:-2], ell[:-2]
        x2, y2 = xs[1:-1], ell[1:-1]
        x3, y3 = xs[2:], ell[2:]
        double_area = np.abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
        removable = double_area <= 2.0 * eps_area
        # every other point of a run of removable ones goes, from its
        # first. So from each point that stays whatever (an end, or one
        # not removable) up to the next, every other point is kept.
        fixed = np.flatnonzero(~removable)
        if fixed.size == removable.size:
            break
        if fixed.size < _SLICED_MERGE_STOPS:
            # near the ball nearly every point is removable: slice the runs
            stops = [0, *(fixed + 1).tolist(), len(xs) - 1]
            runs = list(zip(stops, stops[1:]))
            xs = np.concatenate([xs[i:j:2] for i, j in runs] + [xs[-1:]])
            ell = np.concatenate([ell[i:j:2] for i, j in runs] + [ell[-1:]])
            continue
        # the distance to the kept point before the run is odd
        pos = np.arange(removable.size, dtype=np.int32)
        before = np.maximum.accumulate(np.where(removable, -1, pos))
        keep = np.ones(len(xs), dtype=bool)
        keep[1:-1] = ~removable | ((pos - before) & 1 == 0)
        # by index: a mask that alternates, as it does near the ball,
        # selects about four times slower
        kept = np.flatnonzero(keep)
        xs = xs[kept]
        ell = ell[kept]
    return xs, ell


def _profile_polygon(xs, half):
    """Polygon bounded by y = +/- half(x) over the breakpoints xs, as one
    column-major (m, 2) array: the bottom from left to right, then the top
    back, without a top end of zero half-length, which is the bottom's."""
    n = len(xs)
    first = 1 if half[0] == 0.0 else 0
    last = n - 1 if half[-1] == 0.0 else n
    out = np.empty((n + last - first, 2), order="F")
    out[:n, 0] = xs
    np.negative(half, out=out[:n, 1])
    out[n:, 0] = xs[first:last][::-1]
    out[n:, 1] = half[first:last][::-1]
    return out


def _turn(v, rot):
    """The points v, shape (m, 2), turned by the matrix rot: the bits of
    v @ rot.T, in contiguous columns."""
    return (rot @ v.T).T


def _frame(poly, phi):
    """The vertices of poly turned by phi, the frame in which
    steiner_polygon takes the chord profile. A symmetral's are its
    profile polygon turned by phi less its own frame angle, never its
    drawn vertices, so a run's bits do not depend on what drew them."""
    if poly._profile is None:
        return _turn(poly.vertices, _rotation(phi))
    xs, half, own = poly._profile
    return _turn(_profile_polygon(xs, half), _rotation(phi - own))


def steiner_polygon(poly, direction):
    """Symmetral of a convex polygon with respect to a direction.

    Every chord parallel to the direction is recentered on the line
    through the origin orthogonal to it. Exact up to breakpoint merging
    below SIMPLIFY_AREA_FRACTION of the area; the profile is rescaled
    about the origin so its area equals the input area. An end chord
    within 1e-12 of the profile's extent is taken as a point, as the
    chord profile takes x values that close as one.
    """
    theta = as_theta(direction)
    area0 = poly.area()
    if area0 < DEGENERATE_AREA:
        raise ValueError(f"degenerate polygon with area {area0!r}")
    phi = 0.5 * math.pi - theta
    xs, ell = _chord_profile(_frame(poly, phi))
    xs, ell = _simplify_profile(xs, ell, SIMPLIFY_AREA_FRACTION * area0)
    half = 0.5 * ell
    tiny = 1e-12 * max(float(half.max()), xs[-1] - xs[0])
    for end in (0, -1):
        if half[end] <= tiny:
            half[end] = 0.0
    area = _profile_area(xs, half)
    if not 0.0 < area < math.inf:
        raise ValueError(f"the symmetral's section profile has area {area!r}, "
                         "not a finite positive number")
    scale = math.sqrt(area0 / area)
    return _symmetral(xs * scale, half * scale, phi)


# ---------------------------------------------------------------------------
# exact intersection helpers
# ---------------------------------------------------------------------------


def disk_intersection_area(poly, radius):
    """Exact area of polygon intersected with the origin-centered disk.

    Green's theorem about the origin sums, over the edges p -> q, the
    apex triangle (0, p, q) clipped to the disk: a sector of angle(p, e),
    the triangle (0, e, f) and a sector of angle(f, q), where e -> f is
    the edge's chord inside the disk. The three angles of an edge add up
    to angle(p, q), and those add up to 2 pi w, w the winding number of
    the boundary about the origin (1 inside, 0 outside). So

        area = w pi r**2 - sum over chords of [sector(e, f) - tri(e, f)],

    a sum of circular segments, and only the edges whose line meets the
    disk take an arctan. A chord end that the edge clips is the vertex
    itself, not p + 1 * (q - p), and every segment takes the sign of
    cross(p, q), the sign of angle(p, q): on a chord that passes by the
    origin the sign of its angle, +-pi, is worth a whole disk.

    w is 1 when every cross(p, q) is positive, since positive angles can
    only sum to 2 pi. Otherwise the angles are summed edge by edge and w
    is that sum over 2 pi, rounded: a convex polygon may turn back by
    COLLINEAR_REL_TOL * span**2 at a vertex, so the origin can be inside
    with some cross(p, q) < 0. On the boundary w is not defined: the
    polygon covers the angle its other edges subtend about the origin
    (pi on an edge, the interior angle at a vertex). That sum is then
    taken as it is, and the chords through the origin add no segment.
    """
    r = float(radius)
    if not math.isfinite(r):
        raise ValueError(f"radius must be finite, got {radius}")
    turn, segments = _disk_parts(*poly._halves(), r)
    if turn is None:
        return math.pi * (r * r) - segments
    return 0.5 * (r * r) * turn - segments


def _disk_parts(terms, copies, r):
    """(turn, segments) of the polygon of which the _edge_terms terms are
    one of `copies` mirror copies (ConvexPolygon._halves), and the origin
    disk of radius r: the intersection area is 0.5 r**2 turn - segments,
    where turn is the angle the polygon covers about the origin and
    segments is the sum of circular segments of disk_intersection_area.
    turn is None when every cross(p, q) is positive, so the polygon winds
    once about the origin (turn 2 pi) and the disk outside it is exactly
    the segments. The upper half of a profile, whose path runs from the
    axis back to it, then turns by pi: its turn is a multiple of pi, not
    of 2 pi. A disk of radius r <= 0 covers nothing: (0.0, 0.0)."""
    if r <= 0.0:
        return 0.0, 0.0
    r2 = r * r
    x, y, xn, yn, side, p2, pq, q2 = terms
    # an edge with both ends in the disk is its own chord
    inner = (p2 <= r2) & (q2 <= r2)
    whole = np.flatnonzero(inner)
    # another edge has a chord if its line meets the disk: from
    # e = p + t d to f = q - s d, where a clipped end is the vertex itself
    dx, dy = xn - x, yn - y
    a = dx * dx + dy * dy
    disc = r2 * a - side * side  # of |p + t d|**2 = r**2
    k = np.flatnonzero((disc > 0.0) & ~inner)
    px, py, qx, qy, dx, dy, a = x[k], y[k], xn[k], yn[k], dx[k], dy[k], a[k]
    root = np.sqrt(disc[k])
    t = np.clip((-root - (px * dx + py * dy)) / a, 0.0, 1.0)
    s = np.clip(((qx * dx + qy * dy) - root) / a, 0.0, 1.0)
    ex, ey = px + t * dx, py + t * dy
    fx, fy = qx - s * dx, qy - s * dy
    # a chord takes the sign of side, its edge's angle about the origin
    cross = np.concatenate([side[whole], np.copysign(ex * fy - ey * fx, side[k])])
    dot = np.concatenate([pq[whole], ex * fx + ey * fy])
    seg = 0.5 * (r2 * np.arctan2(cross, dot) - cross)
    seg[whole.size:][t + s >= 1.0] = 0.0  # the line meets the disk off the edge

    if side.min() > 0.0:  # angles all positive can only sum to 2 pi / copies
        return None, copies * float(np.sum(seg))
    on = (side == 0.0) & (pq <= 0.0)  # origin on the closed edge
    angle = float(np.sum(np.arctan2(side[~on], pq[~on])))
    if on.any():
        seg[np.isin(np.concatenate([whole, k]), np.flatnonzero(on))] = 0.0
    else:
        period = 2.0 * math.pi / copies
        angle = period * round(angle / period)
    return copies * angle, copies * float(np.sum(seg))


def ball_hausdorff(poly, radius):
    """Hausdorff distance between a convex polygon and an origin ball, exact.

    For convex sets this is the largest gap between support functions.
    The maximum of the polygon support is the farthest vertex. The
    minimum is the distance to the closest edge line when the origin is
    inside, and minus the distance from the origin to the closest edge
    when it is outside.
    """
    terms = _edge_terms(poly.vertices)
    return _ball_hausdorff(terms, _edge_lengths(terms), radius)


def _ball_hausdorff(terms, lengths, radius):
    """ball_hausdorff of the polygon of the _edge_terms terms, whose edge
    lengths (_edge_lengths) are lengths."""
    px, py, qx, qy, cross = terms[:5]
    hi = float(np.hypot(px, py).max())
    if _contains_origin(terms):
        lo = float((np.abs(cross) / lengths).min())
    else:
        ex, ey = qx - px, qy - py
        t = np.clip(-(px * ex + py * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        lo = -float(np.hypot(px + t * ex, py + t * ey).min())
    return max(hi - radius, radius - lo, 0.0)


def _edge_normals(poly):
    """Unit outward normals of the edges v[i] -> v[i+1], and their angles."""
    x, y = poly.vertices[:, 0], poly.vertices[:, 1]
    ex, ey = _next(x) - x, _next(y) - y
    length = np.hypot(ex, ey)
    nx, ny = ey / length, -ex / length
    return nx, ny, np.arctan2(ny, nx)


def _support_vertices(angles, t):
    """Index of a support vertex in each direction of angle t.

    Vertex i supports the directions from the normal of edge i - 1 to
    the normal of edge i, so it is the start of the first edge whose
    normal angle is at or after t, wrapping past pi.
    """
    order = np.argsort(angles, kind="stable")
    return order[np.searchsorted(angles[order], t) % len(angles)]


def hausdorff(a, b):
    """Hausdorff distance between two convex polygons, exact.

    For convex sets it is the largest support-function gap, the maximum
    over unit u of |h_a(u) - h_b(u)|. Between consecutive outward edge
    normals of either polygon both support vertices p and q are fixed,
    so the gap is (p - q).u. Such an arc is shorter than pi, so the
    modulus peaks at an end of it, or equals |p - q| where +-(p - q)
    points into it.
    """
    ax, ay, a_ang = _edge_normals(a)
    bx, by, b_ang = _edge_normals(b)
    ang = np.concatenate([a_ang, b_ang])
    order = np.argsort(ang, kind="stable")
    ang = ang[order]
    ux = np.concatenate([ax, bx])[order]
    uy = np.concatenate([ay, by])[order]
    vx, vy = _next(ux), _next(uy)
    # arc k runs from normal k to normal k + 1, the last one across the cut at pi
    end = np.append(ang[1:], ang[0] + 2.0 * math.pi)
    i = _support_vertices(a_ang, end)
    j = _support_vertices(b_ang, end)
    dx = a.vertices[i, 0] - b.vertices[j, 0]
    dy = a.vertices[i, 1] - b.vertices[j, 1]
    gap = np.maximum(np.abs(dx * ux + dy * uy), np.abs(dx * vx + dy * vy))
    # +-(p - q) is strictly inside the arc when it lies on the inner side of both ends
    inner = (ux * dy - uy * dx) * (dx * vy - dy * vx) > 0.0
    return float(np.where(inner, np.hypot(dx, dy), gap).max())


# ---------------------------------------------------------------------------
# plain-text polygon files
# ---------------------------------------------------------------------------


def load_polygon(path):
    """Read a polygon from a text file, one "x y" pair per line.

    Lines starting with '#' (or trailing '#' comments) are ignored.
    Clockwise input is reoriented with a warning. A line that is not two
    numbers of magnitude at most MAX_COORDINATE raises naming the file and
    the line; an area below DEGENERATE_AREA, or a polygon that
    ConvexPolygon refuses, raises naming the file.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x y' per line, got {raw!r}")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not (abs(x) <= MAX_COORDINATE and abs(y) <= MAX_COORDINATE):  # NaN fails too
                raise ValueError(f"{path}:{lineno}: coordinates must be finite and at most "
                                 f"{MAX_COORDINATE:g} in magnitude, got {raw!r}")
            rows.append((x, y))
    if len(rows) < 3:
        raise ValueError(f"{path}: need at least 3 vertices")
    v = np.asarray(rows)
    area = _shoelace(v)
    if abs(area) < DEGENERATE_AREA:
        raise ValueError(f"{path}: degenerate polygon with area {abs(area)!r}, "
                         f"below {DEGENERATE_AREA:g}")
    if area < 0.0:
        warnings.warn(f"{path}: clockwise vertex order, reorienting to CCW")
        v = v[::-1]
    try:
        return ConvexPolygon(v)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_polygon(path, poly):
    """Write a polygon as plain text, one "x y" pair per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# convex polygon, CCW vertices, one 'x y' per line\n")
        for x, y in poly.vertices:
            fh.write(f"{x:.15g} {y:.15g}\n")
