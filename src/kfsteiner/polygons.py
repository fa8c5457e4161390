"""Convex polygons, balls, and the exact chord symmetral.

The symmetral is computed in a rotated frame where the chosen direction
is vertical. For a convex polygon the vertical chord length is a
concave piecewise-linear function of the horizontal coordinate, so the
output is the polygon bounded by plus/minus half that chord profile at
the same breakpoints, rotated back. Breakpoints whose removal changes
the area by less than a tiny fraction of the total are merged; without
the merge the vertex count would double with every application. The
result is rescaled about the origin so the area matches the input
exactly, which keeps long composition chains drift-free.

Vertices are stored column-major: the x and y coordinates are two
contiguous arrays, and every per-vertex kernel (validation, shoelace,
second moment, disk intersection, chord profile) works on those two
columns as 1-D arrays instead of reducing over the length-2 axis.

A polygon near its ball has about 60k vertices, and each per-vertex job
is done once per step. The constructor's orientation check computes the
shoelace area, and the polygon carries it: area() returns it, and the
vertices cannot be rebound. The repeated-vertex check takes hypot only
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
    with vertices v: (x, y, xn, yn, cross, p2, pq), where x, y are p's
    coordinates, xn, yn q's, cross is cross(p, q), p2 is |p|**2 and pq is
    p.q. |q|**2 is _next(p2), the same bits."""
    x, y, xn, yn = _edge_columns(v)
    return x, y, xn, yn, x * yn - y * xn, x * x + y * y, x * xn + y * yn


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
    _, _, _, _, cross, p2, pq = terms
    return float(np.sum(cross * ((p2 + pq) + _next(p2))) / 12.0)


class ConvexPolygon:
    """Immutable convex polygon given by CCW vertices, shape (m, 2).

    The vertex array is read-only and cannot be rebound, so the area the
    constructor computes for its orientation check stays the polygon's
    area.
    """

    __slots__ = ("_vertices", "_area")

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

    @property
    def vertices(self):
        return self._vertices

    def __reduce__(self):
        # a pickled copy goes through the constructor, so it is read-only too
        return ConvexPolygon, (self._vertices,)

    def __len__(self):
        return len(self._vertices)

    def __repr__(self):
        return f"ConvexPolygon({len(self)} vertices, area={self.area():.6g})"

    def area(self):
        return self._area

    def perimeter(self):
        return float(_edge_lengths(_edge_columns(self.vertices)).sum())

    def moment_about_origin(self):
        """Integral of x**2 + y**2 over the polygon, exact.

        Sum over edges of the apex-triangle second moment about the
        origin: cross(p, q) * (|p|^2 + p.q + |q|^2) / 12.
        """
        return _moment(_edge_terms(self.vertices))

    def circumradius(self):
        """Largest distance from the origin to a vertex."""
        return float(np.hypot(self.vertices[:, 0], self.vertices[:, 1]).max())

    def contains_origin(self):
        return _contains_origin(_edge_columns(self.vertices))


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


def _profile_polygon(xs, ell):
    """Polygon bounded by y = +/- ell(x)/2 over the breakpoints xs, as one
    column-major (m, 2) array: the bottom from left to right, then the top
    back, without the top ends that coincide with the bottom ones."""
    half = 0.5 * ell
    tiny = 1e-12 * max(float(half.max()), xs[-1] - xs[0])
    n = len(xs)
    first = 1 if half[0] <= tiny else 0
    last = n - 1 if half[-1] <= tiny else n
    out = np.empty((n + last - first, 2), order="F")
    out[:n, 0] = xs
    np.negative(half, out=out[:n, 1])
    out[n:, 0] = xs[first:last][::-1]
    out[n:, 1] = half[first:last][::-1]
    return out


def steiner_polygon(poly, direction):
    """Symmetral of a convex polygon with respect to a direction.

    Every chord parallel to the direction is recentered on the line
    through the origin orthogonal to it. Exact up to breakpoint merging
    below SIMPLIFY_AREA_FRACTION of the area; the output is rescaled
    about the origin so its area equals the input area.
    """
    theta = as_theta(direction)
    area0 = poly.area()
    if area0 < DEGENERATE_AREA:
        raise ValueError(f"degenerate polygon with area {area0!r}")
    rot = _rotation(0.5 * math.pi - theta)
    # the same bits as poly.vertices @ rot.T, with contiguous columns
    v = (rot @ poly.vertices.T).T
    xs, ell = _chord_profile(v)
    xs, ell = _simplify_profile(xs, ell, SIMPLIFY_AREA_FRACTION * area0)
    # the same bits as _profile_polygon(xs, ell) @ rot, column-major
    out = (rot.T @ _profile_polygon(xs, ell).T).T
    out *= math.sqrt(area0 / _shoelace(out))
    return ConvexPolygon(out)


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
    turn, segments = _disk_parts(_edge_terms(poly.vertices), r)
    if turn is None:
        return math.pi * (r * r) - segments
    return 0.5 * (r * r) * turn - segments


def _disk_parts(terms, r):
    """(turn, segments) of the polygon of the _edge_terms terms and the
    origin disk of radius r: the intersection area is
    0.5 r**2 turn - segments, where turn is the angle the polygon covers
    about the origin and segments is the sum of circular segments of
    disk_intersection_area. turn is None when every cross(p, q) is
    positive, so the polygon winds once about the origin (turn 2 pi) and
    the disk outside it is exactly the segments. A disk of radius r <= 0
    covers nothing: (0.0, 0.0)."""
    if r <= 0.0:
        return 0.0, 0.0
    r2 = r * r
    x, y, xn, yn, side, p2, pq = terms
    # an edge with both ends in the disk is its own chord
    near = p2 <= r2
    inner = near & _next(near)
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

    if side.min() > 0.0:  # angles all positive can only sum to 2 pi
        return None, float(np.sum(seg))
    on = (side == 0.0) & (pq <= 0.0)  # origin on the closed edge
    angle = float(np.sum(np.arctan2(side[~on], pq[~on])))
    if on.any():
        seg[np.isin(np.concatenate([whole, k]), np.flatnonzero(on))] = 0.0
    else:
        angle = 2.0 * math.pi * round(angle / (2.0 * math.pi))
    return angle, float(np.sum(seg))


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
