"""Occupancy-grid planar sets and their symmetrization.

A RasterSet stores per-cell area fractions in [0, 1] on a square-cell
grid centred on the origin, so it stands for a set. The Steiner
symmetral of a set replaces every column along the direction by the
interval centred on the origin line whose length is the column's
measure. Axis-aligned directions read the column sums. A general
direction needs the measure of every column strip of the rotated set,
an exact sum over the set's boundary (see _column_masses): a raster
enters as its weighted grid edges, a symmetral as the staircase loop
its intervals form. Every length is then scaled by one factor, so the
intervals hold the input mass exactly, and the staircase is brought back
to the world frame by rotating it and rasterizing it exactly. Nothing
is resampled.

Rasterization is exact up to rounding and has one coverage path: a
signed-area accumulation over polygon edges. An origin ball is the
polygon of its grid-line crossings plus one circular segment per edge.

Half-lengths are rounded to a power-of-two step (see _interval_lengths),
so a plane of intervals sums back to its exact lengths and a repeated
direction changes no bit. A stepped AlignedRun is its half-lengths and
holds no plane. frame_raster() and world_raster() return that step's
half-lengths, unturned and turned back to the world, and draw their
read-only plane when it is first read; a later step leaves them as
they are. A raster of half-lengths at turn 0 is their intervals, so
metrics.measure reads it column by column, and metrics.perimeter_estimate
reads any of them from their section profile. Every raster a run returns
shares the run's comparison ball for metrics.d1_to_ball, built on first
use from the seed's area; any other raster rasterizes its own.

Every other raster (a seed, a steiner_raster output, a PGM, anything
built by with_occ) has its perimeter measured on its plane, as the
half-level isoline of its occupancy (see metrics.perimeter_estimate).

A step and a run's set-up cost what their data costs. Both raster
kernels cut edges at grid lines with one cutter, _cut, which writes each
edge's pieces in order along it, edge after edge: _column_masses cuts
once, at the vertical lines, and _rasterize_polygon cuts those pieces
again at the horizontal ones. The seed's grid edges are read from its
support box, a polygon is rasterized over the rows and columns its
pieces touch, and the ball's column prefix sums are added up row by row
over its support box.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .polygons import Ball, ConvexPolygon, _rotation, as_theta

__all__ = [
    "GridSpec",
    "RasterSet",
    "AlignedRun",
    "rasterize",
    "annulus_fixture",
    "steiner_raster",
    "read_pgm",
    "write_pgm",
]

PGM_MAXVAL = 65535

#: The cell sizes read_pgm accepts: h**2 and h**4, the scales of a raster's
#: area and second moment, stay normal floats.
PGM_CELL_SIZES = (1e-60, 1e60)

#: GridSpec.cover widens the content radius by the larger of COVER_PAD
#: and COVER_PAD_CELLS / n, so coarse grids still get margin cells.
COVER_PAD = 0.10
COVER_PAD_CELLS = 32.0

#: Tolerance, in cell sizes, of GridSpec.same_geometry and of a PGM's grid center.
_GEOMETRY_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Square-cell grid centred on the origin: nx columns, ny rows, cell size h."""

    nx: int
    ny: int
    h: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs at least one cell per axis")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"cell size must be finite and positive, got {self.h}")

    @classmethod
    def cover(cls, radius, n=512):
        """Origin-centered n-by-n grid whose inscribed disk covers radius.

        The margin rule: the half extent is the circumradius about the
        origin times a pad, so rotations and symmetrization keep content
        inside the grid (a symmetral of a subset of B(o, r) stays inside
        B(o, r)). The pad guarantees roughly a dozen margin cells even
        on coarse grids, so the staircase of a raster step, whose columns
        reach up to a cell beyond the set, stays inside the inscribed
        disk that a rotation needs.
        """
        if radius <= 0.0:
            raise ValueError("content radius must be positive")
        pad = 1.0 + max(COVER_PAD, COVER_PAD_CELLS / n)
        half = radius * pad
        return cls(nx=n, ny=n, h=2.0 * half / n)

    @property
    def half_width(self):
        return 0.5 * self.nx * self.h

    @property
    def half_height(self):
        return 0.5 * self.ny * self.h

    def x_centers(self):
        return (np.arange(self.nx) - (self.nx - 1) / 2.0) * self.h

    def y_centers(self):
        return (np.arange(self.ny) - (self.ny - 1) / 2.0) * self.h

    def x_edges(self):
        return (np.arange(self.nx + 1) - self.nx / 2.0) * self.h

    def y_edges(self):
        return (np.arange(self.ny + 1) - self.ny / 2.0) * self.h

    def same_geometry(self, other):
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and abs(self.h - other.h) <= _GEOMETRY_TOL * self.h
        )


#: The box of a plane with no nonzero cell.
_EMPTY_BOX = (slice(0, 0), slice(0, 0))


def _support_box(mask):
    """Row and column slices bounding the True cells of a mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    if len(rows) == 0:
        return _EMPTY_BOX
    cols = np.flatnonzero(mask.any(axis=0))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


class RasterSet:
    """Occupancy fractions on a GridSpec; row index grows with y.

    The rasters of a stepped AlignedRun hold the run's half-lengths in
    _profile and draw their plane, read-only, when occ is first read: the
    staircase of those intervals turned by _turn. The perimeter is the
    length of their section profile (see metrics.perimeter_estimate); at
    turn 0 the plane is the intervals themselves (see _intervals), so its
    mass and the metrics of metrics.measure follow column by column.
    Every raster a run returns holds in _ball the run's function that
    returns its comparison ball. Every other RasterSet holds its plane
    and None in both.
    """

    __slots__ = ("_occ", "grid", "_profile", "_turn", "_ball")

    def __init__(self, occ, grid):
        occ = np.asarray(occ, dtype=float)
        if occ.shape != (grid.ny, grid.nx):
            raise ValueError(
                f"occupancy shape {occ.shape} does not match grid "
                f"({grid.ny}, {grid.nx})"
            )
        if not np.all(np.isfinite(occ)):
            raise ValueError("occupancy must be finite")
        lo, hi = float(occ.min()), float(occ.max())
        if lo < -1e-9 or hi > 1.0 + 1e-9:
            raise ValueError(f"occupancy out of [0, 1]: min {lo}, max {hi}")
        self._occ = np.clip(occ, 0.0, 1.0)
        self.grid = grid
        self._profile = None
        self._turn = 0.0
        self._ball = None

    @property
    def occ(self):
        if self._occ is None:  # draw the profile's intervals, turned
            g, half = self.grid, self._profile
            if self._turn == 0.0:
                self._occ = np.zeros((g.ny, g.nx))
                _fill_intervals(self._occ, half)
            else:
                self._occ = _rasterize_intervals(g, half, _rotation(self._turn))
            self._occ.flags.writeable = False
        return self._occ

    def __repr__(self):
        g = self.grid
        return f"RasterSet({g.nx}x{g.ny}, h={g.h:.6g}, area={self.area():.6g})"

    @property
    def h(self):
        return self.grid.h

    def _intervals(self):
        """The half-lengths whose intervals the plane is, or None: those of
        a run's raster at turn 0, of either sign (see occ)."""
        return self._profile if self._turn == 0.0 else None

    def _comparison_ball(self):
        """The origin ball of the set's area rasterized on its grid, and its
        column prefix sums (see _ball_table); a run's rasters take the
        run's (see AlignedRun._comparison_ball)."""
        if self._ball is not None:
            return self._ball()
        return _ball_table(self.grid, self.area())

    def mass(self):
        half = self._intervals()
        if half is not None:
            return 2.0 * float(half.sum())
        return float(self.occ.sum())

    def area(self):
        return self.mass() * self.grid.h**2

    @classmethod
    def _trusted(cls, occ, grid, profile=None, turn=0.0, ball=None):
        """A RasterSet on occ as it is, without validation or copy.

        For planes this module builds with values in [0, 1]; profile, when
        given, holds the half-lengths whose staircase, turned by turn about
        the origin, occ is drawn from. With occ None the plane is drawn
        from profile when it is first read. ball, when given, is the
        function that returns the comparison ball (see _comparison_ball).
        """
        rs = object.__new__(cls)
        rs._occ = occ
        rs.grid = grid
        rs._profile = profile
        rs._turn = turn
        rs._ball = ball
        return rs

    def with_occ(self, occ):
        return RasterSet(occ, self.grid)


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------


def _check_bbox(grid, xmin, xmax, ymin, ymax):
    if (
        xmin < -grid.half_width
        or xmax > grid.half_width
        or ymin < -grid.half_height
        or ymax > grid.half_height
    ):
        raise ValueError(
            "shape exceeds the grid: bounding box "
            f"[{xmin:.4g}, {xmax:.4g}] x [{ymin:.4g}, {ymax:.4g}] vs grid half "
            f"extents ({grid.half_width:.4g}, {grid.half_height:.4g})"
        )


def _forward(a0, a1, b0, b1):
    """The edges (a0, b0) -> (a1, b1) run towards +a, as (a0, a1, b0, b1),
    and the sign of each: -1.0 where an edge was turned round."""
    back = a0 > a1
    return (np.where(back, a1, a0), np.where(back, a0, a1),
            np.where(back, b1, b0), np.where(back, b0, b1), np.where(back, -1.0, 1.0))


def _cut(a0, a1, b0, b1):
    """The edges (a0, b0) -> (a1, b1), with a0 <= a1, cut at every integer
    a strictly inside them: the start and end of every piece, as (sa, ea,
    sb, eb), in order along each edge and edge after edge, and each edge's
    piece count. A cut's a is the exact integer, its b is interpolated."""
    lo = np.floor(a0) + 1.0
    count = np.maximum(np.ceil(a1) - lo, 0.0).astype(np.int64)
    before = np.cumsum(count) - count  # cuts of the earlier edges
    edge = np.repeat(np.arange(len(count)), count)
    line = np.arange(len(edge), dtype=float) + np.repeat(lo - before, count)
    t = (line - a0[edge]) / (a1[edge] - a0[edge])
    at = b0[edge] + t * (b1[edge] - b0[edge])
    # edge e has count[e] + 1 pieces, from first[e] to first[e] + count[e];
    # its cut k ends piece first[e] + k and starts the next one
    first = before + np.arange(len(count))
    ends = np.arange(len(edge)) + edge
    n = len(count) + len(edge)
    sa, ea, sb, eb = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    sa[first], sb[first] = a0, b0
    ea[first + count], eb[first + count] = a1, b1
    ea[ends], eb[ends] = line, at
    sa[ends + 1], sb[ends + 1] = line, at
    return sa, ea, sb, eb, count + 1


def _rasterize_polygon(v, grid):
    """Covered fraction of every cell of the polygon with the vertices v,
    by signed-area accumulation.

    The edges are cut at the vertical grid lines and their pieces at the
    horizontal ones (see _cut), so each piece lies in one cell. In grid
    units a piece with vertical extent dv and mean column coordinate u in
    cell (i, j) sweeps dv * (j + 1 - u) of its own cell and dv of every
    cell to its right in row i. The vertices run counterclockwise, so the
    left boundary goes down and adds coverage while the right boundary
    goes up and removes it. A cell's coverage is minus the sum of its
    in-cell terms and of the full-cell terms of the pieces to its left, a
    prefix sum along the row; cells that no edge enters read +0.0, as in
    np.zeros.

    No piece crosses a grid line: each pass places its cuts from the
    pieces' own rounded ends, so a piece of the first pass lies between
    two vertical lines k and k + 1 and one of the second between two
    horizontal ones. Within such a piece with k >= 1 the difference of its
    two u values is exact (Sterbenz), so a u interpolated on it cannot
    leave [k, k + 1]; in column 0 the index clip absorbs a one-ulp step.

    The terms are summed, and the prefix sums taken, over the box of the
    rows and columns the pieces touch only, in the order of the pieces.
    A row's terms sum to exactly zero, so every cell outside the box is
    +0.0 and the box is written into a zero plane.
    """
    _check_bbox(grid, v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())
    # rows start at v = 1, so every v is a multiple of 2**-52 and each dv
    # and every row sum of them is exact: cells that no edge enters come
    # out exactly 0.0 or 1.0
    p = (v - (grid.x_edges()[0], grid.y_edges()[0])) / grid.h + (0.0, 1.0)
    q = np.roll(p, -1, axis=0)
    # a piece's dv takes the signs of both turns towards +u and +v
    u0, u1, v0, v1, sign_u = _forward(p[:, 0], q[:, 0], p[:, 1], q[:, 1])
    su, eu, sv, ev, pieces = _cut(u0, u1, v0, v1)
    v0, v1, u0, u1, sign_v = _forward(sv, ev, su, eu)
    sv, ev, su, eu, pieces_v = _cut(v0, v1, u0, u1)
    dv = np.repeat(np.repeat(sign_u, pieces) * sign_v, pieces_v) * (ev - sv)
    j = np.clip(np.floor(np.minimum(su, eu)).astype(np.int64), 0, grid.nx - 1)
    i = np.clip(np.floor(sv).astype(np.int64) - 1, 0, grid.ny - 1)
    # bincount adds in input order from +0.0, as np.add.at into np.zeros
    i0, j0 = int(i.min()), int(j.min())
    rows, cols = int(i.max()) + 1 - i0, int(j.max()) + 1 - j0
    at = (i - i0) * (cols + 1) + (j - j0)
    full = np.bincount(at + 1, dv, rows * (cols + 1)).reshape(rows, cols + 1)
    cell = np.bincount(at, dv * (j + 1 - 0.5 * (su + eu)), rows * (cols + 1))
    cell = cell.reshape(rows, cols + 1)[:, :-1]
    out = np.zeros((grid.ny, grid.nx))
    box = out[i0 : i0 + rows, j0 : j0 + cols]
    np.cumsum(full[:, :-1], axis=1, out=box)
    box += cell
    np.subtract(0.0, box, out=box)
    np.clip(box, 0.0, 1.0, out=box)
    return out


def _disk_fraction(grid, r):
    """Per-cell covered fraction of the origin disk of radius r, exact up
    to rounding.

    The disk is the convex polygon through (r, 0) and every point where
    the circle crosses a grid line, plus, for each polygon edge, the
    circular segment between the edge and its arc, r**2 / 2 * (phi -
    sin(phi)) for an arc of angle phi. Consecutive points bound an arc
    inside one cell, so the polygon goes through _rasterize_polygon and
    each segment is added to the cell that holds it (the cell of a point
    between the middles of its chord and its arc): cells the circle
    misses come out exactly 0.0 or 1.0.
    """
    _check_bbox(grid, -r, r, -r, r)
    xe, ye = grid.x_edges(), grid.y_edges()
    xs, ys = xe[np.abs(xe) < r], ye[np.abs(ye) < r]
    at_x = np.sqrt((r - xs) * (r + xs))
    at_y = np.sqrt((r - ys) * (r + ys))
    x = np.concatenate([[r], xs, xs, at_y, -at_y])
    y = np.concatenate([[0.0], at_x, -at_x, ys, ys])
    angle = np.arctan2(y, x)
    order = np.argsort(angle)
    angle = angle[order]
    phi = np.diff(angle, append=angle[0] + 2.0 * math.pi)
    mid = angle + 0.5 * phi
    # a point inside each segment, halfway from its chord to its arc: the
    # arc's own midpoint lies on the grid line that the circle touches
    # there, and would name the cell beyond it
    inner = 0.5 * r * (1.0 + np.cos(0.5 * phi))
    j = np.floor((inner * np.cos(mid) - xe[0]) / grid.h).astype(np.int64)
    i = np.floor((inner * np.sin(mid) - ye[0]) / grid.h).astype(np.int64)
    occ = _rasterize_polygon(np.column_stack([x[order], y[order]]), grid)
    segment = 0.5 * (r / grid.h) ** 2 * (phi - np.sin(phi))
    i, j = np.clip(i, 0, grid.ny - 1), np.clip(j, 0, grid.nx - 1)
    np.add.at(occ, (i, j), segment)
    # the cells the circle crosses bound every cell that is not 0.0
    box = occ[i.min() : i.max() + 1, j.min() : j.max() + 1]
    np.clip(box, 0.0, 1.0, out=box)
    return occ


def rasterize(shape, grid):
    """Exact-coverage raster of a convex polygon or an origin ball.

    Coverage is one signed-area accumulation: each edge piece deposits
    its exact trapezoid area into the cells of its row and a prefix sum
    along the row gives the covered fractions (see _rasterize_polygon).
    A ball is its polygon of grid-line crossings plus the exact circular
    segment of each edge (see _disk_fraction).
    """
    if isinstance(shape, ConvexPolygon):
        return RasterSet(_rasterize_polygon(shape.vertices, grid), grid)
    if isinstance(shape, Ball):
        return RasterSet(_disk_fraction(grid, shape.radius), grid)
    raise TypeError(f"cannot rasterize {type(shape).__name__}")


def annulus_fixture(r_inner, r_outer, grid):
    """Raster of the annulus r_inner <= |x| <= r_outer about the origin."""
    if not 0.0 <= r_inner < r_outer:
        raise ValueError(
            f"need 0 <= r_inner < r_outer, got ({r_inner}, {r_outer})"
        )
    occ = _disk_fraction(grid, r_outer) - _disk_fraction(grid, r_inner)
    return RasterSet(np.clip(occ, 0.0, 1.0), grid)


def _ball_table(grid, area):
    """The origin ball of the given area rasterized on grid, and its column
    prefix sums: prefix[k, j] is the ball's mass in rows below k of
    column j."""
    ball = _disk_fraction(grid, math.sqrt(area / math.pi))
    prefix = np.zeros((grid.ny + 1, grid.nx))
    # np.cumsum(ball, axis=0) bit for bit: its recurrence, one add per row
    # over the ball's support box, faster than an accumulate down the
    # columns; the zeros around the box add nothing
    rows, cols = _support_box(ball != 0.0)
    for k in range(rows.start, rows.stop):
        np.add(prefix[k, cols], ball[k, cols], out=prefix[k + 1, cols])
    prefix[rows.stop + 1 :, cols] = prefix[rows.stop, cols]
    return ball, prefix


# ---------------------------------------------------------------------------
# the column step
# ---------------------------------------------------------------------------


def _column_masses(p, q, w, grid):
    """Mass, in cells, of every column strip of the set bounded by the
    weighted edges p -> q, given in frame coordinates.

    Counterclockwise loops count positive. By Green's theorem a piece
    a -> b of the boundary adds w * (u_a - u_b) * (v_a + v_b) / 2, in grid
    units, so the edges are split at the vertical grid lines and each
    piece is added to its column strip; pieces off the grid count in the
    first or last column.

    The edges are run towards +u and cut in one pass (see _cut), so the
    sums run in the order of the boundary.
    """
    x0, h = -grid.half_width, grid.h  # grid.x_edges()[0], bit for bit
    u0, u1, v0, v1, sign = _forward((p[:, 0] - x0) / h, (q[:, 0] - x0) / h,
                                    p[:, 1] / h, q[:, 1] / h)
    su, eu, sv, ev, pieces = _cut(u0, u1, v0, v1)
    area = np.repeat(sign * w, pieces) * (su - eu) * (sv + ev) * 0.5
    col = np.clip(np.floor(0.5 * (su + eu)), 0, grid.nx - 1)
    return np.bincount(col.astype(np.int64), weights=area, minlength=grid.nx)


def _jumps(box, axis):
    """Row and column indices, in row-major order as np.nonzero gives
    them, and values of the nonzero steps of box along axis, with zeros
    around box."""
    step = np.diff(box, axis=axis, prepend=0.0, append=0.0)
    i, j = np.divmod(np.flatnonzero(step != 0.0), step.shape[1])
    return i, j, step[i, j]


def _raster_edges(occ, grid):
    """A raster as weighted grid edges, in world coordinates.

    A cell of value c is c times its counterclockwise boundary, so the
    sides two cells share add up to the jump of occ across them; zero
    jumps are dropped. Horizontal edges run left to right with the value
    above minus the value below, vertical ones upwards with the value on
    the left minus the value on the right. Only the support box of occ
    is scanned: outside it every cell is a zero and every jump is too.
    """
    rows, cols = _support_box(occ != 0.0)
    box = occ[rows, cols]
    xe, ye = grid.x_edges()[cols.start :], grid.y_edges()[rows.start :]
    i, j, rise = _jumps(box, 0)
    k, m, fall = _jumps(box, 1)
    p = np.column_stack([np.r_[xe[j], xe[m]], np.r_[ye[i], ye[k]]])
    q = np.column_stack([np.r_[xe[j + 1], xe[m]], np.r_[ye[i], ye[k + 1]]])
    return p, q, np.r_[rise, -fall]


def _staircase(grid, half):
    """The union of the interval columns as one counterclockwise loop, in
    world coordinates: along the interval bottoms left to right, back
    along the tops. Empty columns between two occupied ones add an edge
    and its reverse, which cover nothing. No intervals give no vertices.
    """
    nz = np.flatnonzero(half)
    if len(nz) == 0:
        return np.empty((0, 2))
    lo, hi = nz[0], nz[-1] + 1
    x = np.repeat(grid.x_edges()[lo : hi + 1], 2)[1:-1]
    y = np.repeat(half[lo:hi] * grid.h, 2)
    m = len(x)
    loop = np.empty((2 * m, 2))
    loop[:m, 0], loop[m:, 0] = x, x[::-1]
    np.negative(y, out=loop[:m, 1])
    loop[m:, 1] = y[::-1]
    return loop


def _interval_lengths(mass, n, target=None):
    """Half-lengths, in cells, of the intervals that hold the column
    masses in columns of n cells.

    With a target every length is scaled by target / mass.sum(), so the
    intervals hold exactly that mass; a zero total stays zero.
    """
    mass = np.maximum(mass, 0.0)
    scale = 0.5
    if target is not None:
        total = mass.sum()
        if total > 0.0:
            scale *= target / total
    # a column of n < 2**e cells: every multiple of 2**(e - 52) up to n,
    # and every difference and sum of them within n, is a float, so the
    # intervals are written and summed back without rounding
    unit = math.ldexp(1.0, math.frexp(n)[1] - 52)
    half = np.rint(mass * (scale / unit))
    half *= unit
    return half


def _fill_intervals(out, half):
    """Write each column's interval, centred on the grid midline, into out.

    A cell's value is the length of its overlap with the interval, so the
    full cells are 1.0 and there is one partial cell at each end (see
    _interval_cells). out must be zero outside the intervals: only the
    rows and columns they reach are written.
    """
    mid = 0.5 * out.shape[0]
    top = float(half.max())
    if top > mid:
        raise ValueError(
            f"a column interval of length {2.0 * top:.6g} cells exceeds the grid; "
            "rebuild on a larger grid"
        )
    occupied = np.flatnonzero(half)
    if len(occupied) == 0:
        return
    rows = slice(math.floor(mid - top), math.ceil(mid + top))
    cols = slice(occupied[0], occupied[-1] + 1)
    edge = np.arange(rows.start, rows.stop, dtype=float)[:, None]
    cell = out[rows, cols]
    np.minimum(edge + 1.0, mid + half[cols], out=cell)
    cell -= np.maximum(edge, mid - half[cols])
    np.clip(cell, 0.0, 1.0, out=cell)


def _interval_cells(half, n):
    """The cells that _fill_intervals writes for the half-lengths half in
    columns of n cells, as (a, b, bottom, top) per column.

    With mid = n / 2, the interval runs from mid - half to mid + half:
    rows a + 1 .. b - 1 are full, row a holds bottom and row b holds top.
    A column whose interval lies inside one cell has a == b, bottom =
    2 * half and top = 0.
    """
    mid = 0.5 * n
    a = np.floor(mid - half).astype(np.int64)
    b = np.minimum(np.floor(mid + half).astype(np.int64), n - 1)
    one = a == b
    bottom = np.where(one, 2.0 * half, (a + 1) - (mid - half))
    top = np.where(one, 0.0, (mid + half) - b)
    return a, b, bottom, top


def _check_inside_disk(grid, half):
    """Refuse intervals whose staircase leaves the grid's inscribed disk,
    where every turn of it about the origin fits the grid. The limit
    keeps a 1e-12 relative margin for the rounding of a turn."""
    xe = grid.x_edges()
    far = np.maximum(np.abs(xe[:-1]), np.abs(xe[1:]))[half > 0.0]
    radius = float(np.hypot(far, half[half > 0.0] * grid.h).max()) if len(far) else 0.0
    limit = min(grid.half_width, grid.half_height) * (1.0 - 1e-12)
    if radius > limit:
        raise ValueError(
            f"symmetral radius {radius:.4g} leaves the inscribed disk of the grid "
            f"(radius {limit:.4g}); rebuild on a larger grid"
        )


def _rasterize_intervals(grid, half, matrix):
    """Exact raster of the interval columns, mapped by matrix about the origin."""
    loop = _staircase(grid, half)
    if len(loop) == 0:
        return np.zeros((grid.ny, grid.nx))
    return _rasterize_polygon(loop @ matrix.T, grid)


def steiner_raster(rs, direction):
    """Symmetral of a raster set with respect to a direction.

    Every column along the direction becomes the interval centred on the
    origin line whose length is the column's mass. Axis-aligned
    directions read the column sums. Any other direction is one step of
    an AlignedRun on the raster, drawn in the world frame.
    """
    theta = as_theta(direction)
    grid = rs.grid
    out = np.zeros((grid.ny, grid.nx))

    mod = math.fmod(theta, math.pi)
    if mod < 0.0:
        mod += math.pi
    if abs(mod - 0.5 * math.pi) <= 1e-12:
        _fill_intervals(out, _interval_lengths(rs.occ.sum(axis=0), grid.ny))
    elif mod <= 1e-12 or math.pi - mod <= 1e-12:
        _fill_intervals(out.T, _interval_lengths(rs.occ.sum(axis=1), grid.nx))
    else:
        out = AlignedRun(rs).apply(theta).world_raster().occ
    return rs.with_occ(out)


class AlignedRun:
    """Incremental driver for long composed symmetrizations of one raster.

    The set is kept in the frame where the most recent direction is
    vertical. After a step every column is an interval centred on the
    grid midline, so the run is its half-lengths: their union is one
    staircase polygon. A step turns that staircase (at first the seed's
    weighted grid edges) by the angle between consecutive directions and
    takes its exact column masses, scaled to the seed's mass. A repeated
    direction changes nothing; a first step along the seed's columns
    reads their sums. Functionals that only depend on distances from the
    origin can be read off the frame raster; the world-frame raster is
    the staircase, turned back and rasterized exactly.

    The run holds the seed's plane until its first step and no plane
    after it: its rasters draw theirs when they are first read. Its
    comparison ball, which every raster it returns shares, is built on
    the first d1_to_ball of one of them.
    """

    def __init__(self, rs):
        self.grid = rs.grid
        self._seed = rs.occ + 0.0  # a copy whose zeros are +0.0, as np.zeros writes
        self._seed.flags.writeable = False
        self._lengths = None  # no step yet: the run holds the seed
        self.frame = 0.0  # world-to-frame rotation angle
        self.target_mass = rs.mass()
        # the last step's (mass.sum() - target_mass) / target_mass, a rounding
        # error the scale absorbs; 0.0 where it took no column masses
        self.mass_drift = 0.0
        self._table = None  # the comparison ball, built on first use

    def apply(self, direction):
        theta = as_theta(direction)
        target = 0.5 * math.pi - theta
        delta = math.remainder(target - self.frame, 2.0 * math.pi)
        grid, old = self.grid, self._lengths
        self.mass_drift = 0.0
        if delta == 0.0 and old is not None:
            self.frame = target
            return self
        if delta == 0.0:
            half = _interval_lengths(self._seed.sum(axis=0), grid.ny)
        else:
            turn = _rotation(delta).T
            if old is None:
                p, q, w = _raster_edges(self._seed, grid)
                p, q = p @ turn, q @ turn
            else:
                p = _staircase(grid, old) @ turn
                q, w = np.roll(p, -1, axis=0), 1.0
            mass = _column_masses(p, q, w, grid)
            if self.target_mass > 0.0:
                self.mass_drift = float(
                    (mass.sum() - self.target_mass) / self.target_mass)
            half = _interval_lengths(mass, grid.ny, self.target_mass)
        _check_inside_disk(grid, half)  # so every drawing fits the grid
        self._lengths = half
        self._seed = None
        self.frame = target
        return self

    @property
    def occ(self):
        """The plane of the current frame raster, read-only."""
        return self.frame_raster().occ

    def frame_raster(self):
        """The set in the current frame: the seed's plane, read-only,
        before a step, and the run's half-lengths after one, which later
        steps leave as they are (see RasterSet)."""
        if self._lengths is None:
            return RasterSet._trusted(self._seed, self.grid, ball=self._comparison_ball)
        return RasterSet._trusted(None, self.grid, self._lengths,
                                  ball=self._comparison_ball)

    def world_raster(self):
        """The set in the world frame: after a step, the run's half-lengths
        with the turn back to the world, drawn as the exact raster of the
        turned staircase when its plane is first read.

        It carries the half-lengths as its profile, so its perimeter is
        the frame raster's; with_occ of an edited copy of its plane
        measures the edit.
        """
        if self._lengths is None:
            return self.frame_raster()
        turn = math.remainder(-self.frame, 2.0 * math.pi)
        return RasterSet._trusted(None, self.grid, self._lengths, turn,
                                  ball=self._comparison_ball)

    def _comparison_ball(self):
        """The origin ball of the seed's area on the run's grid and its
        column prefix sums (see _ball_table), built on the first call. The
        area is target_mass * h**2, the seed's area() bit for bit, and it
        stays the run's area whatever rounding its steps add."""
        if self._table is None:
            self._table = _ball_table(self.grid, self.target_mass * self.grid.h**2)
        return self._table


# ---------------------------------------------------------------------------
# PGM input/output
# ---------------------------------------------------------------------------

_META_RE = re.compile(rb"#\s*cellsize=(\S+)\s+ox=(\S+)\s+oy=(\S+)")


def write_pgm(path, rs, binary=True):
    """Write a raster as PGM, maxval 65535, top row first.

    The world geometry travels in a comment line:
    ``# cellsize=<h> ox=0 oy=0``, the cell size and the grid center.
    """
    g = rs.grid
    vals = np.rint(rs.occ[::-1, :] * PGM_MAXVAL).astype(np.uint16)
    header = (
        f"{'P5' if binary else 'P2'}\n"
        f"# cellsize={g.h:.15g} ox=0 oy=0\n"
        f"{g.nx} {g.ny}\n{PGM_MAXVAL}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(vals.astype(">u2").tobytes())
        else:
            for row in vals:
                fh.write((" ".join(str(v) for v in row) + "\n").encode("ascii"))


def _pgm_header(fh, path):
    """(binary, nx, ny, maxval, meta) of the PGM open in fh at its start,
    meta the first match of _META_RE on a comment line of the header, or
    None; None for a file that does not start with the P2 or P5 magic.

    This is the one reader of the magic. The header is read byte by byte
    up to the whitespace that ends maxval, so fh is left at the first
    sample and no sample is read. A token that is not an integer, a
    header that ends early, an empty image or a maxval outside
    1..PGM_MAXVAL raises naming the file.
    """
    magic = fh.read(2)
    if magic not in (b"P2", b"P5"):
        return None
    # tokenize: width, height, maxval; a '#' before a token starts a comment
    tokens, meta = [], None
    c = fh.read(1)
    while len(tokens) < 3:
        if c.isspace():
            c = fh.read(1)
        elif c == b"#":
            meta = meta or _META_RE.search(c + fh.readline())
            c = fh.read(1)
        else:
            tok = bytearray()
            while c and not c.isspace():
                tok += c
                c = fh.read(1)
            if not tok:
                raise ValueError(f"{path}: header ends before width, height and maxval")
            if not tok.isdigit():
                raise ValueError(f"{path}: header token {bytes(tok)!r} is not an integer")
            try:
                tokens.append(int(tok))
            except ValueError:  # past the interpreter's digit limit
                raise ValueError(
                    f"{path}: header token of {len(tok)} digits is too long") from None
    nx, ny, maxval = tokens
    if nx < 1 or ny < 1:
        raise ValueError(f"{path}: image size {nx}x{ny} has no cells")
    if not 1 <= maxval <= PGM_MAXVAL:
        raise ValueError(f"{path}: maxval {maxval} outside 1..{PGM_MAXVAL}")
    return magic == b"P5", nx, ny, maxval, meta


def _pgm_size(path):
    """(nx, ny) of the PGM file at path, from its header alone, or None
    when the file does not start with a P2/P5 magic."""
    with open(path, "rb") as fh:
        header = _pgm_header(fh, path)
    return None if header is None else header[1:3]


def read_pgm(path):
    """Read a P2 or P5 PGM written by write_pgm (or any plain grayscale PGM).

    Without the geometry comment in the header the grid defaults to cell
    size 1. A center within 1e-9 cells of the origin reads as the origin.
    A cell size outside PGM_CELL_SIZES, a center that is not finite or
    lies farther off, or a sample outside 0..maxval, raises naming the
    file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = io.BytesIO(data)
    header = _pgm_header(head, path)
    if header is None:
        raise ValueError(f"{path}: not a P2/P5 PGM file")
    binary, nx, ny, maxval, meta = header
    pos = head.tell()
    if binary:
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        count = (len(data) - pos) // dtype.itemsize
        if count < nx * ny:
            raise ValueError(f"{path}: expected {nx * ny} samples, got {count}")
        vals = np.frombuffer(data, dtype=dtype, count=nx * ny, offset=pos)
    else:
        try:
            vals = np.array(data[pos:].split(), dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: P2 sample is not an integer ({exc})") from None
        if len(vals) != nx * ny:
            raise ValueError(f"{path}: expected {nx * ny} samples, got {len(vals)}")
    lo, hi = int(vals.min()), int(vals.max())
    if lo < 0 or hi > maxval:
        raise ValueError(f"{path}: sample {lo if lo < 0 else hi} outside 0..{maxval}")
    h, cx, cy = meta.groups() if meta else (1.0, 0.0, 0.0)
    try:
        h, cx, cy = float(h), float(cx), float(cy)
        if not all(map(math.isfinite, (h, cx, cy))):
            raise ValueError(f"cell size and center must be finite, got {h}, ({cx}, {cy})")
        lo, hi = PGM_CELL_SIZES
        if not lo <= h <= hi:
            raise ValueError(f"cell size {h!r} outside {lo:g}..{hi:g}")
        grid = GridSpec(nx=nx, ny=ny, h=h)
        if max(abs(cx), abs(cy)) > _GEOMETRY_TOL * h:
            raise ValueError(f"grid center ({cx:.6g}, {cy:.6g}) is not the origin")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    occ = vals.reshape(ny, nx).astype(float)[::-1, :] / maxval
    return RasterSet(occ, grid)
