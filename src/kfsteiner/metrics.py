"""Scalar functionals used to instrument symmetrization runs.

Area and second moment are exact for polygons (shoelace and apex
triangle formulas) and for rasters up to the stored occupancy (the cell
self-moment h*h/6 makes the second moment exact for unions of full
cells). The set distance d1 is the L1 distance of occupancy functions,
which equals the area of the symmetric difference for indicator sets.

A raster's second moment is summed from its row and column masses. A
raster of a stepped rasters.AlignedRun at turn 0, its frame raster, is a
column of intervals centred on the grid midline, and it carries their
half-lengths: its mass, second moment and d1 to the ball follow column
by column in closed form from the half-lengths, a prefix sum of y**2 and
the ball's column prefix sums, without a pass over the grid; measure
finds the interval's cells once for both. Every other raster takes the
full-grid path. The ball of a raster's d1 comes from the raster: a run's
rasters share the run's, every other raster rasterizes its own.

The perimeter of a raster that a stepped run drew from its intervals,
its frame raster or its world raster, is the length of their section
profile, read in one pass over the columns. Every other raster (a seed,
a steiner_raster output, a PGM) is measured on its plane, as the length
of the 0.5-level isoline of its bilinear occupancy: marching squares
over the cells that the isoline crosses.

A polygon's area is its own: the shoelace sum of a plain polygon, the
trapezoid sum of a symmetral's section profile. measure forms the edge
columns that its second moment and disk parts sum once
(ConvexPolygon._halves): a plain polygon's edges, or the upper half of a
symmetral's profile, whose sums are doubled. It takes the second moment
and the disk parts behind d1 from them, the bits of moment_about_origin
and d1_to_ball, without drawing a symmetral's vertices. The Hausdorff
distance to the ball and the perimeter read the edge columns of the
drawn vertices and share the edge lengths, the bits of ball_hausdorff
and perimeter().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rasters as _rasters
from .polygons import (
    Ball,
    ConvexPolygon,
    _ball_hausdorff,
    _disk_parts,
    _edge_lengths,
    _edge_terms,
    _moment,
    # never called here: d1 takes _disk_parts of the polygon's _halves.
    # perfbench/worker.py patches this name, so its
    # polygons.disk_intersection_area span reads 0 and the disk parts'
    # time sits in metrics.measure (ROADMAP item 1)
    disk_intersection_area,
)
from .rasters import RasterSet

__all__ = [
    "MetricsRecord",
    "area",
    "moment_of_inertia",
    "d1",
    "d1_to_ball",
    "perimeter_estimate",
    "grid_tolerance",
    "measure",
]

#: Multiplier in the per-test grid tolerance C * h * perimeter.
GRID_TOL_FACTOR = 8.0


@dataclass(frozen=True)
class MetricsRecord:
    """Per-set diagnostics recorded along a run."""

    area: float
    mu: float
    d1_to_ball: float
    hausdorff_to_ball: float | None = None
    perimeter: float | None = None


def area(obj):
    """Lebesgue measure: shoelace for plain polygons, the profile's
    trapezoid sum for symmetrals, mass * h**2 for rasters."""
    if isinstance(obj, ConvexPolygon):
        return obj.area()
    if isinstance(obj, RasterSet):
        return obj.area()
    if isinstance(obj, Ball):
        return obj.area
    raise TypeError(f"no area for {type(obj).__name__}")


def moment_of_inertia(obj):
    """Integral of x**2 + y**2 over the set, about the origin.

    A raster's cells add their mass times y**2 + x**2 + h**2 / 6, which is
    summed from its row and column masses, or, for a raster of a stepped
    run at turn 0, from its intervals column by column.
    """
    if isinstance(obj, ConvexPolygon):
        return obj.moment_about_origin()
    if isinstance(obj, RasterSet):
        return _raster_moment(obj, _interval_cells_of(obj))
    if isinstance(obj, Ball):
        return 0.5 * math.pi * obj.radius**4
    raise TypeError(f"no moment for {type(obj).__name__}")


def _interval_cells_of(rs):
    """rasters._interval_cells of the raster's intervals, or None for a
    raster that is not a column of intervals (see RasterSet._intervals)."""
    half = rs._intervals()
    if half is None:
        return None
    return _rasters._interval_cells(half, rs.grid.ny)


def _raster_moment(rs, cells):
    """moment_of_inertia of a raster whose _interval_cells_of are cells."""
    g = rs.grid
    y2 = g.y_centers() ** 2
    if cells is None:
        inner = float(np.dot(y2, rs.occ.sum(axis=1)))
        cols = rs.occ.sum(axis=0)
    else:
        a, b, bottom, top = cells
        prefix = np.concatenate([[0.0], np.cumsum(y2)])
        full = prefix[np.maximum(b, a + 1)] - prefix[a + 1]
        inner = float((full + bottom * y2[a] + top * y2[b]).sum())
        cols = 2.0 * rs._intervals()
    weight = g.x_centers() ** 2 + g.h**2 / 6.0
    return (inner + float(np.dot(weight, cols))) * g.h**2


def d1(a, b):
    """L1 distance of two rasters' occupancy functions on one grid."""
    if not a.grid.same_geometry(b.grid):
        raise ValueError("rasters live on different grids")
    return float(np.abs(a.occ - b.occ).sum() * a.grid.h**2)


def d1_to_ball(obj):
    """d1 distance to the origin ball of equal area.

    Exact for polygons via the polygon-disk intersection; for rasters
    the ball is rasterized on the same grid. A raster of a run compares
    against the run's ball, of the area the run keeps constant, and one
    of intervals reads the ball's column prefix sums instead of its
    cells.
    """
    if isinstance(obj, ConvexPolygon):
        return _polygon_d1_to_ball(*obj._halves(), obj.area())
    if isinstance(obj, RasterSet):
        return _raster_d1_to_ball(obj, _interval_cells_of(obj))
    raise TypeError(f"no d1_to_ball for {type(obj).__name__}")


def _raster_d1_to_ball(rs, cells):
    """d1_to_ball of a raster whose _interval_cells_of are cells."""
    ball, prefix = rs._comparison_ball()
    if cells is not None:
        return _intervals_to_ball(cells, ball, prefix) * rs.grid.h**2
    return float(np.abs(rs.occ - ball).sum() * rs.grid.h**2)


def _intervals_to_ball(cells, ball, prefix):
    """Sum of |occ - ball| over the cells of the intervals whose
    rasters._interval_cells are cells, column by column from the ball's
    prefix sums: the ball's mass below and above the interval, the full
    rows' 1 - ball, and the two end cells."""
    n, m = ball.shape
    a, b, bottom, top = cells
    j = np.arange(m)
    c = np.maximum(b, a + 1)  # the full rows are a + 1 .. c - 1
    outside = prefix[a, j] + (prefix[n] - prefix[b + 1, j])
    full = (c - a - 1) - (prefix[c, j] - prefix[a + 1, j])
    ends = np.abs(bottom - ball[a, j]) + (a < b) * np.abs(top - ball[b, j])
    return float((outside + full + ends).sum())


def _polygon_d1_to_ball(terms, copies, a):
    """Exact d1 of a polygon of area a, given by its
    ConvexPolygon._halves (terms, copies), to the origin ball of that
    area.

    d1 is 2 (a - |P & B|). Where the polygon winds once about the origin
    |P & B| is pi r**2 minus the circular segments of B outside P, and
    pi r**2 = a, so d1 is twice that sum of segments rather than the
    difference of two near-equal areas: for a symmetral, four times the
    segments of its profile's upper half. a itself carries the rounding
    of its sum, up to about 2e-15 a at 60k vertices.
    """
    r = math.sqrt(a / math.pi)
    turn, segments = _disk_parts(terms, copies, r)
    if turn is None:
        return 2.0 * segments
    return 2.0 * (a - (0.5 * (r * r) * turn - segments))


def _profile_perimeter(half, h):
    """Perimeter of the section profile {|y| <= l(x) / 2} of interval
    columns with the half-lengths half, in cells, on cells of size h.

    l is linear between column centres and is 2 * half[j] * h at centre
    j, so the upper and the lower boundary each run h * hypot(1, dhalf)
    between neighbouring centres. The profile ends at the first and last
    occupied centres with a vertical cap of length 2 * half * h each. An
    empty column between occupied ones pinches the profile to a point;
    between two empty ones it bounds nothing and adds nothing.
    """
    occupied = np.flatnonzero(half)
    if len(occupied) == 0:
        return 0.0
    s = half[occupied[0] : occupied[-1] + 1]
    sides = np.hypot(1.0, np.diff(s))[(s[:-1] > 0.0) | (s[1:] > 0.0)]
    return 2.0 * h * float(sides.sum() + s[0] + s[-1])


#: The corners of a cell of the isoline in cycle order, in cell units
#: from its bottom-left corner: bottom-left, bottom-right, top-right and
#: top-left. Edge e runs from corner e to corner e + 1.
_CELL_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _isoline_length(occ, h):
    """Length of the 0.5-level isoline of the bilinear interpolant of occ.

    The values sit at the cell centres, with zero outside the grid, and
    the isoline runs through the cells whose corners are four adjacent
    centres (marching squares). Only the cells whose corner classes
    (occ >= 0.5) differ carry a segment, and they lie in the box of the
    occ >= 0.5 cells and one cell around it. On each cut edge the
    crossing is linear; a cell with four crossings, a saddle, joins the
    two corners of the class of its mean, summed in an order that every
    turn and flip of the plane keeps. Each cell's crossings come in cycle
    order, so its segments are consecutive pairs; a saddle that joins its
    bottom-right and top-left corners pairs them from its second crossing.
    """
    inside = occ >= 0.5
    rows, cols = _rasters._support_box(inside)
    if rows.start == rows.stop:
        return 0.0
    ny, nx = occ.shape
    o = int(min(rows.start, cols.start) == 0 or rows.stop == ny or cols.stop == nx)
    if o:  # the set reaches the edge of the grid: pad it with the zeros beyond
        occ, inside = np.pad(occ, 1), np.pad(inside, 1)
    box = (slice(rows.start - 1 + o, rows.stop + 1 + o),
           slice(cols.start - 1 + o, cols.stop + 1 + o))
    v, k = occ[box], inside[box]
    mixed = (k[:-1, :-1] != k[:-1, 1:]) | (k[1:, :-1] != k[1:, 1:])
    # a cell has an even number of cut edges, so its right edge adds no cell
    mixed |= k[:-1, :-1] != k[1:, :-1]
    i, j = np.nonzero(mixed)
    corners = np.stack([v[i, j], v[i, j + 1], v[i + 1, j + 1], v[i + 1, j]], axis=1)
    ahead = np.roll(corners, -1, axis=1)
    cell, edge = np.nonzero((corners >= 0.5) != (ahead >= 0.5))
    lo, hi = corners[cell, edge], ahead[cell, edge]
    t = ((0.5 - lo) / (hi - lo))[:, None]
    ends = _CELL_CORNERS[edge]
    points = ends + t * (_CELL_CORNERS[(edge + 1) % 4] - ends)
    cuts = np.bincount(cell, minlength=len(i))
    a, b, c, d = corners.T
    late = (cuts == 4) & ((a >= 0.5) != ((a + c) + (b + d) >= 2.0))
    first = (np.cumsum(cuts) - cuts)[late, None]
    order = np.arange(len(points))
    order[first + np.arange(4)] = first + np.array([1, 2, 3, 0])
    seg = points[order].reshape(-1, 2, 2)
    return h * float(np.hypot(*(seg[:, 0] - seg[:, 1]).T).sum())


def perimeter_estimate(rs):
    """Perimeter estimate of a raster set.

    A raster that an AlignedRun drew from its interval columns after a
    step, frame or world, is measured as the polyline of its section
    profile (see _profile_perimeter): no turn changes a length, so both
    read the same value. Every other raster is measured as the 0.5-level
    isoline of its bilinear occupancy (see _isoline_length).
    """
    if rs._profile is not None:
        return _profile_perimeter(rs._profile, rs.grid.h)
    return _isoline_length(rs.occ, rs.grid.h)


def grid_tolerance(rs):
    """Discretization tolerance C * h * perimeter for raster assertions."""
    return GRID_TOL_FACTOR * rs.grid.h * perimeter_estimate(rs)


def measure(obj, with_hausdorff=False, with_perimeter=False):
    """Bundle the standard diagnostics for one set into a MetricsRecord.

    For rasters, with_perimeter takes perimeter_estimate: the profile
    length for the rasters of a stepped run.
    """
    a = area(obj)
    haus = None
    perim = None
    if isinstance(obj, ConvexPolygon):
        # one pass over the edges serves the moment and the disk parts
        terms, copies = obj._halves()
        mu = copies * _moment(terms)
        dball = _polygon_d1_to_ball(terms, copies, a)
        if with_hausdorff or with_perimeter:
            terms = _edge_terms(obj.vertices)
            lengths = _edge_lengths(terms)
        if with_hausdorff:
            haus = _ball_hausdorff(terms, lengths, math.sqrt(a / math.pi))
        if with_perimeter:
            perim = float(lengths.sum())
    else:
        # one pass over the intervals serves the moment and d1
        cells = _interval_cells_of(obj)
        mu = _raster_moment(obj, cells)
        dball = _raster_d1_to_ball(obj, cells)
        if with_perimeter:
            perim = perimeter_estimate(obj)
    return MetricsRecord(
        area=a, mu=mu, d1_to_ball=dball, hausdorff_to_ball=haus, perimeter=perim
    )
