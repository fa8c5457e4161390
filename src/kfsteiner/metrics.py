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
the ball's column prefix sums, without a pass over the grid. Every other
raster takes the full-grid path. The ball of a raster's d1 comes from
the raster: a run's rasters share the run's, every other raster
rasterizes its own.

The perimeter of a raster that a stepped run drew from its intervals,
its frame raster or its world raster, is the length of their section
profile, read in one pass over the columns. Every other raster (a seed,
a steiner_raster output, a PGM) takes the integral-geometry estimate,
which samples the grid along 64 rotated line directions.

A polygon's measure forms its edge columns once (polygons._edge_terms)
and takes the second moment and the disk parts behind d1 from them, the
bits of moment_about_origin and d1_to_ball. At 60k vertices that takes
1.05 ms, where a pass for each took 1.45 ms (2-core VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rasters as _rasters
from .polygons import (
    Ball,
    ConvexPolygon,
    _disk_parts,
    _edge_terms,
    _moment,
    _rotation,
    ball_hausdorff,
    # never called here: d1 takes _disk_parts of the shared edge terms.
    # perfbench/worker.py patches this name, so its
    # polygons.disk_intersection_area span reads 0 and the disk parts'
    # time sits in metrics.measure (ROADMAP item 1)
    disk_intersection_area,
    hausdorff,
)
from .rasters import RasterSet

__all__ = [
    "MetricsRecord",
    "area",
    "moment_of_inertia",
    "d1",
    "d1_to_ball",
    "hausdorff",
    "perimeter_estimate",
    "grid_tolerance",
    "measure",
]

#: Multiplier in the per-test grid tolerance C * h * perimeter.
GRID_TOL_FACTOR = 8.0

#: Line directions of the perimeter estimate inside grid_tolerance; a
#: coarse count is enough for an error budget.
GRID_TOL_DIRECTIONS = 8


@dataclass(frozen=True)
class MetricsRecord:
    """Per-set diagnostics recorded along a run."""

    area: float
    mu: float
    d1_to_ball: float
    hausdorff_to_ball: float | None = None
    perimeter: float | None = None


def area(obj):
    """Lebesgue measure: shoelace for polygons, mass * h**2 for rasters."""
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
        g = obj.grid
        y2 = g.y_centers() ** 2
        half = obj._intervals()
        if half is None:
            inner = float(np.dot(y2, obj.occ.sum(axis=1)))
            cols = obj.occ.sum(axis=0)
        else:
            a, b, bottom, top = _rasters._interval_cells(half, g.ny)
            prefix = np.concatenate([[0.0], np.cumsum(y2)])
            full = prefix[np.maximum(b, a + 1)] - prefix[a + 1]
            inner = float((full + bottom * y2[a] + top * y2[b]).sum())
            cols = 2.0 * half
        weight = g.x_centers() ** 2 + g.h**2 / 6.0
        return (inner + float(np.dot(weight, cols))) * g.h**2
    if isinstance(obj, Ball):
        return 0.5 * math.pi * obj.radius**4
    raise TypeError(f"no moment for {type(obj).__name__}")


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
        return _polygon_d1_to_ball(_edge_terms(obj.vertices), obj.area())
    if isinstance(obj, RasterSet):
        ball, prefix = obj._comparison_ball()
        half = obj._intervals()
        if half is not None:
            return _intervals_to_ball(half, ball, prefix) * obj.grid.h**2
        return float(np.abs(obj.occ - ball).sum() * obj.grid.h**2)
    raise TypeError(f"no d1_to_ball for {type(obj).__name__}")


def _intervals_to_ball(half, ball, prefix):
    """Sum of |occ - ball| over the cells of the intervals with the
    half-lengths half, column by column from the ball's prefix sums: the
    ball's mass below and above the interval, the full rows' 1 - ball,
    and the two end cells (see rasters._interval_cells)."""
    n, m = ball.shape
    a, b, bottom, top = _rasters._interval_cells(half, n)
    j = np.arange(m)
    c = np.maximum(b, a + 1)  # the full rows are a + 1 .. c - 1
    outside = prefix[a, j] + (prefix[n] - prefix[b + 1, j])
    full = (c - a - 1) - (prefix[c, j] - prefix[a + 1, j])
    ends = np.abs(bottom - ball[a, j]) + (a < b) * np.abs(top - ball[b, j])
    return float((outside + full + ends).sum())


def _polygon_d1_to_ball(terms, a):
    """Exact d1 of a polygon of area a, given by its polygons._edge_terms,
    to the origin ball of that area.

    d1 is 2 (a - |P & B|). Where the polygon winds once about the origin
    |P & B| is pi r**2 minus the circular segments of B outside P, and
    pi r**2 = a, so d1 is twice that sum of segments rather than the
    difference of two near-equal areas. a itself carries the rounding of
    its shoelace sum, up to about 2e-15 a at 60k vertices.
    """
    r = math.sqrt(a / math.pi)
    turn, segments = _disk_parts(terms, r)
    if turn is None:
        return 2.0 * segments
    return 2.0 * (a - (0.5 * (r * r) * turn - segments))


def _total_variation(vals):
    """Sum of |steps| down every column of vals between zero rows."""
    return np.abs(np.diff(np.pad(vals, ((1, 1), (0, 0))), axis=0)).sum()


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


def perimeter_estimate(rs, n_directions=64):
    """Perimeter estimate of a raster set.

    A raster that an AlignedRun drew from its interval columns after a
    step, frame or world, is measured as the polyline of its section
    profile (see _profile_perimeter): no turn changes a length, so both
    read the same value, and n_directions is not used.

    Every other raster takes the integral-geometry (Crofton) estimate.
    For each of n_directions line directions the grid is sampled in a
    frame where the lines are vertical, the total variation of the
    occupancy along every line is summed and weighted by the line
    spacing, and the directional average is multiplied by pi/2. The
    support radius is taken once, and every rotated sample is gathered
    into one reused plane.
    """
    if n_directions < 1:
        raise ValueError(f"need at least one line direction, got {n_directions}")
    if rs._profile is not None:
        return _profile_perimeter(rs._profile, rs.grid.h)
    radius = rs.content_radius(0.0)
    if radius == 0.0:
        return 0.0
    g = rs.grid
    pulled = np.zeros((g.ny, g.nx))
    window = _rasters._EMPTY_BOX
    totals = []
    for k in range(n_directions):
        theta = math.pi * k / n_directions
        if abs(theta - 0.5 * math.pi) <= 1e-12:
            total = _total_variation(rs.occ)
        elif theta <= 1e-12:
            total = _total_variation(rs.occ.T)
        else:
            pulled[window] = 0.0
            rot = _rotation(0.5 * math.pi - theta)
            # looked up at call time, so a substituted _pull_linear reaches here
            window = _rasters._pull_linear(rs.occ, g, rot, radius, pulled)
            total = _total_variation(pulled)
        totals.append(total * g.h)
    return 0.5 * math.pi * float(np.mean(totals))


def grid_tolerance(rs):
    """Discretization tolerance C * h * perimeter for raster assertions.

    The perimeter estimate uses GRID_TOL_DIRECTIONS directions; it only
    sets an error budget proportional to the boundary length. Seeds and
    steiner_raster outputs, the rasters the tests take it of, carry no
    interval profile, so they take the integral-geometry estimate.
    """
    return GRID_TOL_FACTOR * rs.grid.h * perimeter_estimate(
        rs, n_directions=GRID_TOL_DIRECTIONS)


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
        terms = _edge_terms(obj.vertices)
        mu = _moment(terms)
        dball = _polygon_d1_to_ball(terms, a)
        if with_hausdorff:
            haus = ball_hausdorff(obj, math.sqrt(a / math.pi))
        if with_perimeter:
            perim = obj.perimeter()
    else:
        mu = moment_of_inertia(obj)
        dball = d1_to_ball(obj)
        if with_perimeter:
            perim = perimeter_estimate(obj)
    return MetricsRecord(
        area=a, mu=mu, d1_to_ball=dball, hausdorff_to_ball=haus, perimeter=perim
    )
