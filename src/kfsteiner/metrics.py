"""Scalar functionals used to instrument symmetrization runs.

Area and second moment are exact for polygons (shoelace and apex
triangle formulas) and for rasters up to the stored occupancy (the cell
self-moment h*h/6 makes the second moment exact for unions of full
cells). The set distance d1 is the L1 distance of occupancy functions,
which equals the area of the symmetric difference for indicator sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rasters as _rasters
from .polygons import (
    Ball,
    ConvexPolygon,
    _rotation,
    ball_hausdorff,
    disk_intersection_area,
)
from .rasters import RasterSet, _disk_fraction, resample_to

__all__ = [
    "MetricsRecord",
    "area",
    "moment_of_inertia",
    "d1",
    "d1_to_ball",
    "hausdorff",
    "perimeter_estimate",
    "perimeter",
    "grid_tolerance",
    "measure",
]

#: Multiplier in the per-test grid tolerance C * h * perimeter.
GRID_TOL_FACTOR = 8.0

#: Point-vertex pairs per block in `_dist_to_polygon`, which bounds its
#: temporaries to a few MiB whatever the sample and vertex counts.
DIST_BLOCK_PAIRS = 1 << 16


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
    """Integral of x**2 + y**2 over the set, about the origin."""
    if isinstance(obj, ConvexPolygon):
        return obj.moment_about_origin()
    if isinstance(obj, RasterSet):
        g = obj.grid
        xs = g.x_centers()
        ys = g.y_centers()
        r2 = ys[:, None] ** 2 + xs[None, :] ** 2 + g.h**2 / 6.0
        return float((obj.occ * r2).sum() * g.h**2)
    if isinstance(obj, Ball):
        return 0.5 * math.pi * obj.radius**4
    raise TypeError(f"no moment for {type(obj).__name__}")


def d1(a, b, resample=False):
    """L1 distance of two rasters' occupancy functions.

    The grids must agree; pass resample=True to pull b onto a's grid
    first (bilinear, documented approximation).
    """
    if not a.grid.same_geometry(b.grid):
        if not resample:
            raise ValueError(
                "rasters live on different grids; pass resample=True to compare"
            )
        b = resample_to(b, a.grid)
    return float(np.abs(a.occ - b.occ).sum() * a.grid.h**2)


def d1_to_ball(obj):
    """d1 distance to the origin ball of equal area.

    Exact for polygons via the polygon-disk intersection; for rasters
    the ball is rasterized on the same grid.
    """
    if isinstance(obj, ConvexPolygon):
        return _polygon_d1_to_ball(obj, obj.area())
    if isinstance(obj, RasterSet):
        a = obj.area()
        if a <= 0.0:
            return 0.0
        r = math.sqrt(a / math.pi)
        ball_occ = _disk_fraction(obj.grid, r)
        return float(np.abs(obj.occ - ball_occ).sum() * obj.grid.h**2)
    raise TypeError(f"no d1_to_ball for {type(obj).__name__}")


def _polygon_d1_to_ball(poly, a):
    """Exact d1 of a polygon of area a to the origin ball of that area."""
    r = math.sqrt(a / math.pi)
    # module-global lookup, so a substituted disk_intersection_area is used
    return 2.0 * (a - disk_intersection_area(poly, r))


def _boundary_samples(poly, spacing):
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    pts = []
    for p, q in zip(v, nxt):
        steps = max(1, int(math.ceil(math.hypot(*(q - p)) / spacing)))
        t = np.arange(steps) / steps
        pts.append(p + t[:, None] * (q - p))
    return np.concatenate(pts)


def _dist_to_polygon(points, poly):
    """Distance from each point to the polygon as a set (0 inside).

    Points are taken in blocks of about DIST_BLOCK_PAIRS point-vertex
    pairs, so memory stays bounded; each point's value does not depend
    on the block it falls in.
    """
    vx, vy = poly.vertices[:, 0], poly.vertices[:, 1]
    ex, ey = np.roll(vx, -1) - vx, np.roll(vy, -1) - vy
    ee = ex * ex + ey * ey
    dist = np.empty(len(points))
    step = max(1, DIST_BLOCK_PAIRS // len(vx))
    for start in range(0, len(points), step):
        block = points[start:start + step]
        rx = block[:, 0, None] - vx
        ry = block[:, 1, None] - vy
        inside = np.all(ex * ry - ey * rx >= -1e-12, axis=1)
        t = np.clip((rx * ex + ry * ey) / ee, 0.0, 1.0)
        rx -= t * ex
        ry -= t * ey
        d = np.sqrt(rx * rx + ry * ry).min(axis=1)
        d[inside] = 0.0
        dist[start:start + step] = d
    return dist


def hausdorff(a, b, spacing=1e-3):
    """Hausdorff distance between two convex polygons.

    Boundaries are sampled at most `spacing` apart and the two directed
    point-to-set distances are maximized.
    """
    pa = _boundary_samples(a, spacing)
    pb = _boundary_samples(b, spacing)
    d_ab = float(_dist_to_polygon(pa, b).max())
    d_ba = float(_dist_to_polygon(pb, a).max())
    return max(d_ab, d_ba)


def perimeter(poly):
    """Exact perimeter of a convex polygon."""
    return poly.perimeter()


def perimeter_estimate(rs, n_directions=64):
    """Integral-geometry perimeter estimate of a raster set.

    For each of n_directions line directions the grid is sampled in a
    frame where the lines are vertical, the total variation of the
    occupancy along every line is summed and weighted by the line
    spacing, and the directional average is multiplied by pi/2.
    """
    if not rs.occ.any():
        return 0.0
    h = rs.grid.h
    totals = []
    for k in range(n_directions):
        theta = math.pi * k / n_directions
        if abs(theta - 0.5 * math.pi) <= 1e-12:
            vals = rs.occ
        elif theta <= 1e-12:
            vals = rs.occ.T
        else:
            # looked up at call time, so a substituted _pull_linear reaches here
            rot = _rotation(0.5 * math.pi - theta)
            vals = _rasters._pull_linear(rs.occ, rs.grid, rot)
        padded = np.pad(vals, ((1, 1), (0, 0)))
        totals.append(np.abs(np.diff(padded, axis=0)).sum() * h)
    return 0.5 * math.pi * float(np.mean(totals))


def grid_tolerance(rs, factor=GRID_TOL_FACTOR, n_directions=8):
    """Discretization tolerance C * h * perimeter for raster assertions.

    A coarse direction count is enough here; the estimate only sets an
    error budget proportional to the boundary length.
    """
    return factor * rs.grid.h * perimeter_estimate(rs, n_directions=n_directions)


def measure(obj, with_hausdorff=False, with_perimeter=False, ball_occ=None):
    """Bundle the standard diagnostics for one set into a MetricsRecord.

    `ball_occ` lets callers reuse a rasterized comparison ball when the
    area is constant along a run.
    """
    a = area(obj)
    mu = moment_of_inertia(obj)
    haus = None
    perim = None
    if isinstance(obj, ConvexPolygon):
        dball = _polygon_d1_to_ball(obj, a)
        if with_hausdorff:
            haus = ball_hausdorff(obj, math.sqrt(a / math.pi))
        if with_perimeter:
            perim = obj.perimeter()
    else:
        if ball_occ is not None:
            dball = float(np.abs(obj.occ - ball_occ).sum() * obj.grid.h**2)
        else:
            dball = d1_to_ball(obj)
        if with_perimeter:
            perim = perimeter_estimate(obj)
    return MetricsRecord(
        area=a, mu=mu, d1_to_ball=dball, hausdorff_to_ball=haus, perimeter=perim
    )
