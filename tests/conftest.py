import math
import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from kfsteiner.polygons import ConvexPolygon, hausdorff, regular_polygon
from kfsteiner.rasters import GridSpec, RasterSet, rasterize

# the same examples on every run, and no example database on disk: a
# bound is judged on fixed cases, and a run writes no .hypothesis/. Even
# without a database Hypothesis caches the constants of local modules in
# its home directory; one under the null device cannot be made, so that
# cache is skipped and the constants are read from the source each run.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
set_hypothesis_home_dir(os.devnull)


U = 2.0**-53  # the unit roundoff: exact oracles bound errors by c * U * scale


def as_integers(values):
    """Floats, exact rationals, as integers over one power of two: (ints, den)."""
    values = values.ravel().tolist() if isinstance(values, np.ndarray) else values
    ratios = [x.as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def convex_hull(points):
    """Monotone-chain hull; returns CCW vertices."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]

    def half(chain):
        out = []
        for p in chain:
            while len(out) >= 2:
                ax, ay = out[-2]
                bx, by = out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0:
                    out.pop()
                else:
                    break
            out.append((p[0], p[1]))
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def random_convex_polygon(rng, n_points=8, scale=1.0, center=(0.0, 0.0)):
    """Hull of random points; retries until at least a triangle appears."""
    while True:
        pts = (rng.random((n_points, 2)) * 2.0 - 1.0) * scale + np.asarray(center)
        hull = convex_hull(pts)
        if len(hull) >= 3:
            return ConvexPolygon(hull)


#: Largest gap allowed between the exact Hausdorff distance and the
#: sampled oracle, relative to max(1, oracle). Both reach the maximum at a
#: vertex (the distance to a convex set is convex along an edge, and t = 0
#: is always sampled), so they differ only by rounding.
ORACLE_REL_TOL = 1e-14


def oracle_boundary_samples(poly, spacing):
    """Boundary points at most `spacing` apart, every vertex included."""
    v = np.ascontiguousarray(poly.vertices)
    nxt = np.roll(v, -1, axis=0)
    pts = []
    for p, q in zip(v, nxt):
        steps = max(1, int(math.ceil(math.hypot(*(q - p)) / spacing)))
        t = np.arange(steps) / steps
        pts.append(p + t[:, None] * (q - p))
    return np.concatenate(pts)


def oracle_dist_to_polygon(points, poly):
    """Distance from each point to the polygon as a set (0 inside), all pairs."""
    v = np.ascontiguousarray(poly.vertices)
    e = np.roll(v, -1, axis=0) - v
    rel = points[:, None, :] - v[None, :, :]
    cross = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
    inside = np.all(cross >= -1e-12, axis=1)
    ee = (e * e).sum(axis=1)
    t = np.clip((rel * e[None, :, :]).sum(axis=2) / ee[None, :], 0.0, 1.0)
    foot = rel - t[:, :, None] * e[None, :, :]
    dist = np.sqrt((foot * foot).sum(axis=2)).min(axis=1)
    dist[inside] = 0.0
    return dist


def oracle_hausdorff(a, b, spacing):
    """Sampled Hausdorff distance: both directed sample-to-set maxima."""
    pa = oracle_boundary_samples(a, spacing)
    pb = oracle_boundary_samples(b, spacing)
    return max(float(oracle_dist_to_polygon(pa, b).max()),
               float(oracle_dist_to_polygon(pb, a).max()))


def assert_matches_oracle(d, oracle):
    assert abs(d - oracle) <= ORACLE_REL_TOL * max(1.0, oracle)


def reflected_oracle(poly, theta):
    """The polygon reflected point by point, v - 2 (v.u) u, reordered CCW:
    its mirror image across the line orthogonal to the angle theta."""
    u = np.array([math.cos(theta), math.sin(theta)])
    v = np.ascontiguousarray(poly.vertices)
    return ConvexPolygon((v - 2.0 * np.outer(v @ u, u))[::-1])


def mirror_gap(poly, theta):
    """Exact Hausdorff distance between a polygon and its mirror image
    across the line orthogonal to theta; rounding for a Steiner symmetral
    in the direction theta, which is symmetric about that line."""
    return hausdorff(poly, reflected_oracle(poly, theta))


def random_raster(rng, grid, max_disks=3):
    """Union of a few random disks rasterized on the given grid."""
    occ = np.zeros((grid.ny, grid.nx))
    for _ in range(int(rng.integers(1, max_disks + 1))):
        r = 0.1 + 0.2 * rng.random()
        cx, cy = (rng.random(2) * 2.0 - 1.0) * 0.45
        disk = rasterize(regular_polygon(r, 64, center=(cx, cy)), grid)
        occ = np.clip(occ + disk.occ, 0.0, 1.0)
    return RasterSet(occ, grid)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture(scope="session")
def unit_grid_128():
    return GridSpec.cover(1.0, n=128)


@pytest.fixture(scope="session")
def unit_grid_256():
    return GridSpec.cover(1.0, n=256)
