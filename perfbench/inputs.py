"""Seeded inputs for the benchmark workloads, built with numpy alone.

Nothing here imports kfsteiner, so the parent commit and a change receive
byte-identical input files for the same seed. Each seed jitters one fixed
template shape, so different seeds give different inputs of the same cost
and about the same difficulty.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

#: Raster grid: the same geometry as GridSpec.cover(1.0, n=512).
RASTER_N = 512
RASTER_H = 2.0 * 1.1 / RASTER_N
RASTER_SUBSAMPLES = 4
#: Template blobs (radius, center x, center y); their union is the raster seed.
RASTER_BLOBS = ((0.30, -0.30, -0.15), (0.24, 0.32, -0.05), (0.18, 0.0, 0.42))
RASTER_JITTER = 0.04

#: Polygon seed: vertices on an ellipse at jittered angles.
POLYGON_VERTICES = 16
FRAMES_VERTICES = 6
ELLIPSE_AXES = (0.6, 0.3)
ANGLE_JITTER = 0.015  # share of the vertex spacing
OFFSET_JITTER = 0.005

#: One-dimensional workload: golden Kakutani level and sample-size ladder.
ONEDIM_LEVEL = 27
ONEDIM_SIZES = 8
ONEDIM_MIN_N = 1000

PGM_MAXVAL = 65535


def fibonacci(n):
    """F(n) with F(0) = 0 and F(1) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def raster_values(seed):
    """16-bit PGM samples (row 0 at the bottom) of a union of jittered disks."""
    rng = np.random.default_rng([seed, 1])
    k = RASTER_SUBSAMPLES
    centers = (np.arange(RASTER_N) - (RASTER_N - 1) / 2.0) * RASTER_H
    sub = centers[:, None] + ((np.arange(k) + 0.5) / k - 0.5)[None, :] * RASTER_H
    sub = sub.ravel()  # every cell's k subsample coordinates, in order
    inside = np.zeros((RASTER_N * k, RASTER_N * k), dtype=bool)
    for r, cx, cy in RASTER_BLOBS:
        dx, dy = rng.uniform(-RASTER_JITTER, RASTER_JITTER, size=2)
        inside |= ((sub[None, :] - cx - dx) ** 2
                   + (sub[:, None] - cy - dy) ** 2) <= r * r
    cover = inside.reshape(RASTER_N, k, RASTER_N, k).mean(axis=(1, 3))
    return np.rint(cover * PGM_MAXVAL).astype(np.uint16)


def pgm_bytes(values, h):
    """P5 bytes in the layout kfsteiner.rasters.write_pgm produces."""
    ny, nx = values.shape
    header = (f"P5\n# cellsize={h:.15g} ox=0 oy=0\n{nx} {ny}\n{PGM_MAXVAL}\n")
    return header.encode("ascii") + values[::-1, :].astype(">u2").tobytes()


def ellipse_polygon(seed, n, stream):
    """CCW vertices on a fixed ellipse at jittered angles, slightly offset.

    Points on an ellipse taken in angular order are in strictly convex
    position, so every seed gives a valid convex polygon with n vertices.
    """
    rng = np.random.default_rng([seed, stream])
    step = 2.0 * math.pi / n
    ang = np.arange(n) * step + rng.uniform(-ANGLE_JITTER, ANGLE_JITTER, n) * step
    off = rng.uniform(-OFFSET_JITTER, OFFSET_JITTER, size=2)
    a, b = ELLIPSE_AXES
    return np.column_stack([a * np.cos(ang) + off[0], b * np.sin(ang) + off[1]])


def polygon_text(vertices):
    lines = ["# convex polygon, CCW vertices, one 'x y' per line"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in vertices]
    return ("\n".join(lines) + "\n").encode("ascii")


def shoelace(vertices):
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def onedim_sizes(seed):
    """Seeded log-uniform ladder of sample sizes that always ends at t_L - 1."""
    rng = np.random.default_rng([seed, 4])
    top = fibonacci(ONEDIM_LEVEL + 2) - 1  # t_L - 1 with t_L = F(L + 2)
    lo, hi = math.log(ONEDIM_MIN_N), math.log(top)
    ns = {int(math.exp(v)) for v in rng.uniform(lo, hi, ONEDIM_SIZES - 1)}
    return sorted(ns | {top})


def make_input(workload, seed, directory):
    """Write the input of one workload and seed; return its description.

    The description holds the input path, its sha256, and the reference
    quantities the correctness gates compare against.
    """
    if workload == "raster":
        values = raster_values(seed)
        data = pgm_bytes(values, RASTER_H)
        name = "seed.pgm"
        ref = {"area": float(values.sum(dtype=np.int64)) / PGM_MAXVAL * RASTER_H**2}
    elif workload in ("polygon", "frames"):
        n = POLYGON_VERTICES if workload == "polygon" else FRAMES_VERTICES
        v = ellipse_polygon(seed, n, 2 if workload == "polygon" else 3)
        data = polygon_text(v)
        name = "seed.txt"
        ref = {"area": shoelace(v)}
    elif workload == "onedim":
        ns = onedim_sizes(seed)
        data = ("\n".join(str(n) for n in ns) + "\n").encode("ascii")
        name = "sizes.txt"
        ref = {"level": ONEDIM_LEVEL, "ns": ns}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest(), "ref": ref}
