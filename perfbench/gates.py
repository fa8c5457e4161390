"""Correctness gates for the workloads' outputs.

Each gate takes plain numbers and arrays, computes its references with
this directory's own code, and returns the list of violations (empty when
the output is correct). The tolerances are the acceptance suite's.
"""

from __future__ import annotations

import hashlib
import math
import os
import re

import numpy as np

from inputs import PGM_MAXVAL, fibonacci

#: Relative tolerance on area and mass along a run (acceptance criteria 06-08).
INVARIANT_REL = 1e-9
#: Absolute slack on the second moment of exact polygons (criterion 08).
POLYGON_MU_SLACK = 1e-9
#: Final polygon d1_to_ball / area must be below this (criterion 08).
POLYGON_FINAL_D1_REL = 0.02
#: The raster d1_to_ball must shrink at least this many times (criterion 08).
RASTER_SHRINK = 5.0
#: Sorted sequence points against the level-L breakpoints (criterion 03).
BREAKPOINT_TOL = 1e-12
#: Floating-point slack of "two-sided >= star", as in extreme_discrepancy.
EXTREME_SLACK = 1e-12


def _area_drift(areas, ref_area):
    worst = max(abs(a - ref_area) for a in areas)
    if worst > INVARIANT_REL * ref_area:
        return [f"area drifts by {worst:.3g} from the input area {ref_area:.12g}"]
    return []


def _mu_rises(mus, slack):
    for k, (a, b) in enumerate(zip(mus, mus[1:])):
        if b > a + slack:
            return [f"second moment rises at record {k + 1}: {a!r} -> {b!r}"]
    return []


def raster_gate(areas, mus, d1s, ref_area, grid_tol, perimeters):
    """Mass conserved, mu monotone within grid_tol, d1_to_ball shrinks 5x."""
    errors = _area_drift(areas, ref_area) + _mu_rises(mus, grid_tol)
    if not d1s[-1] <= d1s[0] / RASTER_SHRINK:
        errors.append(f"d1_to_ball only went {d1s[0]:.4g} -> {d1s[-1]:.4g}")
    if not all(math.isfinite(p) and p > 0.0 for p in perimeters):
        errors.append(f"perimeter estimates are not positive: {perimeters}")
    return errors


def polygon_gate(areas, mus, d1s, ref_area):
    """Area and mu hold to 1e-9 and the run ends within 2% of the ball."""
    errors = _area_drift(areas, ref_area) + _mu_rises(mus, POLYGON_MU_SLACK)
    if not d1s[-1] / ref_area < POLYGON_FINAL_D1_REL:
        errors.append(f"final d1_to_ball / area is {d1s[-1] / ref_area:.4g}")
    return errors


def onedim_gate(points, breakpoints, counts, level, ns, rows):
    """Points fill the level-L breakpoints, Fibonacci counts, discrepancy bounds."""
    errors = []
    interior = np.asarray(breakpoints)[1:-1]
    pts = np.sort(np.asarray(points))
    if pts.shape != interior.shape:
        errors.append(f"{len(pts)} points for {len(interior)} interior breakpoints")
    else:
        worst = float(np.abs(pts - interior).max())
        if not worst <= BREAKPOINT_TOL:
            errors.append(f"points miss the level-{level} breakpoints by {worst:.3g}")
    want = (fibonacci(level + 2), fibonacci(level + 1), fibonacci(level))
    if tuple(counts) != want:
        errors.append(f"interval counts {tuple(counts)} are not {want}")
    if [row["N"] for row in rows] != list(ns):
        errors.append("discrepancy rows do not follow the requested sizes")
    for row in rows:
        n, d_star, d_ext = row["N"], row["d_star"], row["d_extreme"]
        if not d_star <= 3.0 * math.log(n) / n:
            errors.append(f"D*_{n} = {d_star:.4g} exceeds 3 ln N / N")
        if d_ext is None or not d_ext >= d_star - EXTREME_SLACK:
            errors.append(f"two-sided discrepancy {d_ext} below D*_{n} = {d_star:.4g}")
    return errors


# ---------------------------------------------------------------------------
# frames: trace.csv plus frame_<step>.pgm files written by `process --frames`
# ---------------------------------------------------------------------------

_PGM_HEADER = re.compile(
    rb"P5\n# cellsize=(\S+) ox=(\S+) oy=(\S+)\n(\d+) (\d+)\n(\d+)\n"
)


def parse_pgm(data):
    """(values with row 0 at the bottom, cell size) of a write_pgm P5 file."""
    m = _PGM_HEADER.match(data)
    if m is None:
        raise ValueError("not a P5 file in the write_pgm layout")
    nx, ny, maxval = int(m.group(4)), int(m.group(5)), int(m.group(6))
    if maxval != PGM_MAXVAL:
        raise ValueError(f"maxval {maxval}, expected {PGM_MAXVAL}")
    vals = np.frombuffer(data, dtype=">u2", count=nx * ny, offset=m.end())
    return vals.reshape(ny, nx)[::-1, :], float(m.group(1))


def parse_trace(text):
    """Rows of trace.csv as dicts of floats (None for blank fields)."""
    lines = text.splitlines()
    cols = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append({c: (float(v) if v else None) for c, v in zip(cols, line.split(","))})
    return rows


def frame_paths(outdir):
    """frame_<step>.pgm files in step order."""
    names = [n for n in os.listdir(outdir) if re.fullmatch(r"frame_\d+\.pgm", n)]
    names.sort(key=lambda n: int(n[6:-4]))
    return [os.path.join(outdir, n) for n in names]


def output_digest(outdir):
    """sha256 over trace.csv and every frame, in step order."""
    digest = hashlib.sha256()
    for path in [os.path.join(outdir, "trace.csv")] + frame_paths(outdir):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def frames_gate(trace_rows, frames, ref_area, steps):
    """Every step has a frame whose area matches the polygon's.

    `frames` maps step -> PGM bytes. A fully covered cell is stored as
    exactly maxval and a partial one is rounded to the nearest level, so
    the frame area may differ from the polygon area by at most half a
    level per partial cell.
    """
    errors = []
    if [int(r["step"]) for r in trace_rows] != list(range(steps + 1)):
        errors.append("trace.csv does not record every step")
    if sorted(frames) != list(range(steps + 1)):
        errors.append(f"frames for steps {sorted(frames)}, expected 0..{steps}")
    errors += _area_drift([r["area"] for r in trace_rows], ref_area)
    for step, data in sorted(frames.items()):
        vals, h = parse_pgm(data)
        cell = h * h
        area = float(vals.sum(dtype=np.int64)) / PGM_MAXVAL * cell
        partial = int(np.count_nonzero((vals > 0) & (vals < PGM_MAXVAL)))
        bound = 0.5 * partial / PGM_MAXVAL * cell + INVARIANT_REL * ref_area
        if not abs(area - ref_area) <= bound:
            errors.append(
                f"frame {step} area {area:.12g} vs polygon {ref_area:.12g} "
                f"(quantization bound {bound:.3g})"
            )
    return errors


def self_time_gap(layer_self_s, run_s):
    """How far the per-layer self times are from adding up to run_s."""
    return abs(sum(layer_self_s.values()) - run_s)
