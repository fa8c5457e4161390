"""Exact discrepancy of finite point sets in [0, 1].

The star (anchored) discrepancy has a closed form over the sorted
sample. The two-sided version is the supremum over nondegenerate
subintervals; endpoint inclusion is resolved as one-sided limits, so
the maximum is attained on the grid of distinct point values together
with 0 and 1, with counts taken either inclusively (excess) or
exclusively (deficit). Degenerate single-point intervals are excluded:
a closed singleton would contribute multiplicity/N against measure
zero, which says nothing about equidistribution.
"""

from __future__ import annotations

import math

import numpy as np

from .sequences import sequence_values

__all__ = [
    "star_discrepancy",
    "extreme_discrepancy",
    "discrepancy_curve",
    "EXTREME_CAP",
]

#: Largest sample size for which the two-sided discrepancy is computed.
EXTREME_CAP = 1_000_000


def _validated(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or len(pts) == 0:
        raise ValueError("need a nonempty one-dimensional sample")
    if np.any((pts < 0.0) | (pts > 1.0)) or not np.all(np.isfinite(pts)):
        raise ValueError("all sample values must lie in [0, 1]")
    return pts


#: Points per block in `_star_sorted`, which bounds its temporaries to
#: a few hundred KiB whatever the sample size.
STAR_BLOCK = 1 << 15


def _star_sorted(pts):
    """Star discrepancy of a validated sample sorted in increasing order.

    The largest (i + 1) / N - x_i and x_i - i / N are taken block by
    block; a maximum is exact, so the blocks change no bit.
    """
    n = len(pts)
    best = -np.inf
    for start in range(0, n, STAR_BLOCK):
        block = pts[start : start + STAR_BLOCK]
        steps = np.arange(start, start + len(block) + 1, dtype=float)
        steps /= n  # steps[i] == (start + i) / N
        gap = steps[1:] - block
        best = max(best, gap.max())
        np.subtract(block, steps[:-1], out=gap)
        best = max(best, gap.max())
    return float(best)


def star_discrepancy(points):
    """Anchored discrepancy sup_t |#{x < t}/N - t|, exact over [0, t) intervals."""
    return _star_sorted(np.sort(_validated(points)))


def _extreme_sorted(pts, d_star):
    """Two-sided discrepancy of a validated, sorted sample with star discrepancy d_star."""
    n = len(pts)
    if n > EXTREME_CAP:
        raise ValueError(
            f"two-sided discrepancy limited to N <= {EXTREME_CAP}, got {n}"
        )
    # The value grid is the runs of equal values of ext = [0, pts, 1]. At
    # index i the points below ext[i] number i - 1 (0 for i = 0) if i
    # starts its run, and the points up to it number i (N for i = N + 1)
    # if i ends it. So the run starting at a gives lead = v_a - #{x < v_a}/N
    # and the run ending at b gives lag = #{x <= v_b}/N - v_b; both are
    # exactly 0 at i = 0 and i = N + 1.
    counts, lead, lag = np.arange(n + 1, dtype=float), np.empty(n + 2), np.empty(n + 2)
    lead[0] = lead[-1] = lag[0] = lag[-1] = 0.0
    np.divide(counts[:n], n, out=lead[1:-1])
    np.subtract(pts, lead[1:-1], out=lead[1:-1])
    np.divide(counts[1 : n + 1], n, out=lag[1:-1])
    np.subtract(lag[1:-1], pts, out=lag[1:-1])
    if pts[0] == 0.0 or pts[-1] == 1.0 or np.any(pts[1:] == pts[:-1]):
        ext = np.concatenate([[0.0], pts, [1.0]])
        first = np.flatnonzero(np.concatenate([[True], ext[1:] != ext[:-1]]))
        lead, lag = lead[first], lag[np.append(first[1:], n + 2) - 1]

    # Runs a < b give the excess of the closed interval [v_a, v_b] and runs
    # a > b the deficit of the open interval (v_b, v_a); both equal
    # lead[a] + lag[b]. Rounded addition is monotone, so the largest such
    # sum over a != b pairs the two maxima unless one run holds both.
    a, b = int(np.argmax(lead)), int(np.argmax(lag))
    if a != b:
        best = lead[a] + lag[b]
    else:
        best = max(lead[a] + np.delete(lag, a).max(),
                   np.delete(lead, a).max() + lag[a])

    result = float(max(best, 0.0))
    if result < d_star - 1e-12:
        raise AssertionError(
            f"two-sided discrepancy {result!r} fell below the star "
            f"discrepancy {d_star!r}"
        )
    return result


def extreme_discrepancy(points):
    """Two-sided discrepancy over all nondegenerate subintervals of [0, 1].

    Exact for the family described in the module docstring; always at
    least the star discrepancy and at most twice it.
    """
    pts = np.sort(_validated(points))
    return _extreme_sorted(pts, _star_sorted(pts))


def discrepancy_curve(spec, ns, include_extreme=False, extreme_cap=EXTREME_CAP):
    """Discrepancy growth table for a sequence generator.

    Returns one row per N in `ns`: a dict with keys ``N``, ``d_star``,
    ``d_extreme`` (None when skipped) and ``normalized`` which is
    N * d_star / log N. Each sample is sorted once for both columns.
    """
    ns = [int(n) for n in ns]
    if not ns:
        raise ValueError("need at least one sample size")
    if min(ns) < 2:
        raise ValueError("sample sizes must be at least 2")
    pts = _validated(sequence_values(spec, max(ns)))
    # every sample is sorted in this one buffer, so its pages fault in once
    buffer = np.empty_like(pts)
    rows = []
    for n in ns:
        sample = buffer[:n]
        sample[:] = pts[:n]
        sample.sort()
        d_star = _star_sorted(sample)
        d_ext = None
        if include_extreme and n <= extreme_cap:
            d_ext = _extreme_sorted(sample, d_star)
        rows.append(
            {
                "N": n,
                "d_star": d_star,
                "d_extreme": d_ext,
                "normalized": n * d_star / math.log(n),
            }
        )
    return rows
