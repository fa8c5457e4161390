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


def star_discrepancy(points):
    """Anchored discrepancy sup_t |#{x < t}/N - t|, exact over [0, t) intervals."""
    pts = np.sort(_validated(points))
    n = len(pts)
    idx = np.arange(1, n + 1)
    over = idx / n - pts
    under = pts - (idx - 1) / n
    return float(max(over.max(), under.max()))


def extreme_discrepancy(points):
    """Two-sided discrepancy over all nondegenerate subintervals of [0, 1].

    Exact for the family described in the module docstring; always at
    least the star discrepancy and at most twice it.
    """
    pts = _validated(points)
    n = len(pts)
    if n > EXTREME_CAP:
        raise ValueError(
            f"two-sided discrepancy limited to N <= {EXTREME_CAP}, got {n}"
        )
    pts = np.sort(pts)
    vals = np.unique(np.concatenate([[0.0], pts, [1.0]]))
    cum_incl = np.searchsorted(pts, vals, side="right") / n  # #{x <= v}/N
    cum_excl = np.searchsorted(pts, vals, side="left") / n   # #{x <  v}/N

    # excess: count both endpoints in, max over pairs a < b of
    #   (incl[b] - excl[a]) - (v[b] - v[a])
    gain = np.maximum.accumulate(vals - cum_excl)[:-1]
    excess = np.max(cum_incl[1:] - vals[1:] + gain)
    # deficit: count both endpoints out
    gain = np.maximum.accumulate(cum_incl - vals)[:-1]
    deficit = np.max(vals[1:] - cum_excl[1:] + gain)

    result = float(max(excess, deficit, 0.0))
    d_star = star_discrepancy(pts)
    if result < d_star - 1e-12:
        raise AssertionError(
            f"two-sided discrepancy {result!r} fell below the star "
            f"discrepancy {d_star!r}"
        )
    return result


def discrepancy_curve(spec, ns, include_extreme=False, extreme_cap=EXTREME_CAP):
    """Discrepancy growth table for a sequence generator.

    Returns one row per N in `ns`: a dict with keys ``N``, ``d_star``,
    ``d_extreme`` (None when skipped) and ``normalized`` which is
    N * d_star / log N.
    """
    ns = [int(n) for n in ns]
    if not ns:
        raise ValueError("need at least one sample size")
    if min(ns) < 2:
        raise ValueError("sample sizes must be at least 2")
    pts = sequence_values(spec, max(ns))
    rows = []
    for n in ns:
        sample = pts[:n]
        d_star = star_discrepancy(sample)
        d_ext = None
        if include_extreme and n <= extreme_cap:
            d_ext = extreme_discrepancy(sample)
        rows.append(
            {
                "N": n,
                "d_star": d_star,
                "d_extreme": d_ext,
                "normalized": n * d_star / math.log(n),
            }
        )
    return rows
