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
]


def _validated(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or len(pts) == 0:
        raise ValueError("need a nonempty one-dimensional sample")
    # a NaN makes both extremes NaN and fails both bounds, an inf fails one
    if not (pts.min() >= 0.0 and pts.max() <= 1.0):
        raise ValueError("all sample values must lie in [0, 1]")
    return pts


#: Points per block in `_lead_lag_maxima`, which bounds its temporaries
#: to a few hundred KiB whatever the sample size.
STAR_BLOCK = 1 << 15


def _lead_lag_maxima(pts, lo, hi, lead, lag):
    """Fold the points pts[lo:hi] of a sorted sample into the running
    maxima `lead` and `lag`, each a pair (value, the point attaining it).

    The lead of point i is x_i - i / N and its lag (i + 1) / N - x_i. They
    are taken block by block, so the temporaries stay small whatever N is;
    a maximum is exact, so the blocks change no bit. Only a strictly
    larger value replaces a pair, so each keeps the first point attaining
    its maximum.
    """
    n = len(pts)
    for start in range(lo, hi, STAR_BLOCK):
        block = pts[start : min(start + STAR_BLOCK, hi)]
        steps = np.arange(start, start + len(block) + 1, dtype=float)
        steps /= n  # steps[i] == (start + i) / N
        gap = np.subtract(block, steps[:-1])
        i = int(gap.argmax())
        if gap[i] > lead[0]:
            lead = (gap[i], block[i])
        np.subtract(steps[1:], block, out=gap)
        i = int(gap.argmax())
        if gap[i] > lag[0]:
            lag = (gap[i], block[i])
    return lead, lag


def _star_sorted(pts):
    """Star discrepancy of a validated sample sorted in increasing order:
    the largest lead x_i - i / N or lag (i + 1) / N - x_i."""
    none = (-np.inf, None)
    (lead, _), (lag, _) = _lead_lag_maxima(pts, 0, len(pts), none, none)
    return float(max(lag, lead))


def star_discrepancy(points):
    """Anchored discrepancy sup_t |#{x < t}/N - t|, exact over [0, t) intervals."""
    return _star_sorted(np.sort(_validated(points)))


def _extreme_sorted(pts, d_star):
    """Two-sided discrepancy of a validated, sorted sample with star discrepancy d_star."""
    n = len(pts)
    # The value grid is the runs of equal values of [0, pts, 1]. The run of
    # value v gives lead = v - #{x < v}/N, the lead of its first point, and
    # lag = #{x <= v}/N - v, the lag of its last point; the values 0 and 1
    # also give lead = lag = 0. Along a run the lead falls and the lag rises,
    # so the largest lead and lag over all points are those over runs, and
    # a run attaining a maximum is named by its value.
    origin = (0.0, 0.0)  # the lead and the lag at 0, named by 0
    (lead, a), (lag, b) = _lead_lag_maxima(pts, 0, n, origin, origin)

    # Runs a < b give the excess of the closed interval [v_a, v_b] and runs
    # a > b the deficit of the open interval (v_b, v_a); both equal
    # lead(a) + lag(b). Rounded addition is monotone, so the largest such
    # sum over a != b pairs the two maxima unless one run holds both. Then
    # the maxima over the other runs are taken; 0 or 1 is among those runs,
    # so they start from lead = lag = 0.
    if a != b:
        best = lead + lag
    else:
        lo = int(np.searchsorted(pts, a, side="left"))
        hi = int(np.searchsorted(pts, a, side="right"))
        others = _lead_lag_maxima(pts, 0, lo, origin, origin)
        (other_lead, _), (other_lag, _) = _lead_lag_maxima(pts, hi, n, *others)
        best = max(lead + other_lag, other_lead + lag)

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


def discrepancy_curve(spec, ns, include_extreme=False):
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
        if include_extreme:
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
