"""Kakutani splitting of partitions of the unit interval.

A refinement step splits every interval of maximal length at the point
dividing it in proportion alpha : (1 - alpha). For alpha equal to the
inverse golden ratio the interval lengths at level n take exactly the
two values gamma**n and gamma**(n+1) and the interval counts follow the
Fibonacci numbers.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .sequences import GAMMA

__all__ = [
    "Partition",
    "TRIVIAL",
    "alpha_refine",
    "kakutani_level",
    "interval_counts",
]

#: Relative tolerance for deciding which intervals tie for the maximum length.
TIE_REL_TOL = 1e-12

#: Absolute floor for the tie tolerance. Breakpoints live in [0, 1], so
#: lengths carry about 1e-16 of absolute noise regardless of how short
#: they are; without the floor, deep levels stop splitting all maximal
#: intervals. Reliable through roughly level 50 of the golden cascade.
TIE_ABS_TOL = 1e-13

#: Default cap on the interval count of a partition produced by refinement.
MAX_INTERVALS = 10_000_000

#: Relative tolerance of the length classes of length_classes.
_CLASS_TOL = 1e-9

#: Absolute tolerance of the two golden lengths in interval_counts.
_COUNT_TOL = 1e-10


def _maximal_mask(lengths):
    lmax = lengths.max()
    return lengths >= lmax - max(TIE_REL_TOL * lmax, TIE_ABS_TOL)


def _check_breakpoints(bp):
    if bp.ndim != 1 or len(bp) < 2:
        raise ValueError("a partition needs at least the two endpoints")
    if bp[0] != 0.0 or bp[-1] != 1.0:
        raise ValueError("breakpoints must start at 0 and end at 1")
    if np.any(bp[1:] <= bp[:-1]):
        raise ValueError("breakpoints must be strictly increasing")


@dataclass(frozen=True)
class Partition:
    """Sorted breakpoints of a partition of [0, 1], endpoints included."""

    breakpoints: np.ndarray

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        _check_breakpoints(bp)
        bp.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)

    @classmethod
    def _adopt(cls, bp):
        """The partition whose breakpoints are the float array `bp` itself.

        Runs the constructor's checks but makes no copy, so the caller
        hands `bp` over and keeps no other reference to it.
        """
        _check_breakpoints(bp)
        bp.setflags(write=False)
        part = object.__new__(cls)
        object.__setattr__(part, "breakpoints", bp)
        return part

    @property
    def lengths(self):
        return np.diff(self.breakpoints)

    @property
    def n_intervals(self):
        return len(self.breakpoints) - 1


TRIVIAL = Partition(np.array([0.0, 1.0]))


def _split_points(partition, alpha):
    """The points that split every longest interval of `partition` in
    proportion alpha : 1 - alpha, in increasing order (see `alpha_refine`).

    The lengths, the mask and the indices are freed on return, so only
    the new points outlive the call.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    bp = partition.breakpoints
    lengths = np.diff(bp)
    idx = np.flatnonzero(_maximal_mask(lengths))
    new_points = lengths[idx]
    new_points *= alpha
    new_points += bp[idx]
    return new_points


def _merged(partition, new_points):
    """The partition of the breakpoints of `partition` and `new_points`."""
    bp = partition.breakpoints
    merged = np.empty(len(bp) + len(new_points))
    merged[: len(bp)] = bp
    merged[len(bp) :] = new_points
    merged.sort(kind="stable")  # two sorted runs: a merge
    return Partition._adopt(merged)


def alpha_refine(partition, alpha):
    """Split every longest interval of `partition` in proportion alpha : 1 - alpha.

    Intervals within a relative tolerance of the maximum length are all
    split in the same step, since exact ties drift apart in floating
    point.
    """
    return _merged(partition, _split_points(partition, alpha))


def _refinement_levels(alpha, n, max_intervals, cap_error):
    """Yield the refinements of the trivial partition at levels 0 .. n.

    Before refining to a level whose interval count would exceed
    max_intervals, raise ValueError(cap_error.format(level=..., cap=...)).
    """
    part = TRIVIAL
    yield part
    for level in range(1, n + 1):
        new_points = _split_points(part, alpha)
        if part.n_intervals + len(new_points) > max_intervals:
            raise ValueError(cap_error.format(level=level, cap=max_intervals))
        part = _merged(part, new_points)
        del new_points  # freed before the caller reads this level
        yield part


def kakutani_level(alpha, n, max_intervals=MAX_INTERVALS):
    """n-fold refinement of the trivial partition of [0, 1]."""
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    for part in _refinement_levels(
        alpha, int(n), max_intervals,
        "refinement would exceed the cap of {cap} intervals",
    ):
        pass
    return part


def interval_counts(partition, level):
    """Classify the intervals of a golden-ratio partition at the given level.

    Returns (t, l, s): total intervals, intervals of length GAMMA**level,
    and intervals of length GAMMA**(level + 1). Any interval matching
    neither length is an invariant violation and raises.
    """
    lengths = partition.lengths
    # one deviation array serves both lengths, so two float arrays are held
    dev = np.subtract(lengths, GAMMA**level)
    is_long = np.abs(dev, out=dev) <= _COUNT_TOL
    np.subtract(lengths, GAMMA ** (level + 1), out=dev)
    is_short = np.abs(dev, out=dev) <= _COUNT_TOL
    bad = ~(is_long | is_short)
    if np.any(bad):
        raise ValueError(
            f"interval of length {lengths[bad][0]!r} matches neither "
            f"gamma**{level} nor gamma**{level + 1}"
        )
    return int(len(lengths)), int(is_long.sum()), int(is_short.sum())


def length_classes(partition):
    """Cluster the interval lengths, longest class first.

    Returns a list of (length, count) pairs; lengths within _CLASS_TOL of
    each other (relative to the maximum) fall into one class. Used for
    the generic long/short interval report, which is only meaningful
    when there are at most two classes.
    """
    lengths = np.sort(partition.lengths)[::-1]
    tol = lengths[0] * _CLASS_TOL
    classes = []
    start = 0
    while start < len(lengths):
        # rounded subtraction is monotone, so top - x does not decrease
        # along the descending lengths: the class ends at the first gap
        top = lengths[start]
        end = bisect.bisect_right(lengths, tol, lo=start, key=lambda x: top - x)
        classes.append((float(lengths[start:end].mean()), end - start))
        start = end
    return classes
