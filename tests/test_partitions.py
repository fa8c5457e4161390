import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfsteiner.partitions import (
    MAX_INTERVALS,
    Partition,
    TRIVIAL,
    _CLASS_TOL,
    _maximal_mask,
    _refinement_levels,
    alpha_refine,
    interval_counts,
    kakutani_level,
    length_classes,
)
from kfsteiner.sequences import GAMMA, fib, kf_points

G = GAMMA


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 0.5]))  # does not end at 1
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 0.5, 0.5, 1.0]))  # not strictly increasing
    with pytest.raises(ValueError):
        Partition(np.array([1.0]))


def test_refine_trivial_with_gamma():
    p = alpha_refine(TRIVIAL, G)
    assert np.allclose(p.breakpoints, [0.0, G, 1.0], atol=1e-15)


def test_refine_gamma_partition():
    p = alpha_refine(alpha_refine(TRIVIAL, G), G)
    assert np.allclose(p.breakpoints, [0.0, G**2, G, 1.0], atol=1e-15)
    assert np.allclose(sorted(p.lengths), sorted([G**2, G**3, G**2]), atol=1e-15)


def test_refine_dyadic_splits_all_ties():
    p = alpha_refine(alpha_refine(TRIVIAL, 0.5), 0.5)
    assert np.allclose(p.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_refine_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            alpha_refine(TRIVIAL, alpha)


def test_kakutani_level_examples():
    assert kakutani_level(G, 0).n_intervals == 1
    assert kakutani_level(G, 3).n_intervals == 5  # t_3 = F_5
    for n in range(9):
        p = kakutani_level(0.5, n)
        assert p.n_intervals == 2**n
        assert np.allclose(p.lengths, 2.0**-n)


def test_kakutani_level_cap():
    with pytest.raises(ValueError):
        kakutani_level(0.5, 10, max_intervals=500)


def test_interval_counts_examples():
    assert interval_counts(kakutani_level(G, 2), 2) == (3, 2, 1)
    assert interval_counts(kakutani_level(G, 5), 5) == (13, 8, 5)
    assert interval_counts(kakutani_level(G, 0), 0) == (1, 1, 0)


def test_interval_counts_rejects_foreign_partition():
    with pytest.raises(ValueError):
        interval_counts(kakutani_level(0.5, 3), 3)


def test_fibonacci_identities_all_levels():
    part = TRIVIAL
    for n in range(26):
        if n > 0:
            part = alpha_refine(part, G)
        t, long_n, short_n = interval_counts(part, n)
        assert (t, long_n, short_n) == (fib(n + 2), fib(n + 1), fib(n))
        lengths = part.lengths
        near_long = np.abs(lengths - G**n) <= 1e-10
        near_short = np.abs(lengths - G ** (n + 1)) <= 1e-10
        assert np.all(near_long | near_short)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=0, max_value=12))
def test_refinement_preserves_total_length(alpha, n):
    part = kakutani_level(alpha, n)
    assert abs(part.lengths.sum() - 1.0) < 1e-12


def test_length_classes():
    assert length_classes(kakutani_level(0.5, 3)) == [(0.125, 8)]
    classes = length_classes(kakutani_level(G, 4))
    assert [c[1] for c in classes] == [5, 3]


def length_classes_by_walk(lengths):
    """length_classes of a partition with these lengths, by a walk down
    the sorted lengths that closes a class at the first length more than
    the tolerance below the class's first."""
    lengths = np.sort(lengths)[::-1]
    tol = lengths[0] * _CLASS_TOL
    classes = []
    start = 0
    for i in range(1, len(lengths) + 1):
        if i == len(lengths) or lengths[start] - lengths[i] > tol:
            classes.append((float(lengths[start:i].mean()), i - start))
            start = i
    return classes


@st.composite
def chained_lengths(draw):
    """Shuffled lengths whose neighbours in sorted order lie a few
    tolerances apart, at, just inside or just outside the class
    tolerance, so that chains longer than one tolerance form."""
    top = draw(st.floats(1e-6, 1.0))
    gaps = draw(st.lists(st.sampled_from(
        [0.0, 0.25, 0.5, 0.999999, 1.0, 1.000001, 1.5, 3.0, 1e3]), max_size=60))
    lengths = top - np.cumsum([0.0] + gaps) * (top * _CLASS_TOL)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.permutation(lengths)


@settings(max_examples=300, deadline=None)
@given(chained_lengths())
def test_length_classes_close_where_the_walk_does(lengths):
    assert length_classes(SimpleNamespace(lengths=lengths)) == (
        length_classes_by_walk(lengths))


@pytest.mark.parametrize("alpha, levels", [(0.3, 120), (0.41, 80), (0.5, 14), (0.7, 120)])
def test_length_classes_on_every_level_close_where_the_walk_does(alpha, levels):
    for part in _refinement_levels(alpha, levels, 200_000, "{level} {cap}"):
        assert length_classes(part) == length_classes_by_walk(part.lengths)


def contained_fraction(partition, a, b):
    """Fraction of the partition's intervals inside [a, b]: the intervals
    [bp[i], bp[i + 1]] with lo <= i < hi."""
    bp = partition.breakpoints
    lo = np.searchsorted(bp, a, side="left")
    hi = np.searchsorted(bp, b, side="right") - 1
    return max(0, hi - lo) / partition.n_intervals


@pytest.mark.parametrize("alpha", [0.3, G, 0.5, 0.7])
def test_ud_ratio_converges_on_dyadic_intervals(alpha):
    """Interval counts equidistribute: the fraction of intervals inside a
    test window tends to the window length as the cascade refines."""
    intervals = [(0.0, 0.5), (0.25, 0.75), (0.0, 0.25)]
    part = TRIVIAL
    errors = []
    for _ in range(100_000):
        part = alpha_refine(part, alpha)
        err = max(abs(contained_fraction(part, a, b) - (b - a)) for a, b in intervals)
        errors.append(err)
        if part.n_intervals >= 10_000:
            break
    assert part.n_intervals >= 10_000
    assert errors[-1] < 0.02
    head = np.mean(errors[: len(errors) // 4])
    tail = np.mean(errors[-len(errors) // 4 :])
    assert tail <= head


def test_first_points_match_partition_endpoints():
    """Cross-module oracle: sorted first t_k - 1 sequence points are the
    interior breakpoints of the level-k golden partition."""
    for k in range(1, 16):
        part = kakutani_level(G, k)
        t_k = part.n_intervals
        pts = np.sort(kf_points(t_k - 1))
        interior = part.breakpoints[1:-1]
        assert len(pts) == len(interior)
        assert np.abs(pts - interior).max() < 1e-12


@pytest.mark.parametrize("alpha", [G, 0.5, 0.3, 0.8])
def test_kakutani_level_is_repeated_alpha_refine_bit_for_bit(alpha):
    part = TRIVIAL
    for n in range(16):
        assert np.array_equal(kakutani_level(alpha, n).breakpoints, part.breakpoints)
        part = alpha_refine(part, alpha)


def test_kakutani_level_cap_message_and_bad_alpha():
    with pytest.raises(ValueError, match="refinement would exceed the cap of 500"):
        kakutani_level(0.5, 10, max_intervals=500)
    assert kakutani_level(0.5, 9, max_intervals=512).n_intervals == 512
    with pytest.raises(ValueError, match="alpha must lie in"):
        kakutani_level(1.5, 2)


def refine_by_copy(partition, alpha):
    """alpha_refine as one concatenation, a sort and the copying public
    constructor: the oracle for the refinement that hands its merged array
    to the new partition."""
    bp, lengths = partition.breakpoints, partition.lengths
    idx = np.flatnonzero(_maximal_mask(lengths))
    merged = np.concatenate([bp, bp[idx] + alpha * lengths[idx]])
    merged.sort(kind="stable")
    return Partition(merged)


@pytest.mark.parametrize("alpha, depth", [(G, 24), (0.3, 60), (0.5, 20), (0.7, 60)])
def test_levels_equal_a_copying_reference(alpha, depth):
    ref = TRIVIAL
    chain = [TRIVIAL]
    for _ in range(depth):
        ref = refine_by_copy(ref, alpha)
        chain.append(alpha_refine(chain[-1], alpha))
        assert np.array_equal(chain[-1].breakpoints, ref.breakpoints)
    assert np.array_equal(kakutani_level(alpha, depth).breakpoints, ref.breakpoints)
    generated = list(_refinement_levels(alpha, depth, MAX_INTERVALS, "{level} {cap}"))
    for levels in (chain, generated):
        for i, part in enumerate(levels):
            assert not part.breakpoints.flags.writeable
            for later in levels[i + 1 :]:
                assert not np.shares_memory(part.breakpoints, later.breakpoints)


def test_public_constructor_copies_and_adopt_checks():
    given_bp = np.array([0.0, 0.5, 1.0])
    part = Partition(given_bp)
    given_bp[1] = 0.25
    assert part.breakpoints[1] == 0.5 and given_bp.flags.writeable
    assert not part.breakpoints.flags.writeable
    for bad in ([0.0, 0.5], [0.0, 0.5, 0.5, 1.0], [1.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            Partition._adopt(np.array(bad))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_refinement_temporaries_are_bounded():
    # each level freed its lengths, mask and indices only after it had
    # merged, and the constructor copied the merged array: 4.1 arrays of
    # the last level's breakpoints, 2.4 without
    level_bytes = kakutani_level(G, 24).breakpoints.nbytes
    peak = traced_peak(kakutani_level, G, 24)
    assert peak < 3.0 * level_bytes, f"peak {peak / level_bytes:.2f} levels"


def test_count_table_temporaries_are_bounded():
    # the table of `partition`, whose levels are counted while the
    # refinement waits. It peaks while the last level is counted: at 4.8
    # arrays of that level's breakpoints (its own included) with four
    # float arrays of the lengths in interval_counts and a copying
    # refinement, at 3.5 with one deviation array, and at 3.9 if the
    # refinement held its last new points meanwhile
    def table():
        levels = _refinement_levels(G, 24, MAX_INTERVALS, "{level} {cap}")
        return [interval_counts(part, level) for level, part in enumerate(levels)]

    assert table()[-1] == (fib(26), fib(25), fib(24))
    level_bytes = kakutani_level(G, 24).breakpoints.nbytes
    peak = traced_peak(table)
    assert peak < 3.75 * level_bytes, f"peak {peak / level_bytes:.2f} levels"
