import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_integers
from kfsteiner import discrepancy
from kfsteiner.discrepancy import (
    discrepancy_curve,
    extreme_discrepancy,
    star_discrepancy,
)
from kfsteiner.sequences import sequence_values


def star_brute_force(points, thresholds=100_000):
    """Scan anchored intervals [0, t) on a fine threshold grid."""
    pts = np.sort(np.asarray(points, dtype=float))
    ts = np.linspace(0.0, 1.0, thresholds + 1)
    counts = np.searchsorted(pts, ts, side="left")
    return float(np.abs(counts / len(pts) - ts).max())


def extreme_brute_force(points):
    """All endpoint pairs from the value grid, both inclusion variants."""
    pts = np.sort(np.asarray(points, dtype=float))
    n = len(pts)
    vals = np.unique(np.concatenate([[0.0], pts, [1.0]]))
    incl = np.searchsorted(pts, vals, side="right")
    excl = np.searchsorted(pts, vals, side="left")
    best = 0.0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            lam = vals[j] - vals[i]
            over = (incl[j] - excl[i]) / n - lam
            under = lam - (excl[j] - incl[i]) / n
            best = max(best, over, under)
    return best


def test_star_examples():
    assert star_discrepancy([0.5]) == 0.5
    mids = [(2 * i - 1) / 20 for i in range(1, 11)]
    assert star_discrepancy(mids) == pytest.approx(0.05, abs=1e-15)
    assert star_discrepancy([0.1]) == pytest.approx(0.9)


def test_star_rejects_bad_samples():
    with pytest.raises(ValueError):
        star_discrepancy([])
    with pytest.raises(ValueError):
        star_discrepancy([0.5, 1.2])


def test_star_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 201))
        sample = rng.random(n)
        exact = star_discrepancy(sample)
        approx = star_brute_force(sample)
        assert abs(exact - approx) <= 1.0 / 100_000
        assert exact >= approx - 1e-12


def test_extreme_examples():
    assert extreme_discrepancy([0.5]) == 0.5
    assert extreme_discrepancy([0.0, 0.25, 0.5, 0.75]) == pytest.approx(0.25)


def test_extreme_matches_pairwise_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        sample = rng.random(n)
        assert extreme_discrepancy(sample) == pytest.approx(
            extreme_brute_force(sample), abs=1e-12
        )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
def test_star_extreme_sandwich(sample):
    d_star = star_discrepancy(sample)
    d_ext = extreme_discrepancy(sample)
    assert d_ext >= d_star - 1e-12
    assert d_ext <= 2.0 * d_star + 1e-12


def test_degenerate_kronecker_curve():
    rows = discrepancy_curve("kronecker:0.5", [100])
    assert rows[0]["d_star"] >= 0.49


def test_kf_small_sample():
    rows = discrepancy_curve("kf", [100])
    assert rows[0]["d_star"] < 0.05


def test_weyl_proxy_decreasing_to_zero():
    for spec in ("kf", "vdc2", "kronecker"):
        rows = discrepancy_curve(spec, [100, 1_000, 10_000, 100_000])
        stars = [row["d_star"] for row in rows]
        assert stars[-1] < 1e-3, spec
        assert stars[0] > stars[1] > stars[2] > stars[3], spec


def test_low_discrepancy_envelope_recorded():
    # the normalized constant N * D / ln N stays modest for the golden sequence
    rows = discrepancy_curve("kf", [100, 1_000, 10_000, 100_000])
    worst = max(row["normalized"] for row in rows)
    assert worst <= 3.0, f"normalized constant {worst}"


def test_vdc_dyadic_growth():
    rows = discrepancy_curve("vdc2", [2**k for k in range(4, 15)])
    cs = [row["normalized"] for row in rows]
    assert max(cs) <= 3.0


def test_curve_rejects_bad_sizes():
    with pytest.raises(ValueError):
        discrepancy_curve("kf", [])
    with pytest.raises(ValueError):
        discrepancy_curve("kf", [1])
    with pytest.raises(ValueError):
        discrepancy_curve("nonsense", [10])


def test_extreme_invariant_raises_even_without_assert(monkeypatch):
    # a star discrepancy above the two-sided one breaks the sandwich; the
    # check must be an explicit raise, which python -O does not strip
    monkeypatch.setattr(discrepancy, "_star_sorted", lambda pts: 1.0)
    with pytest.raises(AssertionError, match="fell below the star"):
        extreme_discrepancy([0.0, 0.25, 0.5, 0.75])


@pytest.mark.parametrize("spec", ["kf", "vdc:3", "random:5", "kronecker:0.5"])
def test_curve_columns_equal_the_public_functions(spec):
    ns = [2, 3, 10, 377, 1000, 4181]
    rows = discrepancy_curve(spec, ns, include_extreme=True)
    pts = sequence_values(spec, max(ns))
    for row in rows:
        n = row["N"]
        assert row["d_star"] == star_discrepancy(pts[:n])
        assert row["d_extreme"] == extreme_discrepancy(pts[:n])


def test_curve_checks_the_sandwich_against_its_star_column(monkeypatch):
    monkeypatch.setattr(discrepancy, "_star_sorted", lambda pts: 1.0)
    with pytest.raises(AssertionError, match="fell below the star"):
        discrepancy_curve("kf", [10], include_extreme=True)
    assert discrepancy_curve("kf", [10])[0]["d_star"] == 1.0


def extreme_by_search(points):
    """Two-sided discrepancy with the value grid from np.unique and the
    counts from binary search."""
    pts = np.sort(np.asarray(points, dtype=float))
    n = len(pts)
    vals = np.unique(np.concatenate([[0.0], pts, [1.0]]))
    cum_incl = np.searchsorted(pts, vals, side="right") / n
    cum_excl = np.searchsorted(pts, vals, side="left") / n
    gain = np.maximum.accumulate(vals - cum_excl)[:-1]
    excess = np.max(cum_incl[1:] - vals[1:] + gain)
    gain = np.maximum.accumulate(cum_incl - vals)[:-1]
    deficit = np.max(vals[1:] - cum_excl[1:] + gain)
    return float(max(excess, deficit, 0.0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, 1.0, 0.5, 0.25, 1.0 / 3.0])
        | st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=80,
    )
)
def test_extreme_equals_the_binary_search_formulation(sample):
    assert extreme_discrepancy(sample) == extreme_by_search(sample)


def test_extreme_equals_the_binary_search_formulation_on_kf_prefixes():
    pts = sequence_values("kf", 17711)
    for n in (1, 2, 5, 89, 1000, 17711):
        assert extreme_discrepancy(pts[:n]) == extreme_by_search(pts[:n])
    ties = np.repeat(sequence_values("vdc", 64), 3)
    assert extreme_discrepancy(ties) == extreme_by_search(ties)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from([0.0, 1.0, 0.5, 0.25])
            | st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_extreme_of_sorted_samples_equals_the_binary_search_formulation(samples):
    # sample after sample, as discrepancy_curve evaluates them
    for sample in samples:
        pts = np.sort(np.asarray(sample, dtype=float))
        d_star = star_discrepancy(pts)
        assert discrepancy._extreme_sorted(pts, d_star) == extreme_by_search(pts)


def exact_discrepancies(points):
    """(star, two-sided) discrepancy of the sample, exact, as Fractions.

    With the points integers over den, N den times each lead x_i - i / N,
    lag (i + 1) / N - x_i, value and count is an integer. The star
    discrepancy is the largest lead or lag; the two-sided one the largest
    excess #[v, w] / N - (w - v) or deficit (w - v) - #(v, w) / N over the
    values v < w of 0, the points and 1, by running maxima over v.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    n = len(pts)
    ints, den = as_integers(np.r_[0.0, pts, 1.0])
    x = np.array(ints, dtype=object) * n
    i = np.arange(n + 1, dtype=object) * den
    star = max((x[1:-1] - i[:-1]).max(), (i[1:] - x[1:-1]).max())
    # the runs of equal values, each with #{x < v} and #{x <= v}
    first = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    v = x[first]
    lead = v - np.maximum(first - 1, 0).astype(object) * den
    lag = np.minimum(np.r_[first[1:], n + 2] - 1, n).astype(object) * den - v
    best = max(0, (lag[1:] + np.maximum.accumulate(lead)[:-1]).max(),
               (lead[1:] + np.maximum.accumulate(lag)[:-1]).max())
    return Fraction(star, n * den), Fraction(best, n * den)


#: Largest gap between a float discrepancy and the exact one, in units of
#: 2**-53: two roundings in a lead or lag (i / N, the difference), one in
#: the two-sided sum. The largest measured over this file's cases: 1.07.
DISCREPANCY_ULPS = 5


def assert_discrepancy_is_exact(got, want):
    gap = abs(Fraction(got) - want)
    assert gap <= Fraction(DISCREPANCY_ULPS, 2**53), (got, float(want), float(gap * 2**53))


# few distinct values, so samples carry ties, 0.0 and 1.0
tied_samples = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0 / 3.0]),
              st.floats(0.0, 1.0)),
    min_size=1, max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(tied_samples, st.sampled_from([1, 2, 3, 7, 1 << 15]))
def test_blocked_star_is_bit_identical_to_whole_passes(points, block):
    # a maximum is exact, so any block size gives the same bits, within
    # DISCREPANCY_ULPS of the exact star discrepancy
    pts = np.sort(np.asarray(points, dtype=float))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrepancy, "STAR_BLOCK", block)
        got = discrepancy._star_sorted(pts)
    assert got == discrepancy._star_sorted(pts)
    assert_discrepancy_is_exact(got, exact_discrepancies(pts)[0])


def test_star_temporaries_are_bounded():
    # the whole-sample passes held two float arrays of N + 1 entries,
    # 16 MB at a million points
    pts = np.sort(sequence_values("kf", 10**6))
    tracemalloc.start()
    try:
        discrepancy._star_sorted(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


@settings(max_examples=300, deadline=None)
@given(tied_samples, st.sampled_from([1, 2, 3, 7, 1 << 15]))
def test_blocked_extreme_is_bit_identical_to_whole_arrays(points, block):
    pts = np.sort(np.asarray(points, dtype=float))
    d_star = discrepancy._star_sorted(pts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrepancy, "STAR_BLOCK", block)
        got = discrepancy._extreme_sorted(pts, d_star)
    assert got == discrepancy._extreme_sorted(pts, d_star)
    assert_discrepancy_is_exact(got, exact_discrepancies(pts)[1])


STAR_BLOCK = discrepancy.STAR_BLOCK


@pytest.mark.parametrize("n", [STAR_BLOCK - 1, STAR_BLOCK, STAR_BLOCK + 1,
                               2 * STAR_BLOCK + 1])
@pytest.mark.parametrize("kind", ["kf", "ties", "random"])
def test_blocked_extreme_at_block_edges(n, kind):
    rng = np.random.default_rng(n)
    if kind == "kf":
        pts = sequence_values("kf", n)
    elif kind == "ties":  # 257 values, 0 and 1 among them
        pts = rng.integers(0, 257, n) / 256
    else:
        pts = rng.random(n)
    pts = np.sort(pts)
    star, two_sided = exact_discrepancies(pts)
    assert_discrepancy_is_exact(discrepancy._star_sorted(pts), star)
    assert_discrepancy_is_exact(discrepancy._extreme_sorted(pts, 0.0), two_sided)


def planted_same_run(n):
    """A sample whose largest lead and largest lag fall in one run: half
    the points at 0.5, a quarter spread evenly over [0, 1/4] and a quarter
    over [3/4, 1]. The run at 0.5 crosses block boundaries when n is large."""
    q = n // 4
    return np.concatenate([np.linspace(0.0, 0.25, q), np.full(n - 2 * q, 0.5),
                           np.linspace(0.75, 1.0, q)])


@pytest.mark.parametrize("pts, block", [
    ([0.5, 0.5, 0.5, 0.5], 1 << 15),
    ([0.0, 0.0, 0.5, 0.75], 1 << 15),  # the run at 0 holds both maxima
    ([0.0, 0.0, 0.5, 0.75], 1),
    (planted_same_run(2 * STAR_BLOCK + 1), 1 << 15),
    (planted_same_run(2 * STAR_BLOCK + 1), 1000),
    (planted_same_run(101), 7),
])
def test_blocked_extreme_when_one_run_holds_both_maxima(pts, block):
    pts = np.sort(np.asarray(pts, dtype=float))
    star, want = exact_discrepancies(pts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrepancy, "STAR_BLOCK", block)
        got = discrepancy._extreme_sorted(pts, discrepancy._star_sorted(pts))
    assert_discrepancy_is_exact(got, want)
    assert extreme_discrepancy(pts) == got == extreme_by_search(pts)


def test_extreme_temporaries_are_bounded():
    # the whole-sample lead, lag and counts arrays held 24 MB at a
    # million points
    pts = np.sort(sequence_values("kf", 10**6))
    tracemalloc.start()
    try:
        discrepancy._extreme_sorted(pts, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, 1.0 + 1e-15])
def test_one_bad_value_anywhere_is_refused(bad):
    for at in (0, 5, 9):
        pts = np.linspace(0.0, 1.0, 10)
        pts[at] = bad
        with pytest.raises(ValueError, match="must lie in"):
            star_discrepancy(pts)
