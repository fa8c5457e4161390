import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfsteiner import discrepancy
from kfsteiner.discrepancy import (
    discrepancy_curve,
    extreme_discrepancy,
    star_discrepancy,
)


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


def test_extreme_cap_enforced():
    with pytest.raises(ValueError):
        extreme_discrepancy(np.linspace(0, 1, 1_000_001))


def test_extreme_invariant_raises_even_without_assert(monkeypatch):
    # a star discrepancy above the two-sided one breaks the sandwich; the
    # check must be an explicit raise, which python -O does not strip
    monkeypatch.setattr(discrepancy, "star_discrepancy", lambda pts: 1.0)
    with pytest.raises(AssertionError, match="fell below the star"):
        extreme_discrepancy([0.0, 0.25, 0.5, 0.75])
