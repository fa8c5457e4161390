import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfsteiner import sequences
from kfsteiner.sequences import (
    GAMMA,
    admissible_integers,
    checkpoint_index,
    fib,
    gamma_radical_inverse,
    is_admissible,
    kf_point,
    kf_points,
    kronecker_point,
    kronecker_points,
    parse_sequence_id,
    sequence_values,
    to_direction,
    vdc_point,
    vdc_points,
)

G = GAMMA

# The first twelve sequence values as explicit golden-ratio polynomials.
FIRST_TWELVE = [
    G,
    G**2,
    G**3,
    G**3 + G,
    G**4,
    G**4 + G,
    G**4 + G**2,
    G**5,
    G**5 + G,
    G**5 + G**2,
    G**5 + G**3,
    G**5 + G**3 + G,
]


def test_gamma_identity():
    assert 0.0 < GAMMA < 1.0
    assert abs((1.0 - GAMMA) - GAMMA**2) < 1e-15


def test_fib_base_and_values():
    assert fib(0) == 0
    assert fib(1) == 1
    # direct recurrence oracle
    seq = [0, 1]
    for _ in range(98):
        seq.append(seq[-1] + seq[-2])
    assert fib(7) == 13 == seq[7]
    assert fib(10) == 55 == seq[10]
    for n in (25, 60, 90):
        assert fib(n) == seq[n]


def test_fib_rejects_negative():
    with pytest.raises(ValueError):
        fib(-1)


def test_is_admissible_examples():
    assert is_admissible(5)  # 101
    assert not is_admissible(3)  # 11
    assert is_admissible(21)  # 10101
    with pytest.raises(ValueError):
        is_admissible(0)


@given(st.integers(min_value=1, max_value=1 << 48))
def test_is_admissible_matches_string_oracle(n):
    assert is_admissible(n) == ("11" not in bin(n))


def test_admissible_count_per_bit_window_is_fibonacci():
    # integers with exactly m binary digits, i.e. in [2**(m-1), 2**m - 1]
    vals = admissible_integers(fib(22))
    for m in range(1, 21):
        lo, hi = 1 << (m - 1), (1 << m) - 1
        count = int(np.count_nonzero((vals >= lo) & (vals <= hi)))
        # standard indexing F_1 = F_2 = 1 matches the window counts
        assert count == fib(m), f"window m={m}"


def test_gamma_radical_inverse_golden_values():
    assert abs(gamma_radical_inverse(1) - G) < 1e-15
    assert abs(gamma_radical_inverse(5) - (G**3 + G)) < 1e-15
    for n in range(1, 12):
        assert abs(gamma_radical_inverse(1 << (n - 1)) - G**n) < 1e-14
    assert abs(gamma_radical_inverse(32) - G**6) < 1e-15
    assert abs(gamma_radical_inverse(32) - 0.0557280900008412) < 1e-12


def test_gamma_radical_inverse_rejects_non_admissible():
    with pytest.raises(ValueError):
        gamma_radical_inverse(3)
    with pytest.raises(ValueError):
        gamma_radical_inverse(6)


def test_radical_inverse_values_distinct_and_in_unit_interval():
    vals = kf_points(10_000)
    assert vals.min() > 0.0 and vals.max() < 1.0
    assert np.diff(np.sort(vals)).min() > 1e-12


def test_first_twelve_points():
    pts = kf_points(12)
    assert np.abs(pts - np.array(FIRST_TWELVE)).max() < 1e-12
    assert abs(kf_point(5) - G**4) < 1e-15


def test_thirteenth_admissible_integer_is_32():
    # enumeration: 1, 2, 4, 5, 8, 9, 10, 16, 17, 18, 20, 21, 32, ...
    vals = admissible_integers(14)
    assert vals.tolist() == [1, 2, 4, 5, 8, 9, 10, 16, 17, 18, 20, 21, 32, 33]
    assert abs(kf_point(13) - G**6) < 1e-15


def test_vdc_examples():
    assert vdc_point(1, 2) == 0.5
    assert vdc_point(3, 2) == 0.75
    assert vdc_point(4, 2) == 0.125
    assert vdc_point(1, 3) == pytest.approx(1.0 / 3.0)
    assert np.allclose(vdc_points(4, 2), [0.5, 0.25, 0.75, 0.125])

    def oracle(n, b):
        digits = []
        while n:
            digits.append(n % b)
            n //= b
        return sum(d * b ** -(i + 1) for i, d in enumerate(digits))

    for n in range(1, 200):
        for b in (2, 3, 5):
            assert vdc_point(n, b) == pytest.approx(oracle(n, b), abs=1e-15)


def oracle_vdc_points(count, base):
    """The digit loop vdc_points ran before it divided into preallocated
    arrays: a remainder and a quotient array per digit, until all are 0."""
    out = np.zeros(count)
    denom = float(base)
    rem = np.arange(1, count + 1, dtype=np.int64)
    while rem.any():
        out += (rem % base) / denom
        rem //= base
        denom *= base
    return out


@pytest.mark.parametrize("base", [2, 3, 10])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 9, 10, 11, 999, 1000, 1024, 1025, 65537])
def test_vdc_points_give_the_digit_loop_bits(base, count):
    assert np.array_equal(vdc_points(count, base), oracle_vdc_points(count, base))


def test_vdc_points_peak_memory_is_three_arrays():
    # the points, their remainders and one digit array; numpy's cast
    # buffer for the float digits adds 64 KiB. The old loop peaked at 4x.
    count = 1 << 20
    tracemalloc.start()
    try:
        pts = vdc_points(count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) == count
    assert peak <= 3.25 * pts.nbytes


def test_kronecker_examples():
    assert abs(kronecker_point(1, G) - G) < 1e-15
    assert abs(kronecker_point(2, G) - (2 * G - 1.0)) < 1e-15
    assert kronecker_point(3, 0.5) == 0.5


def test_to_direction():
    d0 = to_direction(0.0)
    assert d0.theta == 0.0 and d0.vector == (1.0, 0.0)
    dh = to_direction(0.5)
    assert dh.theta == pytest.approx(math.pi / 2)
    assert abs(dh.vector[0]) < 1e-12 and dh.vector[1] == pytest.approx(1.0)
    dg = to_direction(G)
    assert dg.theta == pytest.approx(math.pi * G)
    assert math.hypot(*dg.vector) == pytest.approx(1.0, abs=1e-12)
    for bad in (-0.1, 1.2, float("nan")):
        with pytest.raises(ValueError):
            to_direction(bad)


def test_checkpoint_index_examples_and_closed_form():
    assert checkpoint_index(1) == 1
    assert checkpoint_index(4) == 5
    assert checkpoint_index(5) == 8
    # enumeration agrees with fib(k+1); recorded as a derived identity
    for k in range(1, 21):
        assert checkpoint_index(k) == fib(k + 1)


def test_checkpoint_values():
    for k in range(1, 16):
        assert abs(kf_point(checkpoint_index(k)) - G**k) < 1e-12
    # the successor identity needs 2**(k-1) + 1 to be admissible, which
    # holds from k = 3 on; for k = 2 the integer 3 is 11 in binary and
    # G**2 + G equals 1, so the next point after G**2 is G**3 instead
    for k in range(3, 16):
        assert abs(kf_point(checkpoint_index(k) + 1) - (G**k + G)) < 1e-12
    assert abs((G**2 + G) - 1.0) < 1e-15
    assert abs(kf_point(checkpoint_index(2) + 1) - G**3) < 1e-15


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_kronecker_alpha_is_rejected(text):
    with pytest.raises(ValueError, match="finite"):
        parse_sequence_id(f"kronecker:{text}")


@pytest.mark.parametrize("alpha", [1e308, -1e308, 9e307])
def test_overflowing_kronecker_alpha_is_rejected(alpha):
    # k * alpha overflows to inf, and inf mod 1 is NaN
    with pytest.raises(ValueError, match=re.escape(f"kronecker alpha {alpha!r}")):
        sequence_values(f"kronecker:{alpha!r}", 3)


@pytest.mark.parametrize("alpha,count", [(1e308, 1), (1e300, 50), (0.3, 100), (-G, 100)])
def test_finite_kronecker_values_pass_through(alpha, count):
    got = sequence_values(f"kronecker:{alpha!r}", count)
    assert np.array_equal(got, kronecker_points(count, alpha=alpha))
    assert np.all(np.isfinite(got))


@pytest.mark.parametrize("value", ["nan", "1.5", "-0.25"])
def test_schedule_file_values_must_lie_in_the_unit_interval(value, tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text(f"0.5\n{value}\n0.25\n")
    with pytest.raises(ValueError, match="outside"):
        sequence_values(f"file:{path}", 3)


def test_parse_sequence_ids():
    assert parse_sequence_id("kf").kind == "kf"
    assert parse_sequence_id("vdc2").base == 2
    assert parse_sequence_id("vdc:3").base == 3
    assert parse_sequence_id("kronecker").alpha == pytest.approx(G)
    assert parse_sequence_id("kronecker:0.25").alpha == 0.25
    assert parse_sequence_id("kronecker:gamma").alpha == pytest.approx(G)
    assert parse_sequence_id("constant:0.4").value == 0.4
    spec = parse_sequence_id("geomdecay:0.8:0.7")
    assert (spec.start, spec.ratio) == (0.8, 0.7)
    with pytest.raises(ValueError):
        parse_sequence_id("nonsense")


def test_sequence_values_deterministic():
    a = sequence_values("random:42", 100)
    b = sequence_values("random:42", 100)
    assert np.array_equal(a, b)
    c = sequence_values("geomdecay:0.9:0.5", 4)
    assert np.allclose(c, [0.9, 0.45, 0.225, 0.1125])


# ---------------------------------------------------------------------------
# Fibonacci-word doubling against the scan enumeration
# ---------------------------------------------------------------------------


def scan_admissible(count, chunk=1 << 20):
    """First `count` admissible integers, found by testing every integer upward."""
    found = [np.empty(0, dtype=np.int64)]
    have, lo = 0, 1
    while have < count:
        block = np.arange(lo, lo + chunk, dtype=np.int64)
        good = block[(block & (block >> 1)) == 0]
        found.append(good)
        have += len(good)
        lo += chunk
    return np.concatenate(found)[:count]


def bitwise_radical_inverse(ns):
    """Radical inverses adding GAMMA**(k+1) for every bit k, low bit first."""
    out = np.zeros(len(ns))
    if len(ns) == 0:
        return out
    for k in range(int(ns.max()).bit_length()):
        out += sequences._GAMMA_POWERS[k] * ((ns >> k) & 1)
    return out


def zeckendorf_oracle(k):
    """Admissible integer whose bit j is the digit of F(j+2) in the greedy
    Zeckendorf representation of k, built as a digit string."""
    fibs = [1, 2]
    while fibs[-1] + fibs[-2] <= k:
        fibs.append(fibs[-1] + fibs[-2])
    digits = ""
    for f in reversed(fibs):
        if f <= k:
            digits += "1"
            k -= f
        else:
            digits += "0"
    if k:
        raise AssertionError("greedy pass left a remainder")
    return int(digits, 2)


def test_doubling_matches_the_scan_at_fib_25_points():
    count = fib(25)
    ints = scan_admissible(count)
    got = admissible_integers(count)
    assert got.dtype == np.int64 and np.array_equal(got, ints)
    pts = kf_points(count)
    assert pts.dtype == np.float64 and np.array_equal(pts, bitwise_radical_inverse(ints))


def test_doubling_matches_the_scan_at_every_small_count():
    ref = scan_admissible(200)
    for count in range(201):
        ints = admissible_integers(count)
        assert ints.shape == (count,) and np.array_equal(ints, ref[:count]), count
        pts = kf_points(count)
        assert pts.shape == (count,), count
        assert np.array_equal(pts, bitwise_radical_inverse(ref[:count])), count


def test_kf_point_is_the_last_of_kf_points():
    pts = kf_points(3000)
    for k in range(1, 3001):
        assert kf_point(k) == pts[k - 1], k


_BIG_INDICES = sorted(
    {fib(n) + d for n in range(2, 75) for d in (-1, 0, 1) if 1 <= fib(n) + d <= 10**15}
    | {10**15, 10**15 - 1, 2**49, 7 * 10**14 + 12345}
)


def _check_against_zeckendorf(k):
    n = zeckendorf_oracle(k)
    assert is_admissible(n)
    assert sum(fib(j + 2) for j in range(n.bit_length()) if n >> j & 1) == k
    got = kf_point(k)
    assert got == gamma_radical_inverse(n)
    exact = sum(G ** (j + 1) for j in range(n.bit_length()) if n >> j & 1)
    assert abs(got - exact) < 1e-12


def test_kf_point_matches_zeckendorf_oracle_at_fibonacci_edges():
    for k in _BIG_INDICES:
        _check_against_zeckendorf(k)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**15))
def test_kf_point_matches_zeckendorf_oracle(k):
    _check_against_zeckendorf(k)


def test_checkpoint_index_is_closed_form_past_the_old_scan_cap():
    assert checkpoint_index(60) == fib(61)
    assert kf_point(checkpoint_index(60)) == sequences._GAMMA_POWERS[59]
    # the first point with k binary digits is GAMMA**k, exactly
    for k in range(1, 26):
        assert kf_points(checkpoint_index(k))[-1] == sequences._GAMMA_POWERS[k - 1]


def test_kf_points_peak_memory_is_a_small_multiple_of_its_output():
    count = fib(26)
    tracemalloc.start()
    try:
        pts = kf_points(count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) == count
    assert peak <= 3 * pts.nbytes


def test_past_the_digit_tables_is_a_value_error():
    with pytest.raises(ValueError, match="binary digits"):
        kf_points(fib(len(sequences._GAMMA_POWERS) + 2))
    with pytest.raises(ValueError, match="binary digits"):
        admissible_integers(fib(65))
    with pytest.raises(ValueError, match="binary digits"):
        gamma_radical_inverse(1 << len(sequences._GAMMA_POWERS))
    with pytest.raises(ValueError):
        kf_points(-1)
