"""Golden-ratio numeration and one-dimensional point sequences.

Admissible integers are the positive integers whose binary expansion has
no two adjacent ones. Mapping the k-th admissible integer through the
golden-ratio radical inverse (sum of gamma**(j+1) over its set bits)
yields the Kakutani-Fibonacci sequence of points in (0, 1). The k-th
admissible integer is the Zeckendorf representation of k read as binary
digits: bit j stands for the Fibonacci number F(j+2).

The sequence is built by doubling along the Fibonacci word, without
scanning. Let W_m be the admissible integers below 2**m, with 0 first,
in increasing order. Then |W_m| = F(m+2) and W_m is W_{m-1} followed by
W_{m-2} + 2**(m-1), so the first N values fill one array of length N + 1
in place, in O(N) time and memory, with no cache and no cap beyond the
gamma-power table. The radical inverses are built the same way with
gamma**m in place of 2**(m-1); each value adds its bits from the low bit
up, exactly as a bit-by-bit evaluation does. A single index k is
resolved by a greedy Zeckendorf pass instead.

Van der Corput and Kronecker sequences are provided for comparison, and
a point x in [0, 1] is turned into a planar direction via the angle
pi * x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GAMMA",
    "SequenceSpec",
    "fib",
    "is_admissible",
    "admissible_integers",
    "gamma_radical_inverse",
    "kf_point",
    "kf_points",
    "vdc_point",
    "vdc_points",
    "kronecker_point",
    "kronecker_points",
    "to_direction",
    "checkpoint_index",
    "parse_sequence_id",
    "sequence_values",
]

GAMMA = (math.sqrt(5.0) - 1.0) / 2.0
"""Inverse golden ratio, the root of 1 - g = g*g in (0, 1)."""

# _GAMMA_POWERS[j] == GAMMA ** (j + 1), one entry per Zeckendorf digit of
# every index below F(94) > 2**64
_GAMMA_POWERS = np.cumprod(np.full(92, GAMMA))


def fib(n):
    """n-th Fibonacci number with F_0 = 0, F_1 = 1.

    Arbitrary-precision integers are used, so there is no overflow cap;
    n only has to be a nonnegative integer.
    """
    if n < 0:
        raise ValueError(f"fib requires n >= 0, got {n}")
    a, b = 0, 1
    for _ in range(int(n)):
        a, b = b, a + b
    return a


def is_admissible(n):
    """True iff the binary expansion of n >= 1 has no two adjacent ones."""
    n = int(n)
    if n < 1:
        raise ValueError(f"admissibility is defined for n >= 1, got {n}")
    return (n & (n >> 1)) == 0


def _fibonacci_doubling(count, digit_values):
    """Images of 0 and the first `count` admissible integers, in order.

    Bit j of an admissible integer maps to digit_values[j], and the
    images of its set bits are summed from the low bit up. Level m
    appends the first F(m) entries plus digit_values[m - 1] to the first
    F(m + 1) entries.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = int(count) + 1
    if n > fib(len(digit_values) + 2):
        raise ValueError(
            f"{count} values need more than {len(digit_values)} binary digits"
        )
    out = np.empty(n, dtype=digit_values.dtype)
    out[0] = 0
    short, long = 1, 1  # F(m), F(m + 1)
    for value in digit_values:
        if long >= n:
            break
        stop = min(long + short, n)
        np.add(out[: stop - long], value, out=out[long:stop])
        short, long = long, long + short
    return out


def admissible_integers(count):
    """First `count` admissible integers, in increasing order."""
    # every bit an int64 can carry: 2**0 .. 2**62
    return _fibonacci_doubling(count, 1 << np.arange(63, dtype=np.int64))[1:]


def gamma_radical_inverse(n):
    """Golden-ratio radical inverse of an admissible integer.

    Returns sum over set bits k of GAMMA**(k+1), which lies strictly in
    (0, 1) exactly because no two bits are adjacent.
    """
    if not is_admissible(n):
        raise ValueError(f"{n} has adjacent ones in binary and is not admissible")
    n = int(n)
    if n.bit_length() > len(_GAMMA_POWERS):
        raise ValueError(f"{n} has more than {len(_GAMMA_POWERS)} binary digits")
    total = 0.0
    k = 0
    while n:
        if n & 1:
            total += _GAMMA_POWERS[k]
        n >>= 1
        k += 1
    return total


def kf_points(count):
    """First `count` values of the golden-ratio splitting sequence."""
    return _fibonacci_doubling(count, _GAMMA_POWERS)[1:]


def kf_point(k):
    """k-th sequence value (k >= 1): radical inverse of the k-th admissible integer."""
    if k < 1:
        raise ValueError(f"sequence index must be >= 1, got {k}")
    k = int(k)
    # greedy Zeckendorf digits of k: fibs[j] == F(j + 2) stands for bit j
    fibs = [1, 2]
    while fibs[-1] <= k:
        fibs.append(fibs[-1] + fibs[-2])
    n = 0
    for j in reversed(range(len(fibs))):
        if fibs[j] <= k:
            k -= fibs[j]
            n |= 1 << j
    return gamma_radical_inverse(n)


def checkpoint_index(k):
    """Sequence index where the value GAMMA**k first appears.

    GAMMA**k is the image of 2**(k-1), the first admissible integer with
    k binary digits; the F(k+1) - 1 admissible integers below it are the
    values of W_{k-1} other than 0, so its index is fib(k+1).
    """
    if k < 1:
        raise ValueError(f"checkpoint order must be >= 1, got {k}")
    return fib(k + 1)


def vdc_point(n, base=2):
    """Radical-inverse (digit reversal) value of n >= 1 in the given base."""
    n = int(n)
    base = int(base)
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    out = 0.0
    denom = float(base)
    while n:
        out += (n % base) / denom
        n //= base
        denom *= base
    return out


def vdc_points(count, base=2):
    """First `count` van der Corput values in the given base."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    out = np.zeros(count)
    denom = float(base)
    rem = np.arange(1, count + 1, dtype=np.int64)
    # three arrays of the points, 24 B a point: divmod writes the quotient
    # over rem and the digit into a float array scaled in place. count,
    # the largest index, has the most digits, so it sets the loop's length.
    digit = np.empty(count)
    top = count
    while top:
        np.divmod(rem, base, out=(rem, digit))
        digit /= denom
        out += digit
        denom *= base
        top //= base
    return out


def kronecker_point(n, alpha=GAMMA):
    """Fractional part of n * alpha."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return math.fmod(n * alpha, 1.0)


def kronecker_points(count, alpha=GAMMA):
    """First `count` fractional parts of n * alpha. An alpha for which
    n * alpha is not finite within them raises."""
    if not math.isfinite(alpha):
        raise ValueError(f"kronecker alpha must be finite, got {alpha!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.mod(np.arange(1, count + 1, dtype=float) * alpha, 1.0)
    if not np.all(np.isfinite(vals)):
        raise ValueError(
            f"kronecker alpha {alpha!r} is too large: k * alpha "
            f"overflows within the first {count} values"
        )
    return vals


def to_direction(x):
    """Angle pi * x of the direction that x in [0, 1] stands for."""
    x = float(x)
    if math.isnan(x) or not 0.0 <= x <= 1.0:
        raise ValueError(f"sequence value must lie in [0, 1], got {x}")
    return math.pi * x


@dataclass(frozen=True)
class SequenceSpec:
    """A parsed sequence id: its kind and that kind's checked parameters."""

    kind: str
    params: tuple = ()


def _checked(convert, ok, rule):
    """A parameter reader: `convert` the text, then refuse a value failing `ok`."""

    def read(text):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"{rule}, got {value!r}")
        return value

    return read


def _parse_alpha(text):
    if text.strip().lower() == "gamma":
        return GAMMA
    alpha = float(text)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {text!r}")
    return alpha


def _schedule_values(count, path):
    vals = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                try:
                    vals.append(float(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(vals) < count:
        raise ValueError(
            f"schedule file {path!r} has {len(vals)} values, need {count}"
        )
    vals = np.asarray(vals[:count])
    if not np.all((vals >= 0.0) & (vals <= 1.0)):  # NaN fails too
        raise ValueError(f"schedule file {path!r} has values outside [0, 1]")
    return vals


_GEOMDECAY_RULE = "geomdecay needs start in [0, 1] and ratio in (0, 1)"

#: Every sequence kind: the reader and the default of each parameter, in
#: the order the id lists them (a default of None makes the parameter
#: required), and the function of the count and the parameters that gives
#: the kind's values.
_KINDS = {
    "kf": ((), kf_points),
    "vdc": (((_checked(int, lambda b: b >= 2, "base must be >= 2"), 2),),
            vdc_points),
    "kronecker": (((_parse_alpha, GAMMA),), kronecker_points),
    "constant": (
        ((_checked(float, lambda v: 0.0 <= v <= 1.0,
                   "constant schedule value must lie in [0, 1]"), 0.5),),
        lambda count, value: np.full(count, value),
    ),
    "geomdecay": (
        ((_checked(float, lambda s: 0.0 <= s <= 1.0, _GEOMDECAY_RULE), 0.9),
         (_checked(float, lambda r: 0.0 < r < 1.0, _GEOMDECAY_RULE), 0.9)),
        lambda count, start, ratio: start * ratio ** np.arange(count, dtype=float),
    ),
    "random": (
        ((_checked(int, lambda s: s >= 0, "seed must be >= 0"), 0),),
        lambda count, seed: np.random.default_rng(seed).random(count),
    ),
    "file": (((str, None),), _schedule_values),
}


def parse_sequence_id(text):
    """Parse and check a sequence id: ``kind[:param[:param]]``.

    Kinds and their parameters (defaults in brackets): ``kf``;
    ``vdc[:base]`` [2], also spelt ``vdcBASE``, with an integer base >= 2;
    ``kronecker[:alpha]`` [gamma], a finite alpha or ``gamma``;
    ``constant[:x]`` [0.5], x in [0, 1]; ``geomdecay[:start[:ratio]]``
    [0.9, 0.9], start in [0, 1] and ratio in (0, 1); ``random[:seed]``
    [0], an integer seed >= 0; ``file:PATH``, whose path is the rest of
    the id. An unknown kind, an extra or empty field or a value out of
    range raises ValueError naming the whole id.
    """
    text = text.strip()
    head, colon, rest = text.partition(":")
    kind = head.lower()
    fields = rest.split(":") if colon else []
    if kind == "file":  # the path may hold colons
        fields = [rest] if colon else []
    elif kind.startswith("vdc") and kind != "vdc":  # vdcBASE spells vdc:BASE
        kind, fields = "vdc", [kind[3:]] + fields
    if kind not in _KINDS:
        raise ValueError(f"unknown sequence id {text!r}")
    params = _KINDS[kind][0]
    try:
        if len(fields) > len(params):
            raise ValueError(f"too many fields for {kind}")
        if "" in fields:
            raise ValueError("empty field")
        values = [read(field) for (read, _), field in zip(params, fields)]
        values += [default for _, default in params[len(fields):]]
        if None in values:
            raise ValueError(f"missing field for {kind}")
    except ValueError as exc:
        raise ValueError(f"sequence id {text!r}: {exc}") from None
    return SequenceSpec(kind, tuple(values))


def sequence_values(spec, count):
    """First `count` values of the sequence that the id `spec` names."""
    spec = parse_sequence_id(spec)
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _KINDS[spec.kind][1](count, *spec.params)
