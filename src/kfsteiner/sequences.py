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
    "DirectionAngle",
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
    """First `count` fractional parts of n * alpha."""
    return np.mod(np.arange(1, count + 1, dtype=float) * alpha, 1.0)


@dataclass(frozen=True)
class DirectionAngle:
    """Planar direction given by an angle in [0, pi]."""

    theta: float

    @property
    def vector(self):
        return (math.cos(self.theta), math.sin(self.theta))


def to_direction(x):
    """Map x in [0, 1] to the direction with angle pi * x."""
    x = float(x)
    if math.isnan(x) or not 0.0 <= x <= 1.0:
        raise ValueError(f"sequence value must lie in [0, 1], got {x}")
    return DirectionAngle(math.pi * x)


@dataclass(frozen=True)
class SequenceSpec:
    """Parsed description of a point-sequence generator."""

    kind: str
    base: int = 2
    alpha: float = GAMMA
    value: float = 0.5
    start: float = 0.5
    ratio: float = 0.9
    seed: int = 0
    path: str = ""


def _parse_alpha(text):
    if text.strip().lower() == "gamma":
        return GAMMA
    alpha = float(text)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {text!r}")
    return alpha


def parse_sequence_id(text):
    """Parse a compact generator id.

    Accepted forms: ``kf``, ``vdc`` / ``vdc2`` / ``vdc:3``,
    ``kronecker`` / ``kronecker:0.3`` / ``kronecker:gamma``,
    ``constant:0.4``, ``geomdecay:0.9:0.85``, ``random`` / ``random:7``,
    ``file:PATH``.
    """
    text = text.strip()
    if text.startswith("file:"):
        return SequenceSpec(kind="file", path=text[5:])
    head, _, rest = text.partition(":")
    head = head.lower()
    if head == "kf":
        return SequenceSpec(kind="kf")
    if head.startswith("vdc"):
        suffix = head[3:]
        base = int(rest) if rest else (int(suffix) if suffix else 2)
        return SequenceSpec(kind="vdc", base=base)
    if head == "kronecker":
        alpha = _parse_alpha(rest) if rest else GAMMA
        return SequenceSpec(kind="kronecker", alpha=alpha)
    if head == "constant":
        return SequenceSpec(kind="constant", value=float(rest) if rest else 0.5)
    if head == "geomdecay":
        parts = rest.split(":") if rest else []
        start = float(parts[0]) if len(parts) > 0 and parts[0] else 0.9
        ratio = float(parts[1]) if len(parts) > 1 else 0.9
        return SequenceSpec(kind="geomdecay", start=start, ratio=ratio)
    if head == "random":
        return SequenceSpec(kind="random", seed=int(rest) if rest else 0)
    raise ValueError(f"unknown sequence id {text!r}")


def _load_schedule(path):
    vals = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                vals.append(float(line))
    return np.asarray(vals)


def sequence_values(spec, count):
    """First `count` values of the generator described by `spec`.

    `spec` may be a SequenceSpec or a compact id string.
    """
    if isinstance(spec, str):
        spec = parse_sequence_id(spec)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if spec.kind == "kf":
        return kf_points(count)
    if spec.kind == "vdc":
        return vdc_points(count, base=spec.base)
    if spec.kind == "kronecker":
        with np.errstate(over="ignore", invalid="ignore"):
            vals = kronecker_points(count, alpha=spec.alpha)
        if not np.all(np.isfinite(vals)):  # k * alpha overflowed
            raise ValueError(
                f"kronecker alpha {spec.alpha!r} is too large: k * alpha "
                f"overflows within the first {count} values"
            )
        return vals
    if spec.kind == "constant":
        if not 0.0 <= spec.value <= 1.0:
            raise ValueError("constant schedule value must lie in [0, 1]")
        return np.full(count, float(spec.value))
    if spec.kind == "geomdecay":
        if not 0.0 <= spec.start <= 1.0 or not 0.0 < spec.ratio < 1.0:
            raise ValueError("geomdecay needs start in [0, 1] and ratio in (0, 1)")
        return spec.start * spec.ratio ** np.arange(count, dtype=float)
    if spec.kind == "random":
        return np.random.default_rng(spec.seed).random(count)
    if spec.kind == "file":
        vals = _load_schedule(spec.path)
        if len(vals) < count:
            raise ValueError(
                f"schedule file {spec.path!r} has {len(vals)} values, need {count}"
            )
        vals = vals[:count]
        if not np.all((vals >= 0.0) & (vals <= 1.0)):  # NaN fails too
            raise ValueError(f"schedule file {spec.path!r} has values outside [0, 1]")
        return vals
    raise ValueError(f"unknown sequence kind {spec.kind!r}")
