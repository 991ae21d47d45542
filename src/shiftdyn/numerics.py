"""Log-domain complex scalars.

Coefficients, weights and eigenvalue powers in this package span hundreds of
orders of magnitude (weight products grow like exp(c*m^2)), so scalars are
stored as a (log-magnitude, phase) pair instead of a native complex.  Exact
zero is the distinguished state logmag = -inf with phase 0; shift
annihilation must produce this state, never underflow noise.

Phases are kept in (-pi, pi].  Negation adds pi through the same canonical
wrap used everywhere, which makes x + (-x) cancel to the exact zero state:
`lc_add` recognizes operands with equal log-magnitude and canonically
opposite phases before any trigonometry can smear the cancellation.

`lc_parse`, `real_parse` and `int_parse` check the scalars, reals and
integers read from files; `LogComplex` itself checks nothing, as it sits
on every hot path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ValidationError

_TWO_PI = 2.0 * math.pi
_PI = math.pi

NEG_INF = float("-inf")


def wrap_phase(phi: float) -> float:
    """Wrap a phase to (-pi, pi].  Idempotent; IEEE remainder is exact."""
    r = math.remainder(phi, _TWO_PI)
    if r <= -_PI:
        r = _PI
    return r if r != 0.0 else 0.0


def opposite_phase(phi: float) -> float:
    """The canonical phase of the negated value; an involution bitwise."""
    return wrap_phase(phi + _PI)


@dataclass(frozen=True, slots=True)
class LogComplex:
    """A complex scalar as (natural-log magnitude, phase in (-pi, pi])."""

    logmag: float
    phase: float = 0.0

    @property
    def is_zero(self) -> bool:
        return self.logmag == NEG_INF


LC_ZERO = LogComplex(NEG_INF, 0.0)


def lc_mul(a: LogComplex, b: LogComplex) -> LogComplex:
    """Product: log-magnitudes add, phases add and wrap; zero absorbs."""
    if a.is_zero or b.is_zero:
        return LC_ZERO
    return LogComplex(a.logmag + b.logmag, wrap_phase(a.phase + b.phase))


def lc_add(a: LogComplex, b: LogComplex) -> LogComplex:
    """Sum, computed by factoring out the larger magnitude.

    The rescaled residual sum has magnitude at most 2, so nothing can
    overflow regardless of the operands' log-magnitudes.  Two fast paths
    keep structural identities exact: equal phases add real magnitudes
    (no trigonometry), and exact anti-pairs collapse to the zero state.
    """
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if b.logmag > a.logmag:
        a, b = b, a
    if a.phase == b.phase:
        return LogComplex(a.logmag + math.log1p(math.exp(b.logmag - a.logmag)), a.phase)
    if a.logmag == b.logmag and (
        b.phase == opposite_phase(a.phase) or a.phase == opposite_phase(b.phase)
    ):
        return LC_ZERO
    scale = math.exp(b.logmag - a.logmag)
    re = math.cos(a.phase) + scale * math.cos(b.phase)
    im = math.sin(a.phase) + scale * math.sin(b.phase)
    r = math.hypot(re, im)
    if r == 0.0:
        return LC_ZERO
    return LogComplex(a.logmag + math.log(r), wrap_phase(math.atan2(im, re)))


def lc_neg(a: LogComplex) -> LogComplex:
    if a.is_zero:
        return LC_ZERO
    return LogComplex(a.logmag, opposite_phase(a.phase))


def lc_conj(a: LogComplex) -> LogComplex:
    if a.is_zero:
        return LC_ZERO
    return LogComplex(a.logmag, wrap_phase(-a.phase))


def lc_from_cartesian(re: float, im: float) -> LogComplex:
    if re == 0.0 and im == 0.0:
        return LC_ZERO
    return LogComplex(math.log(math.hypot(re, im)), wrap_phase(math.atan2(im, re)))


def lc_from_complex(z: complex) -> LogComplex:
    return lc_from_cartesian(z.real, z.imag)


def lc_to_json(a: LogComplex) -> dict:
    return {"logmag": "-inf" if a.is_zero else a.logmag, "phase": a.phase}


def lc_parse(logmag, phase) -> LogComplex:
    """A scalar read from a file: logmag a number below +inf or the string "-inf" (zero), phase finite."""
    logmag = NEG_INF if logmag == "-inf" else real_parse(logmag, "logmag")
    phase = real_parse(phase, "phase")
    if not logmag < math.inf:
        raise ValidationError(f"logmag must be a number below +inf, got {logmag}")
    if not math.isfinite(phase):
        raise ValidationError(f"phase must be finite, got {phase}")
    return LC_ZERO if logmag == NEG_INF else LogComplex(logmag, wrap_phase(phase))


def real_parse(value, name: str) -> float:
    """A real number read from a file: a JSON int or float (the rule of table weights), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def int_parse(value, name: str) -> int:
    """An integer read from a file: an int, or a float of integral value.

    Its magnitude stays below 2**53, where every integer is still a float.
    """
    n = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(n, bool) or not isinstance(n, int) or abs(n) >= 2**53:
        raise ValidationError(f"{name} must be an integer of magnitude below 2**53, got {value!r}")
    return n


def log_add_exp(x: float, y: float) -> float:
    """log(e^x + e^y) for log-domain positive reals; -inf means zero."""
    if x == NEG_INF:
        return y
    if y == NEG_INF:
        return x
    if y > x:
        x, y = y, x
    return x + math.log1p(math.exp(y - x))


def log_sum_exp(values) -> float:
    """log sum of e^v over an iterable, tolerating -inf entries."""
    acc = NEG_INF
    for v in values:
        acc = log_add_exp(acc, v)
    return acc
