"""Log-domain scalar arithmetic."""

import math
import random

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftdyn import (
    LC_ZERO,
    LogComplex,
    lc_add,
    lc_conj,
    lc_from_cartesian,
    lc_from_complex,
    lc_mul,
    lc_neg,
    wrap_phase,
)
from shiftdyn.numerics import lc_parse, lc_to_json, opposite_phase

from conftest import assert_lc_equals_complex, lc_to_complex, rand_lc

LC_ONE = LogComplex(0.0, 0.0)


def test_mul_one_times_one():
    assert lc_mul(LC_ONE, LC_ONE) == LC_ONE


def test_mul_two_times_minus_half():
    a = LogComplex(math.log(2.0), 0.0)
    b = LogComplex(-math.log(2.0), math.pi)
    prod = lc_mul(a, b)
    assert prod.logmag == 0.0
    assert prod.phase == math.pi


def test_mul_zero_absorbs():
    x = LogComplex(3.7, 1.2)
    assert lc_mul(LC_ZERO, x) == LC_ZERO
    assert lc_mul(x, LC_ZERO) == LC_ZERO


def test_mul_group_law_exact():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_lc(rng, -200, 200), rand_lc(rng, -200, 200)
        assert lc_mul(a, b).logmag == a.logmag + b.logmag


def test_add_identity():
    x = LogComplex(-2.0, 0.4)
    assert lc_add(x, LC_ZERO) == x
    assert lc_add(LC_ZERO, x) == x


def test_add_exact_cancellation():
    one = LC_ONE
    minus_one = LogComplex(0.0, math.pi)
    assert lc_add(one, minus_one) == LC_ZERO
    rng = random.Random(3)
    for _ in range(200):
        x = rand_lc(rng)
        assert lc_add(x, lc_neg(x)) == LC_ZERO


def test_add_huge_scale_gap():
    # oracle: extended precision on log(e^500 + 1) - 500 = log1p(e^-500)
    correction = mpmath.log1p(mpmath.exp(-500))
    assert correction < mpmath.mpf("1e-200")
    s = lc_add(LogComplex(500.0, 0.0), LC_ONE)
    assert abs(s.logmag - 500.0) <= 1e-12
    assert s.phase == 0.0


def test_add_matches_native_complex():
    rng = random.Random(11)
    for _ in range(500):
        za = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        zb = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if za == 0 or zb == 0 or abs(za + zb) < 1e-6:
            continue
        s = lc_add(lc_from_complex(za), lc_from_complex(zb))
        assert_lc_equals_complex(s, za + zb, 1e-12)


def test_add_matches_native_complex_wide_magnitudes():
    # operands anywhere in |logmag| < 300 still land on native-float ground
    rng = random.Random(12)
    for _ in range(300):
        a = rand_lc(rng, -299.0, 299.0)
        b = rand_lc(rng, -299.0, 299.0)
        za, zb = lc_to_complex(a), lc_to_complex(b)
        if abs(za + zb) < 1e-6 * max(abs(za), abs(zb)):
            continue
        s = lc_add(a, b)
        assert_lc_equals_complex(s, za + zb, 1e-12)


def test_add_commutative():
    rng = random.Random(13)
    for _ in range(200):
        a, b = rand_lc(rng, -250, 250), rand_lc(rng, -250, 250)
        assert lc_add(a, b) == lc_add(b, a)


def test_wrap_idempotent_and_range():
    rng = random.Random(17)
    for _ in range(500):
        phi = rng.uniform(-50.0, 50.0)
        w = wrap_phase(phi)
        assert -math.pi < w <= math.pi
        assert wrap_phase(w) == w


def test_opposite_phase_involution():
    rng = random.Random(19)
    for _ in range(500):
        phi = wrap_phase(rng.uniform(-50.0, 50.0))
        assert opposite_phase(opposite_phase(phi)) == phi


def test_from_cartesian_345():
    a = lc_from_cartesian(3.0, 4.0)
    assert abs(a.logmag - math.log(5.0)) <= 1e-15
    assert abs(a.phase - math.atan2(4.0, 3.0)) <= 1e-15


def test_cartesian_round_trip():
    rng = random.Random(23)
    for _ in range(300):
        x, y = rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)
        if x == 0 and y == 0:
            continue
        z = lc_to_complex(lc_from_cartesian(x, y))
        rx, ry = z.real, z.imag
        scale = math.hypot(x, y)
        assert abs(rx - x) <= 1e-14 * scale
        assert abs(ry - y) <= 1e-14 * scale


def test_zero_round_trips():
    assert lc_from_cartesian(0.0, 0.0) == LC_ZERO
    assert lc_from_complex(0j) == LC_ZERO


def test_conj_involution_and_product_rule():
    rng = random.Random(29)
    for _ in range(200):
        a = rand_lc(rng)
        assert lc_conj(lc_conj(a)) == a
        b = rand_lc(rng)
        lhs = lc_conj(lc_mul(a, b))
        rhs = lc_mul(lc_conj(a), lc_conj(b))
        assert lhs.logmag == rhs.logmag
        assert abs(lhs.phase - rhs.phase) <= 1e-15 or abs(abs(lhs.phase) - math.pi) <= 1e-15


def test_json_round_trip():
    rng = random.Random(31)
    for _ in range(50):
        a = rand_lc(rng)
        assert lc_parse(**lc_to_json(a)) == a
    assert lc_to_json(LC_ZERO) == {"logmag": "-inf", "phase": 0.0}
    assert lc_parse("-inf", 0.0) == LC_ZERO


def test_to_complex_small():
    z = lc_to_complex(lc_from_complex(1.5 - 2.5j))
    assert abs(z - (1.5 - 2.5j)) <= 1e-14 * abs(1.5 - 2.5j)


# Properties against mpmath at 60 digits, far beyond native floats.  U is the unit roundoff
# 2**-53; TWO_PI_GAP is how far the float 2*pi lies from 2*pi, which wrap_phase's exact
# remainder inherits once per turn.
U = 2.0**-53
_DIGITS = 60
with mpmath.workdps(_DIGITS):
    TWO_PI_GAP = float(abs(mpmath.mpf(2.0 * math.pi) - 2 * mpmath.pi))

_PHASES = st.floats(-math.pi, math.pi).map(wrap_phase)
_WIDE_LOGMAGS = st.floats(-1e5, 1e5)


def _mp_value(a: LogComplex):
    return mpmath.exp(mpmath.mpf(a.logmag)) * mpmath.expj(mpmath.mpf(a.phase))


def _phase_distance(phi: float, ref) -> float:
    """|phi - ref| on the circle."""
    d = abs(mpmath.fmod(mpmath.mpf(phi) - ref, 2 * mpmath.pi))
    return float(min(d, 2 * mpmath.pi - d))


@st.composite
def _addends(draw):
    """Two operands at |logmag| up to 1e5: independent, or a near-cancelling pair."""
    a = LogComplex(draw(_WIDE_LOGMAGS), draw(_PHASES))
    kind = draw(st.sampled_from(["independent", "close", "cancelling"]))
    if kind == "independent":
        return a, LogComplex(draw(_WIDE_LOGMAGS), draw(_PHASES))
    if kind == "close":
        return a, LogComplex(a.logmag + draw(st.floats(-40.0, 40.0)), draw(_PHASES))
    # the negated operand, moved by a few ulps in logmag and by up to 1e-9 in phase
    nudge = draw(st.integers(-4, 4)) * math.ulp(a.logmag)
    phase = wrap_phase(opposite_phase(a.phase) + draw(st.just(0.0) | st.floats(-1e-9, 1e-9)))
    return a, LogComplex(a.logmag + nudge, phase)


@settings(max_examples=400, deadline=None, database=None)
@given(pair=_addends())
def test_add_matches_mpmath_at_wide_magnitudes(pair):
    # bound: lc_add rescales by the larger operand, so its rounding is a few U of that operand;
    # relative to the sum that is 16 U / rho, rho = |a + b| / max(|a|, |b|), plus the ulps of the
    # two logmag adds.  An exact zero is returned only when rho is within rounding of 0.
    a, b = pair
    s = lc_add(a, b)
    with mpmath.workdps(_DIGITS):
        za, zb = _mp_value(a), _mp_value(b)
        ref = za + zb
        rho = float(abs(ref) / max(abs(za), abs(zb)))
        if s.is_zero:
            assert rho <= 8 * U
            return
        top = max(abs(a.logmag), abs(b.logmag))
        log_err = float(abs(mpmath.mpf(s.logmag) - mpmath.log(abs(ref))))
        assert log_err <= 2 * math.ulp(top) + 2 * math.ulp(s.logmag) + 16 * U / rho
        assert _phase_distance(s.phase, mpmath.arg(ref)) <= 16 * U / rho + 4 * U
    assert -math.pi < s.phase <= math.pi


@settings(max_examples=400, deadline=None, database=None)
@given(phi=st.floats(-1e6, 1e6) | st.sampled_from([math.pi, -math.pi, 2 * math.pi, 1e6 * math.pi]))
def test_wrap_phase_matches_mpmath_at_wide_phases(phi):
    # bound: the remainder is exact against the float 2*pi, so the error is TWO_PI_GAP per turn,
    # n = |phi| / (2*pi) turns, plus one ulp of pi
    w = wrap_phase(phi)
    assert -math.pi < w <= math.pi
    with mpmath.workdps(_DIGITS):
        turns = abs(mpmath.nint(mpmath.mpf(phi) / (2 * mpmath.pi)))
        assert _phase_distance(w, mpmath.mpf(phi)) <= float(turns + 1) * TWO_PI_GAP + 2 * U * math.pi

