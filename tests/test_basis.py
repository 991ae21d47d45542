"""Basis evaluation, synthesis and coefficient-space inner products."""

import math
import random

import mpmath
import numpy as np
import pytest

from shiftdyn import (
    BargmannBasis,
    CoeffVector,
    LC_ZERO,
    LogComplex,
    OffsetMismatch,
    OverflowNotRepresentable,
    ThetaBasis,
    ThetaParams,
    ValidationError,
    bargmann_basis_eval,
    coeff_add,
    coeff_inner,
    coeff_norm_log,
    coeff_scale,
    lc_add,
    lc_conj,
    lc_from_complex,
    lc_mul,
    lc_to_complex,
    synth,
    theta_basis_eval,
    wrap_phase,
)

from conftest import assert_lc_equals_complex, rand_coeff_vector, rel_gap_log


def test_bargmann_basis_low_orders():
    assert bargmann_basis_eval(0, 3.7 + 1j) == LogComplex(0.0, 0.0)
    v = bargmann_basis_eval(2, 1.0 + 0.0j)
    assert abs(v.logmag - (-0.5 * math.log(2.0))) <= 1e-14
    assert v.phase == 0.0


def test_bargmann_basis_large_order_no_overflow():
    # oracle: extended-precision evaluation of z^n/sqrt(n!)
    expected = float(mpmath.log(mpmath.mpf(10) ** 200 / mpmath.sqrt(mpmath.factorial(200))))
    v = bargmann_basis_eval(200, 10.0 + 0.0j)
    assert math.isfinite(v.logmag)
    assert abs(v.logmag - expected) <= 1e-10 * abs(expected)


def test_bargmann_basis_at_zero():
    assert bargmann_basis_eval(0, 0j) == LogComplex(0.0, 0.0)
    assert bargmann_basis_eval(3, 0j) == LC_ZERO


def test_bargmann_basis_matches_native():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(0, 12)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if z == 0:
            continue
        expected = z**n / math.sqrt(math.factorial(n))
        assert_lc_equals_complex(bargmann_basis_eval(n, z), expected, 1e-11)


def test_theta_basis_at_origin():
    for nu in (1.0, math.pi, 6.0):
        v = theta_basis_eval(0, 0j, ThetaParams(nu=nu))
        assert abs(v.logmag - 0.25 * math.log(2 * nu / math.pi)) <= 1e-14
        assert v.phase == 0.0


def test_theta_basis_against_extended_precision():
    # direct mpmath evaluation of the closed form, small m so exp() fits
    for nu, alpha in ((1.0, 0.0), (math.pi, 0.3), (2.5, -0.4)):
        params = ThetaParams(nu=nu, alpha=alpha)
        for m in range(0, 4):
            for z in (0.2 + 0.1j, -0.7 + 0.4j, 0.9 - 0.8j):
                zm = mpmath.mpc(z.real, z.imag)
                ma = m + alpha
                expected = (
                    (2 * mpmath.mpf(nu) / mpmath.pi) ** mpmath.mpf("0.25")
                    * mpmath.exp(mpmath.mpf(nu) / 2 * zm**2)
                    * mpmath.exp(
                        -(mpmath.pi**2) / nu * ma**2 + 2j * mpmath.pi * ma * zm
                    )
                )
                got = lc_to_complex(theta_basis_eval(m, z, params))
                want = complex(expected.real, expected.imag)
                assert abs(got - want) <= 1e-11 * abs(want)


def test_theta_basis_quasi_periodicity():
    # psi(z+1) = e^{2 i pi alpha} e^{nu (z + 1/2)} psi(z)
    grid = [complex(x, y) for x in np.linspace(-1, 1, 5) for y in np.linspace(-1, 1, 5)]
    for nu in (1.0, math.pi):
        for alpha in (0.0, 0.3):
            params = ThetaParams(nu=nu, alpha=alpha)
            for m in range(6):
                for z in grid:
                    lhs = theta_basis_eval(m, z + 1, params)
                    factor = lc_mul(
                        lc_from_complex(complex(math.cos(2 * math.pi * alpha),
                                                math.sin(2 * math.pi * alpha))),
                        LogComplex(nu * (z.real + 0.5), nu * z.imag),
                    )
                    rhs = lc_mul(factor, theta_basis_eval(m, z, params))
                    assert rel_gap_log(lhs, rhs) <= math.log(1e-10)


def test_theta_basis_consecutive_ratio():
    # e_{m+1}/e_m = exp(-(pi^2/nu)(2(m+alpha)+1) + 2 i pi z)
    rng = random.Random(9)
    params = ThetaParams(nu=2.0, alpha=0.25)
    for _ in range(50):
        m = rng.randint(0, 8)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = theta_basis_eval(m + 1, z, params)
        ratio = LogComplex(
            -(math.pi**2 / params.nu) * (2 * (m + params.alpha) + 1) - 2 * math.pi * z.imag,
            wrap_phase(2 * math.pi * z.real),
        )
        rhs = lc_mul(ratio, theta_basis_eval(m, z, params))
        assert rel_gap_log(lhs, rhs) <= math.log(1e-10)


def test_synth_unit_and_empty():
    basis = BargmannBasis()
    v = CoeffVector.unit(3, 0)
    z = 1.2 - 0.4j
    assert synth(v, z, basis) == bargmann_basis_eval(3, z)
    assert synth(CoeffVector(0, {}), z, basis) == LC_ZERO


def test_synth_one_plus_z_at_two():
    v = CoeffVector(0, {0: LogComplex(0.0, 0.0), 1: LogComplex(0.0, 0.0)})
    out = synth(v, 2.0 + 0j, BargmannBasis())
    assert_lc_equals_complex(out, 3.0 + 0j, 1e-13)


def test_synth_linear():
    rng = random.Random(33)
    basis = ThetaBasis(ThetaParams(nu=math.pi, alpha=0.1))
    for _ in range(20):
        u = rand_coeff_vector(rng, 0, 5, 8)
        v = rand_coeff_vector(rng, 0, 5, 8)
        a, b = lc_from_complex(0.7 - 0.2j), lc_from_complex(-1.1 + 0.5j)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = synth(coeff_add(coeff_scale(u, a), coeff_scale(v, b)), z, basis)
        rhs = lc_add(lc_mul(a, synth(u, z, basis)), lc_mul(b, synth(v, z, basis)))
        if lhs.is_zero and rhs.is_zero:
            continue
        assert rel_gap_log(lhs, rhs) <= math.log(1e-11)


def test_inner_orthonormal_coordinates():
    for k in range(4):
        for j in range(4):
            ek, ej = CoeffVector.unit(k, 0), CoeffVector.unit(j, 0)
            got = coeff_inner(ek, ej)
            if k == j:
                assert got == LogComplex(0.0, 0.0)
            else:
                assert got == LC_ZERO


def test_inner_positive_definite():
    rng = random.Random(37)
    for _ in range(100):
        u = rand_coeff_vector(rng, 1, 8, 30)
        q = coeff_inner(u, u)
        assert q.phase == 0.0
        assert math.isfinite(q.logmag)
    assert coeff_inner(CoeffVector(0, {}), CoeffVector(0, {})) == LC_ZERO


def test_norm_has_the_bits_of_the_inner_product():
    rng = random.Random(39)
    for _ in range(300):
        u = rand_coeff_vector(rng, 0, 30, 80)
        for m in rng.sample(sorted(u.entries), min(3, len(u.entries))):
            u.entries[m] = LogComplex(rng.uniform(-900.0, 900.0), rng.choice((math.pi, 0.0)))
        assert coeff_norm_log(u) == coeff_inner(u, u).logmag / 2.0
    assert coeff_norm_log(CoeffVector(0, {})) == float("-inf")
    for logmags in ((1e308, 1e308), (1e308, 1.0)):
        u = CoeffVector(0, {m: LogComplex(x) for m, x in enumerate(logmags)})
        with pytest.raises(OverflowNotRepresentable):
            coeff_norm_log(u)


def test_inner_conjugate_symmetry():
    rng = random.Random(41)
    for _ in range(100):
        u = rand_coeff_vector(rng, 0, 6, 20)
        v = rand_coeff_vector(rng, 0, 6, 20)
        a = coeff_inner(u, v)
        b = lc_conj(coeff_inner(v, u))
        if a.is_zero and b.is_zero:
            continue
        assert a.logmag == b.logmag
        assert abs(a.phase - b.phase) <= 1e-12


def test_inner_cauchy_schwarz():
    rng = random.Random(43)
    for _ in range(200):
        u = rand_coeff_vector(rng, 0, 8, 25)
        v = rand_coeff_vector(rng, 0, 8, 25)
        ip = coeff_inner(u, v)
        if ip.is_zero:
            continue
        assert ip.logmag <= coeff_norm_log(u) + coeff_norm_log(v) + 1e-12


def test_inner_offset_mismatch():
    with pytest.raises(OffsetMismatch):
        coeff_inner(CoeffVector.unit(2, 0), CoeffVector.unit(2, 1))


def test_vector_invariants():
    with pytest.raises(ValidationError):
        CoeffVector(2, {1: LogComplex(0.0, 0.0)})
    with pytest.raises(ValidationError):
        CoeffVector(0, {1: LC_ZERO})
    v = CoeffVector.from_entries(0, {1: LC_ZERO, 2: LogComplex(0.0, 0.0)})
    assert v.support() == [2]


def test_vector_json_round_trip():
    rng = random.Random(47)
    for _ in range(20):
        v = rand_coeff_vector(rng, 1, 6, 15)
        v2 = CoeffVector.from_json_dict(v.to_json_dict())
        assert v2.offset_p == v.offset_p
        assert v2.entries == v.entries


def test_quadrature_cross_check_bargmann():
    # Gaussian-weighted monomial integrals in polar coordinates: the
    # coefficient inner product matches <e_0,e_1> = 0 and equal norms.
    r = np.linspace(0, 8, 4000)
    theta = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    zz = rr * np.exp(1j * tt)
    weight = np.exp(-rr * rr) * rr
    e0 = np.ones_like(zz)
    e1 = zz
    dr = r[1] - r[0]
    dt = theta[1] - theta[0]
    inner01 = np.sum(e0 * np.conj(e1) * weight) * dr * dt
    n0 = np.sum(np.abs(e0) ** 2 * weight) * dr * dt
    n1 = np.sum(np.abs(e1) ** 2 * weight) * dr * dt
    assert abs(inner01) <= 1e-6
    assert abs(n0 - n1) <= 1e-4 * n0
