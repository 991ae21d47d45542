"""The benchmark's closed-form oracle against independently known values."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from oracle import LN2, AxisSeries, Family, block_cum, block_signs, block_sign, wrap_diff


def test_bargmann_raw_partials_are_half_log_gamma():
    vals, err = Family({"family": "bargmann_raw"}).partials(1000)
    for n in range(1, 1001):
        assert abs(vals[n - 1] - 0.5 * math.lgamma(n + 2)) <= 1e-12 * max(1.0, vals[n - 1])
    assert np.all(err > 0)


@pytest.mark.parametrize("nu,alpha,p", [(math.pi, 0.0, 0), (math.pi, 0.0, 3), (2.5, 0.3, 1), (4.0, 0.1, 10)])
def test_theta_composite_matches_its_definition(nu, alpha, p):
    fam = Family({"family": "theta_composite", "nu": nu, "alpha": alpha, "p": p})

    def raw(m):  # log w(m) = pi/nu + 2 alpha + (2 pi/nu) m
        return mp.pi / nu + 2 * mp.mpf(alpha) + 2 * mp.pi / nu * m

    for m in (p + 1, p + 2, p + 17, p + 1000):
        want = raw(m - 1) + 2 * mp.fsum(raw(m - 1 - j) for j in range(1, p + 1))
        assert abs(fam.log_weight(m) - float(want)) <= 1e-13 * abs(float(want))
        assert abs(fam.log_weight_mp(m) - want) <= 1e-13 * abs(want)
    if alpha == 0.0:  # the form quoted for alpha = 0
        m = p + 5
        quoted = (2 * p + 1) * math.pi / nu + 2 * math.pi / nu * ((2 * p + 1) * (m - 1) - p * (p + 1))
        assert abs(fam.log_weight(m) - quoted) <= 1e-12 * quoted


@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_bargmann_composite_matches_exact_factorials(p):
    fam = Family({"family": "bargmann_composite", "p": p})
    for n in (p + 1, p + 2, p + 9, 60):
        # a(n)^2 = n * ((n-1)! / (n-1-p)!)^2, an exact integer
        ratio = math.factorial(n - 1) // math.factorial(n - 1 - p)
        want = 0.5 * math.log(n * ratio * ratio)
        assert abs(fam.log_weight(n) - want) <= 1e-14 * max(1.0, want)
        lg = 0.5 * math.log(n) + math.lgamma(n) - math.lgamma(n - p)
        assert abs(fam.log_weight(n) - lg) <= 1e-12 * max(1.0, want)


def test_block_pattern_runs():
    assert [block_sign(i) for i in range(1, 11)] == [1, -1, -1, 1, 1, 1, -1, -1, -1, -1]
    signs = block_signs(5000)
    assert list(signs[:10]) == [block_sign(i) for i in range(1, 11)]
    assert np.array_equal(block_signs(5000, "varpi"), -signs)
    cum = np.cumsum(signs)
    assert all(block_cum(i) == cum[i - 1] for i in range(1, 5001, 37))
    # after run k the sum is (k+1)/2 for odd k and -k/2 for even k
    for k in range(1, 60):
        end = k * (k + 1) // 2
        assert block_cum(end) == ((k + 1) // 2 if k % 2 else -(k // 2))


def test_block_partials_are_exact_multiples_of_ln2():
    omega, _ = Family({"family": "block_pattern", "role": "omega"}).partials(3000)
    varpi, _ = Family({"family": "block_pattern", "role": "varpi"}).partials(3000)
    assert np.all(omega + varpi == 0.0)
    assert all(omega[i - 1] == block_cum(i) * LN2 for i in range(1, 3001, 13))


@pytest.mark.parametrize("spec", [
    {"family": "theta_composite", "nu": 3.0, "alpha": 0.2, "p": 2},
    {"family": "bargmann_composite", "p": 2},
    {"family": "bargmann_raw"},
    {"family": "block_pattern", "role": "varpi"},
])
def test_spans_and_partials_agree_with_termwise_sums(spec):
    fam = Family(spec)
    rng = random.Random(3)
    start = fam.scan_start
    for _ in range(5):
        lo = rng.randint(start, 300)
        hi = lo + rng.randint(0, 200)
        want = mp.fsum(fam.log_weight_mp(j) for j in range(lo, hi + 1))
        assert abs(fam.span_mp(lo, hi) - want) <= mp.mpf(10) ** -10 * max(1, abs(want))
        assert fam.span_err(lo, hi) > 0 or fam.family == "block_pattern"
    vals, err = fam.partials(400)
    for k in (0, 1, 57, 399):
        want = float(fam.span_mp(start, start + k))
        assert abs(vals[k] - want) <= err[k]


def test_axis_series_sums_to_exponential():
    # bargmann p=0 weights sqrt(n): sum_n r^(2n) / n! = e^(r^2)
    for r in (0.5, 2.0, 4.0):
        with mp.workdps(AxisSeries.DPS):
            ax = AxisSeries(Family({"family": "bargmann_composite", "p": 0}), mp.log(r), mp.mpf(0.7))
            assert abs(ax.full_sq() / mp.exp(r * r) - 1) < mp.mpf(10) ** -90
            assert ax.head_sq(0) == 1
            assert abs(ax.head_sq(3) - (1 + r**2 + r**4 / 2 + r**6 / 6)) < 1e-12
        assert ax.phase(3) == pytest.approx(2.1)


def test_wrap_diff_is_circular():
    assert wrap_diff(math.pi - 1e-3, -math.pi + 1e-3) == pytest.approx(2e-3)
    assert wrap_diff(0.25, 0.25 + 4 * math.pi) < 1e-15
