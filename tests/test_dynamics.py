"""Orbits, eigenvector series, periodic points, hypercyclic vectors."""

import cmath
import copy
import math
import random

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftdyn import (
    BargmannRawWeights,
    CoeffVector,
    LogComplex,
    OverflowNotRepresentable,
    QTooSmall,
    ScheduleOverflow,
    ShiftOperator,
    TableRangeError,
    TableWeights,
    TailNotCertifiable,
    ThetaParams,
    ValidationError,
    WeightSequence,
    apply_power,
    bargmann_backward_shift,
    bargmann_basis_eval,
    coeff_norm_log,
    default_tensor_shift,
    eigenvector_build,
    hypercyclic_vector_build,
    periodic_from_target,
    periodic_point_from_eigen,
    rank_one_defect_log,
    rank_one_log_norms,
    rank_one_residual_log,
    right_inverse,
    salas_scan,
    tensor_salas_scan,
    theta_backward_shift,
    tensor_operator,
    theta_basis_eval,
)

import shiftdyn.dynamics as dynamics
from shiftdyn.basis import norm_log
from shiftdyn.dynamics import EIGEN_SERIES_STEPS
from shiftdyn.shift_ops import nilpotence_index

from conftest import (
    NEG_INF,
    band_residual_log,
    coeff_sub,
    hypercyclic_reference,
    numeric_residual_log,
    orbit,
    periodic_reference,
    rand_coeff_vector,
    rand_tensor_vector,
    replay_reference,
    tensor_of,
)

U = 2.0**-53


def test_orbit_unit_seed_annihilation():
    op = bargmann_backward_shift(0)
    steps = orbit(op, CoeffVector.unit((5,), (0,)), 8)
    norms = [coeff_norm_log(v) for v in steps]
    assert all(math.isfinite(v) for v in norms[:6])
    assert all(v.is_zero for v in steps[6:])  # annihilated exactly at step 6, and absorbed
    assert norms[6] == NEG_INF and norms[8] == NEG_INF


def test_orbit_retraces_right_inverse_seed():
    op = theta_backward_shift(math.pi, 0.0, 0)
    s = right_inverse(op)
    seed = apply_power(s, CoeffVector.unit((0,), (0,)), 10)
    steps = orbit(op, seed, 12)
    assert not steps[10].is_zero and steps[11].is_zero
    norms = [coeff_norm_log(v) for v in steps]
    assert all(norms[k + 1] > norms[k] for k in range(10))  # climbing back up
    assert norms[10] == 0.0  # back to the unit vector exactly


def test_eigenvector_zero_eigenvalues_is_corner():
    op = default_tensor_shift()
    a, b, spec = eigenvector_build(op, 0.0, 0.0, -60.0)
    g = tensor_of(a, b)
    assert g.entries == {(0, 0): LogComplex(0.0, 0.0)}
    assert spec.tail_log_bound == NEG_INF
    assert band_residual_log(g, 0.0, 0.0) == NEG_INF


def test_eigenvector_first_coefficient():
    op = default_tensor_shift()
    lam, mu = 0.4 + 0.3j, -0.2 + 0.6j
    a, b, _ = eigenvector_build(op, lam, mu, -60.0)
    g = tensor_of(a, b)
    # entry (1,1) = lam*mu / (a1(1) * a2(1)); log weights are 1 and 0
    expect_logmag = math.log(abs(lam * mu)) - 1.0
    got = g.entries[(1, 1)]
    assert abs(got.logmag - expect_logmag) <= 1e-12
    assert abs(got.phase - cmath.phase(lam * mu)) <= 1e-12
    assert g.entries[(0, 0)] == LogComplex(0.0, 0.0)


def test_eigenvector_certified_tail_and_residual():
    op = default_tensor_shift()
    rng = random.Random(301)
    for _ in range(8):
        lam = cmath.rect(rng.uniform(0.05, 1.4), rng.uniform(-math.pi, math.pi))
        mu = cmath.rect(rng.uniform(0.05, 1.4), rng.uniform(-math.pi, math.pi))
        a, b, spec = eigenvector_build(op, lam, mu, -60.0)
        g = tensor_of(a, b)
        assert spec.tail_log_bound <= -60.0
        rel = band_residual_log(g, lam, mu) - coeff_norm_log(g)
        assert rel <= -58.0  # certified band is below the tail tolerance
        # independent cross-check: generic subtraction, float-noise floor
        assert numeric_residual_log(op, g, lam, mu) - coeff_norm_log(g) <= -20.0


def test_eigenvector_coefficients_against_extended_precision():
    import mpmath

    op = default_tensor_shift()
    lam, mu = 0.7 - 0.4j, -0.35 + 0.55j
    a, b, _ = eigenvector_build(op, lam, mu, -60.0)
    g = tensor_of(a, b)
    lam_m = mpmath.mpc(lam.real, lam.imag)
    mu_m = mpmath.mpc(mu.real, mu.imag)
    for m in range(0, 5):
        for n in range(0, 5):
            denom = mpmath.mpf(1)
            for j in range(1, m + 1):
                denom *= mpmath.exp(op.weights[0].log_weight(j))
            for j in range(1, n + 1):
                denom *= mpmath.exp(op.weights[1].log_weight(j))
            want = lam_m**m * mu_m**n / denom
            got = g.entries[(m, n)]
            assert abs(got.logmag - float(mpmath.log(abs(want)))) <= 1e-11 * max(
                1.0, abs(got.logmag)
            )
            phase_gap = abs(math.remainder(got.phase - float(mpmath.arg(want)), 2 * math.pi))
            assert phase_gap <= 1e-11


def test_certified_band_residual_matches_numeric_at_coarse_tail():
    # with a coarse tail the true residual sits far above float noise, so
    # the band evaluator and the independent entrywise subtraction must agree
    op = default_tensor_shift()
    for lam, mu in ((0.6 + 0.2j, 0.5 - 0.3j), (1.1 + 0.0j, 0.4 + 0.9j)):
        a, b, _ = eigenvector_build(op, lam, mu, -18.0)
        g = tensor_of(a, b)
        certified = band_residual_log(g, lam, mu)
        numeric = numeric_residual_log(op, g, lam, mu)
        assert abs(certified - numeric) <= 1e-6 * max(1.0, abs(numeric))


def test_eigenvector_nonzero_offsets():
    rng = random.Random(311)
    for p in (1, 2):
        op = default_tensor_shift(p=p)
        lam = cmath.rect(rng.uniform(0.2, 1.2), rng.uniform(-math.pi, math.pi))
        mu = cmath.rect(rng.uniform(0.2, 1.2), rng.uniform(-math.pi, math.pi))
        a, b, spec = eigenvector_build(op, lam, mu, -50.0)
        g = tensor_of(a, b)
        assert g.entries[(p, p)] == LogComplex(0.0, 0.0)
        assert min(m for m, _ in g.entries) == p
        assert min(n for _, n in g.entries) == p
        rel = band_residual_log(g, lam, mu) - coeff_norm_log(g)
        assert rel <= -48.0
        assert spec.tail_log_bound <= -50.0


def test_eigenvector_single_zero_axis():
    op = default_tensor_shift()
    a, b, spec = eigenvector_build(op, 0.0, 0.5 + 0.1j, -50.0)
    g = tensor_of(a, b)
    assert all(m == 0 for (m, _n) in g.entries)
    assert spec.trunc_m == 0
    assert band_residual_log(g, 0.0, 0.5 + 0.1j) == NEG_INF


def _allowance(w, value: float, steps: int = 0) -> float:
    """Rounding of a dense log-norm: the log-sum-exp's n*u, plus a few ulps of
    the log and of the entries that carry it, each rounded once per step."""
    if w.is_zero:
        return 0.0
    top = max(c.logmag for c in w.entries.values())
    big = max(abs(c.logmag) for c in w.entries.values() if c.logmag > top - 40.0)
    return 2 * len(w.entries) * U + 8 * U * (abs(value) + (steps + 1) * big)


def _agree(dense: float, factored: float, tol: float) -> bool:
    return dense == factored or abs(dense - factored) <= tol


def test_factored_norm_band_and_orbit_match_the_dense_vector():
    rng = random.Random(401)
    pairs = [
        (p, cmath.rect(rng.uniform(0.05, 3.0), rng.uniform(-math.pi, math.pi)),
         cmath.rect(rng.uniform(0.05, 3.0), rng.uniform(-math.pi, math.pi)))
        for p in (0, 1, 2) for _ in range(2)
    ]
    pairs.append((1, 0.0, 0.7 + 0.2j))  # one zero eigenvalue: a frozen axis
    for p, lam, mu in pairs:
        op = default_tensor_shift(p=p)
        a, b, _ = eigenvector_build(op, lam, mu, -60.0)
        g = tensor_of(a, b)
        dense = coeff_norm_log(g)
        assert _agree(dense, coeff_norm_log(a) + coeff_norm_log(b), _allowance(g, dense))
        for q in range(1, 5):
            dense = band_residual_log(g, lam, mu, q)
            assert _agree(dense, rank_one_residual_log(a, b, lam, mu, q), _allowance(g, dense))
        for k, (w, factored) in enumerate(zip(orbit(op, g, 8), rank_one_log_norms(a, b, lam, mu, 8))):
            dense = coeff_norm_log(w)
            assert _agree(dense, factored, _allowance(w, dense, k))


def test_only_the_dominant_axis_grows():
    # |lambda| 0.01 certifies the theta axis at once; |mu| 4 needs a long Bargmann axis
    a, b, spec = eigenvector_build(default_tensor_shift(p=0), 0.01, 4.0, -60.0)
    g = tensor_of(a, b)
    assert spec.trunc_m <= 10 and spec.trunc_n >= 100
    assert len(g.entries) == (spec.trunc_m + 1) * (spec.trunc_n + 1)
    assert [len(f.entries) for f in (a, b)] == [spec.trunc_m + 1, spec.trunc_n + 1]


def test_large_eigenvalues_certify():
    a, b, spec = eigenvector_build(default_tensor_shift(), 50.0, 50.0, -60.0)
    g = tensor_of(a, b)
    assert spec.tail_log_bound <= -60.0 - math.log(2500.0)
    assert len(g.entries) == (spec.trunc_m + 1) * (spec.trunc_n + 1)


def test_entry_budget_is_a_numeric_failure():
    with pytest.raises(TailNotCertifiable, match="entries"):
        eigenvector_build(default_tensor_shift(), 100.0, 100.0, -60.0)


def test_no_series_row_is_zero_for_nonzero_eigenvalues():
    rng = random.Random(409)
    for p in (0, 1, 2):
        op = default_tensor_shift(p=p)
        for _ in range(3):
            lam = cmath.rect(rng.uniform(0.01, 5.0), rng.uniform(-math.pi, math.pi))
            mu = cmath.rect(rng.uniform(0.01, 5.0), rng.uniform(-math.pi, math.pi))
            a, b, _ = eigenvector_build(op, lam, mu, -60.0)
            assert NEG_INF not in rank_one_log_norms(a, b, lam, mu, EIGEN_SERIES_STEPS)
        for q in range(2, 17):
            a, b, spec = periodic_point_from_eigen(op, q, -40.0)
            assert NEG_INF not in rank_one_log_norms(a, b, spec.lam, spec.mu, 2 * q)


def test_eigenvector_rejects_non_backward():
    op = right_inverse(default_tensor_shift())
    with pytest.raises(ValidationError):
        eigenvector_build(op, 0.5, 0.5, -40.0)


def test_eigenvector_flat_weights_not_certifiable():
    flat = ShiftOperator((TableWeights.from_weights([1.0] * 200),))
    op = tensor_operator(flat, ShiftOperator((TableWeights.from_weights([1.0] * 200),)))
    with pytest.raises(TailNotCertifiable):
        eigenvector_build(op, 0.9, 0.9, -40.0)


def test_periodic_point_q4():
    op = default_tensor_shift()
    a, b, spec = periodic_point_from_eigen(op, 4, -60.0)
    g = tensor_of(a, b)
    lam = cmath.exp(1j * math.pi / 4)
    gnorm = coeff_norm_log(g)
    assert band_residual_log(g, lam, lam, q=4) - gnorm <= -55.0
    # genuinely period 4: proper divisors leave a large defect
    assert rank_one_defect_log(a, b, spec.lam, spec.mu, 1) - gnorm >= -5.0
    assert rank_one_defect_log(a, b, spec.lam, spec.mu, 2) - gnorm >= -5.0


def test_periodic_defect_per_axis_matches_the_dense_subtraction():
    for p in (0, 1, 2):
        op = default_tensor_shift(p=p)
        for q in (2, 3, 5, 8, 12, 16):
            a, b, spec = periodic_point_from_eigen(op, q, -40.0)
            g = tensor_of(a, b)
            for k in sorted({1, q - 1}):
                dense = numeric_residual_log(op, g, 1, 1, k)
                assert abs(rank_one_defect_log(a, b, spec.lam, spec.mu, k) - dense) <= 1e-12


def test_periodic_defect_bottoms_out_at_its_rounding_floor():
    op = default_tensor_shift()
    a, b, spec = periodic_point_from_eigen(op, 4, -60.0)
    gnorm = coeff_norm_log(tensor_of(a, b))
    # nothing cancels: at k = q only the band (below e^-55) and the rounding of arg(lambda mu),
    # q * (a few ulps) in |(lambda mu)^q - 1|, remain; a difference of squares stopped near e^-16
    floor = rank_one_defect_log(a, b, spec.lam, spec.mu, 4) - gnorm
    assert -40.0 < floor < -30.0
    zero = CoeffVector((0,))
    assert rank_one_defect_log(zero, zero, spec.lam, spec.mu, 4) == NEG_INF


@pytest.mark.parametrize("q", [16, 50, 100, 300])
def test_periodic_defect_matches_mpmath_at_one_step(q):
    # T g - g = (e^(2 pi i/q) - 1) g up to the band, so the relative defect is log(2 sin(pi/q))
    a, b, spec = periodic_point_from_eigen(default_tensor_shift(), q, -60.0)
    gnorm = rank_one_log_norms(a, b, spec.lam, spec.mu, 0)[0]
    want = float(mpmath.log(2 * mpmath.sin(mpmath.pi / q)))
    assert abs(rank_one_defect_log(a, b, spec.lam, spec.mu, 1) - gnorm - want) <= 1e-14


@pytest.mark.parametrize("scale", [1e-170, 1e-200])
def test_residual_keeps_its_log_where_the_eigenvalue_product_underflows(scale):
    lam = mu = complex(scale, 0.0)
    assert lam * mu == 0  # the product of the two eigenvalues is below float range
    a, b, _ = eigenvector_build(default_tensor_shift(), lam, mu, -60.0)
    residual = rank_one_residual_log(a, b, lam, mu)
    assert math.isfinite(residual) and residual < -3000.0
    dense = band_residual_log(tensor_of(a, b), lam, mu)
    assert abs(residual - dense) <= 1e-12 * abs(dense)
    assert rank_one_log_norms(a, b, lam, mu, 1)[1] > NEG_INF
    assert rank_one_residual_log(a, b, 0.0, mu) == NEG_INF  # exact only for an eigenvalue 0


def test_periodic_point_q1_fixed_point():
    op = default_tensor_shift()
    a, b, _ = periodic_point_from_eigen(op, 1, -50.0)
    g = tensor_of(a, b)
    gnorm = coeff_norm_log(g)
    assert band_residual_log(g, 1.0 + 0j, 1.0 + 0j, q=1) - gnorm <= -45.0


def test_periodic_point_rejects_bad_order():
    with pytest.raises(ValidationError):
        periodic_point_from_eigen(default_tensor_shift(), 0, -40.0)


def test_periodic_from_target_support_and_residual():
    op = theta_backward_shift(math.pi, 0.0, 0)
    y = CoeffVector.unit((0,), (0,))
    q = 3
    x = periodic_from_target(op, y, q, -60.0)
    assert all(m % q == 0 for (m,) in x.support())
    assert len(x.support()) >= 2  # at least the r=1 correction is retained
    # telescoping: T^q x - x is exactly minus the last retained term
    residual = coeff_sub(apply_power(op, x, q), x)
    assert coeff_norm_log(residual) <= -20.0
    (top,) = max(x.support())
    s = right_inverse(op)
    last_term = apply_power(s, y, top)
    assert abs(coeff_norm_log(last_term) - coeff_norm_log(residual)) <= 1e-6 or coeff_norm_log(
        residual
    ) == NEG_INF


def test_periodic_from_target_two_term_case():
    # when the first correction is already below tolerance the result is
    # x = y + S^q y, never bare y
    op = theta_backward_shift(math.pi, 0.0, 0)
    y = CoeffVector.unit((0,), (0,))
    x = periodic_from_target(op, y, 12, -30.0)
    assert x.support() == [(0,), (12,)]


def test_periodic_from_target_approximation_improves_with_q():
    op = bargmann_backward_shift(0)
    rng = random.Random(303)
    y = rand_coeff_vector(rng, 0, 4, 5)
    q0 = max(y.support())[0] + 1
    errs = []
    for q in (q0, 2 * q0, 4 * q0):
        x = periodic_from_target(op, y, q, -80.0)
        errs.append(coeff_norm_log(coeff_sub(x, y)))
    assert errs[0] > errs[1] > errs[2]


def test_periodic_from_target_q_too_small():
    op = bargmann_backward_shift(0)
    y = CoeffVector.unit((5,), (0,))
    with pytest.raises(QTooSmall):
        periodic_from_target(op, y, 5, -40.0)


def test_periodic_order_is_an_integer_of_at_least_1():
    op = bargmann_backward_shift(0)
    for y in (CoeffVector.unit((2,), (0,)), CoeffVector((0,))):
        for q in (2.5, math.nan, math.inf, True, "3"):
            with pytest.raises(ValidationError, match=r"q must be an integer of magnitude below 2\*\*53"):
                periodic_from_target(op, y, q, -40.0)
        for q in (0, -3):
            with pytest.raises(ValidationError, match="q must be >= 1"):
                periodic_from_target(op, y, q, -40.0)
    y = CoeffVector.unit((2,), (0,))
    assert periodic_from_target(op, y, 3.0, -40.0) == periodic_from_target(op, y, 3, -40.0)


def test_periodic_terms_continue_the_previous_terms_spans(monkeypatch):
    # term r reads the q weights above term r - 1's spans, so R terms read R q |y| span terms;
    # building each term from scratch read q r |y| for term r, 6,177,672 in all here
    op = theta_backward_shift(3.0, -3000.0, 0)
    y = CoeffVector((0,), {(m,): LogComplex(0.0, 0.0) for m in (0, 3, 5)})
    reads = []
    span_terms = WeightSequence.span_terms

    def counted(self, lo, hi):
        terms = span_terms(self, lo, hi)
        reads.append(len(terms))
        return terms

    monkeypatch.setattr(WeightSequence, "span_terms", counted)
    x = periodic_from_target(op, y, 8, -40.0)
    terms = (len(x.entries) - len(y.entries)) // len(y.entries)
    assert terms == 717
    assert sum(reads) == terms * 8 * len(y.entries) == 17_208


@pytest.mark.parametrize(
    "logmag, alpha, message",
    [
        # S y is e^(4e307) e_1, and the span of S^2 passes the lowest float at its second weight
        (-5e307, -4.5e307, r"span 1\.\.2 overflows the float range at index 2"),
        (1e308, -5e307, r"coefficient at \(1,\) has log-magnitude inf"),
        (-1e308, 5e307, r"coefficient at \(1,\) has log-magnitude -inf"),
    ],
    ids=["span", "entry above", "entry below"],
)
def test_a_pushed_term_out_of_float_range_raises_the_apply_power_error(logmag, alpha, message):
    # log w(m) = 1 + 2 alpha + 2 (m - 1) for theta(pi, alpha, 0)
    op = theta_backward_shift(math.pi, alpha, 0)
    y = CoeffVector((0,), {(0,): LogComplex(logmag, 0.5)})
    with pytest.raises(OverflowNotRepresentable, match=message) as want:
        periodic_reference(op, y, 1, -40.0)
    with pytest.raises(OverflowNotRepresentable) as got:
        periodic_from_target(op, y, 1, -40.0)
    assert str(got.value) == str(want.value)


def test_hypercyclic_single_target_exact():
    op = bargmann_backward_shift(0)
    y = CoeffVector.unit((0,), (0,))
    psi, schedule, errors = hypercyclic_vector_build(op, [y], 1e-8)
    assert len(schedule) == 1
    replay = apply_power(op, psi, schedule[0])
    assert replay.entries == y.entries  # unit-chain roundtrip is exact
    assert errors == [NEG_INF]


def test_hypercyclic_two_targets_replay():
    op = bargmann_backward_shift(0)
    t1 = CoeffVector.unit((0,), (0,))
    t2 = CoeffVector((0,), {(0,): LogComplex(0.0, 0.0), (1,): LogComplex(0.0, 0.0)})
    psi, schedule, errors = hypercyclic_vector_build(op, [t1, t2], 1e-6)
    assert schedule[0] < schedule[1]
    for n, y, written in zip(schedule, (t1, t2), errors):
        err = coeff_norm_log(coeff_sub(apply_power(op, psi, n), y))
        assert err <= math.log(1e-6)
        assert written <= math.log(1e-6)


def test_hypercyclic_orbit_replay_via_trace():
    op = bargmann_backward_shift(0)
    rng = random.Random(307)
    targets = [rand_coeff_vector(rng, 0, 3, 4) for _ in range(3)]
    psi, schedule, _ = hypercyclic_vector_build(op, targets, 1e-6)
    steps = orbit(op, psi, max(schedule))
    for n, y in zip(schedule, targets):
        err = coeff_norm_log(coeff_sub(steps[n], y))
        assert err <= math.log(1e-6)


def test_hypercyclic_search_probes_the_nearest_checkpoint_first(monkeypatch):
    # a candidate time nearly always fails at the nearest checkpoint, whose gap is the
    # smallest; probing from the farthest checkpoint made 385 probes for this build
    gaps, powers = [], []
    norm_log = dynamics._Pullback.norm_log

    def probe(self, g):
        gaps.append(g)
        return norm_log(self, g)

    def power(op, v, k):
        powers.append(k)
        return apply_power(op, v, k)

    monkeypatch.setattr(dynamics._Pullback, "norm_log", probe)
    monkeypatch.setattr(dynamics, "apply_power", power)
    rng = random.Random(409)
    targets = [rand_coeff_vector(rng, 0, 3, 4) for _ in range(8)]
    op = bargmann_backward_shift(0)
    psi, schedule, _ = hypercyclic_vector_build(op, targets, 1e-6)
    assert schedule == [1, 17, 31, 47, 63, 81, 98, 114]
    want = []
    hypercyclic_reference(op, targets, 1e-6, probes=want)
    assert len(gaps) == 112
    assert gaps == want  # the same probes, in the same order
    # each target's term of psi, then each term's round trip for its replay error; no power for a probe
    assert powers == schedule + schedule


@pytest.mark.parametrize(
    "op",
    [
        bargmann_backward_shift(0),
        theta_backward_shift(math.pi, 0.3, 1),
        ShiftOperator((TableWeights.from_weights([random.Random(3).uniform(0.2, 9.0) for _ in range(400)]),)),
        tensor_operator(theta_backward_shift(3.0, 0.1, 1), bargmann_backward_shift(2)),
    ],
    ids=["bargmann p=0", "theta p=1", "table", "two axes"],
)
def test_a_pullback_has_the_bits_of_the_power_it_stands_for(op):
    rng = random.Random(17)
    s_op = right_inverse(op)
    if len(op.offsets) == 1:
        y = rand_coeff_vector(rng, op.offsets[0], 8, 30)
    else:
        y = rand_tensor_vector(rng, op.offsets, 8, 12)
    nearer = dynamics._Pullback(s_op, y, None)
    farther = dynamics._Pullback(s_op, y, nearer)  # a checkpoint 9 steps farther back
    g = 0
    # single steps, and jumps: a checkpoint that the search skipped catches up termwise, from its
    # own spans or from the nearer checkpoint's, whichever are longer
    for step, both in ((1, True), (1, False), (3, True), (1, False), (7, False), (2, True), (40, True),
                       (0, True), (1, False), (13, True), (5, False), (90, True)):
        g += step
        for pullback, gap in ((nearer, g), (farther, g + 9))[: 1 + both]:
            power = apply_power(s_op, y, gap)
            assert pullback.norm_log(gap).hex() == coeff_norm_log(power).hex(), gap
            assert _entry_bits(pullback.push(gap)) == _entry_bits(power), gap


def _entry_bits(v: CoeffVector) -> dict:
    return {key: (c.logmag.hex(), c.phase.hex()) for key, c in v.entries.items()}


def _search_cases():
    rng = random.Random(61)
    pair = tensor_operator(theta_backward_shift(3.0, 0.1, 1), bargmann_backward_shift(2))
    return {
        "bargmann p=0": (bargmann_backward_shift(0), [rand_coeff_vector(rng, 0, 5, 12) for _ in range(10)], 1e-9),
        "theta p=1": (theta_backward_shift(math.pi, 0.0, 1), [rand_coeff_vector(rng, 1, 4, 9) for _ in range(8)],
                      1e-6),
        # few indices per axis, so entries share the running span of an axis index
        "two axes": (pair, [rand_tensor_vector(rng, (1, 2), 5, 7) for _ in range(6)], 1e-6),
    }


@pytest.mark.parametrize("case", sorted(_search_cases()))
def test_hypercyclic_build_matches_the_reference_search(case):
    op, targets, eps = _search_cases()[case]
    want_psi, want_schedule = hypercyclic_reference(op, targets, eps)
    fresh = ShiftOperator(tuple(map(copy.copy, op.weights)), op.direction)  # copies start with empty tables
    for target_op in (op, fresh):  # warm tables, then cold ones
        psi, schedule, _ = hypercyclic_vector_build(target_op, targets, eps)
        assert schedule == want_schedule
        assert _entry_bits(psi) == _entry_bits(want_psi)


def _replay_rounding_bound(op, psi: CoeffVector, schedule: list[int], targets, j: int) -> float:
    """A bound on |written - full replay| for replay error j, from the rounding of both.

    A later entry c at m, of target i, is (c - A) + B in the full replay, with
    A the float span of the weights at m+1 .. m+n_i and B that at
    m+n_i-n_j+1 .. m+n_i, and c - C in the written one, with C the span at
    m+1 .. m+n_i-n_j.  The three are the same exact number.  A span of k
    weights is off by at most k u sum|w| (Higham, ch. 4), and each of the
    three subtractions and additions by u of its operands, so the two differ
    by at most (2 N + 6) u (c_max + W), with N the last schedule time, c_max
    the largest |log-magnitude| of a target and W the sum of |log w| over
    every index psi reads, summed over the axes.  Each `norm_log` step is off
    by at most u (|acc| + 3) and its acc by at most 2 L + log T, over T steps
    in all: at most K for the full replay, and the K entries again, the own
    block and J masses for the written one.
    """
    u = 2.0**-53
    top = [max(key[i] for key in psi.entries) if psi.entries else w.offset_p for i, w in enumerate(op.weights)]
    w_sum = sum(float(abs(w.log_weights(range(w.offset_p + 1, t + 1))).sum()) for w, t in zip(op.weights, top))
    c_max = max((abs(c.logmag) for y in targets for c in y.entries.values()), default=0.0)
    full = coeff_sub(apply_power(op, psi, schedule[j]), targets[j])
    steps = 2 * len(full.entries) + len(targets) + 1
    big_l = max((abs(c.logmag) for c in full.entries.values()), default=0.0)
    return u * ((2 * max(schedule) + 6) * (c_max + w_sum) + steps * (2 * big_l + math.log(steps) + 3))


def _replay_agreement(op, psi, schedule, targets, errors, want) -> list[bool]:
    """Per target, whether the written replay error is the full replay's within the rounding bound."""
    return [got == ref or abs(got - ref) <= _replay_rounding_bound(op, psi, schedule, targets, j)
            for j, (got, ref) in enumerate(zip(errors, want))]


def _target(rng, offsets, size: int, logmag_lo: float = -3.0, logmag_hi: float = 3.0) -> CoeffVector:
    keys = {tuple(p + rng.randint(0, 4) for p in offsets) for _ in range(size)}
    return CoeffVector(offsets, {key: LogComplex(rng.uniform(logmag_lo, logmag_hi), rng.uniform(-3.0, 3.0))
                                 for key in keys})


_REPLAY_OPS = {
    "bargmann p=0": bargmann_backward_shift(0),
    "bargmann p=2": bargmann_backward_shift(2),
    "theta p=1": theta_backward_shift(math.pi, 0.0, 1),
    "theta p=0": theta_backward_shift(2.0, 0.3, 0),
    "two axes": tensor_operator(theta_backward_shift(3.0, 0.1, 1), bargmann_backward_shift(2)),
    "default pair": default_tensor_shift(0),
}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(_REPLAY_OPS)), st.integers(1, 4), st.integers(0, 6),
       st.sampled_from([-20.0, -40.0, -60.0]), st.randoms(use_true_random=False))
def test_periodic_approximant_is_the_reference_sum_bit_for_bit(name, size, extra, tail, rng):
    # q >= the nilpotence index puts y and its pushed terms on disjoint supports, so their union is
    # the coeff_add chain, and x - y is x without y's keys, as density-probe computes it
    op = _REPLAY_OPS[name]
    y = _target(rng, op.offsets, size)
    q = nilpotence_index(op, y) + extra
    x = periodic_from_target(op, y, q, tail)
    want = periodic_reference(op, y, q, tail)
    assert x.offsets == want.offsets and _entry_bits(x) == _entry_bits(want)
    error = norm_log(x.entries[key].logmag for key in sorted(x.entries.keys() - y.entries.keys()))
    assert error.hex() == coeff_norm_log(coeff_sub(x, y)).hex()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(_REPLAY_OPS)), st.integers(1, 6), st.sampled_from([1e-3, 1e-6, 1e-9]),
       st.randoms(use_true_random=False))
def test_written_replay_errors_are_the_full_replay_up_to_rounding(name, count, eps, rng):
    # T^{n_j} psi - y_j is the own round trip plus the later blocks pulled back, whose norms the
    # search kept; the last target has no later block, so its error is the full replay's float
    op = _REPLAY_OPS[name]
    targets = [_target(rng, op.offsets, rng.randint(0, 3)) for _ in range(count)]
    psi, schedule, errors = hypercyclic_vector_build(op, targets, eps)
    want = replay_reference(op, psi, schedule, targets)
    assert errors[-1].hex() == want[-1].hex()
    assert _replay_agreement(op, psi, schedule, targets, errors, want) == [True] * count


@pytest.mark.parametrize(
    "op, offsets",
    [(bargmann_backward_shift(0), (0,)),
     (tensor_operator(theta_backward_shift(3.0, 0.1, 1), bargmann_backward_shift(2)), (1, 2))],
    ids=["one axis", "two axes"],
)
def test_a_gap_one_short_shows_in_the_written_replay(monkeypatch, op, offsets):
    # targets so small that every candidate fits at once, so the gap rule alone sets the schedule;
    # a gap one short lets the first block's top entry survive T^{n_2}, a leak of about e^-40 at a
    # key where the second target has no entry, which the full replay holds and the identity omits
    first = CoeffVector(offsets, {tuple(p + 3 for p in offsets): LogComplex(-40.0, 0.5),
                                  tuple(p + 1 for p in offsets): LogComplex(-41.0, -1.0)})
    second = CoeffVector(offsets, {tuple(p + 1 for p in offsets): LogComplex(-40.0, 2.0)})
    targets = [first, second]
    gap = nilpotence_index(op, first)
    psi, schedule, errors = hypercyclic_vector_build(op, targets, 1e-6)
    assert schedule == [1, 1 + gap]
    want = replay_reference(op, psi, schedule, targets)
    assert _replay_agreement(op, psi, schedule, targets, errors, want) == [True, True]
    monkeypatch.setattr(dynamics, "nilpotence_index", lambda op, v: nilpotence_index(op, v) - 1)
    psi, schedule, errors = hypercyclic_vector_build(op, targets, 1e-6)
    assert schedule == [1, gap]
    want = replay_reference(op, psi, schedule, targets)
    assert want[-1] > errors[-1] + 10.0


def test_a_table_that_runs_out_mid_search_raises_the_reference_error():
    def table(n):
        return ShiftOperator((TableWeights.from_weights([1.5] * n),))  # indices 1..n

    # a pullback of e_0 shrinks by log 1.5 per step, so the second target needs a gap of 38
    targets = [CoeffVector.unit((0,), (0,))] * 2
    probes = []
    with pytest.raises(TableRangeError, match="index 31 outside") as want:
        hypercyclic_reference(table(30), targets, 1e-6, probes=probes)
    assert probes == list(range(1, 32))  # the search ran until the table ran out, at gap 31
    with pytest.raises(TableRangeError) as got:
        hypercyclic_vector_build(table(30), targets, 1e-6)
    assert str(got.value) == str(want.value)
    # the first target puts the second's first probe at gap 16: the entry at 30 needs index 41,
    # past the table, and the one at 45 index 46; the error is that of the entry read first
    messages = set()
    for keys in ((45, 30), (30, 45)):
        second = CoeffVector((0,), {(m,): LogComplex(0.0, 0.0) for m in keys})
        targets = [CoeffVector.unit((15,), (0,)), second]
        with pytest.raises(TableRangeError) as want:
            hypercyclic_reference(table(40), targets, 1e-6)
        with pytest.raises(TableRangeError) as got:
            hypercyclic_vector_build(table(40), targets, 1e-6)
        assert str(got.value) == str(want.value)
        messages.add(str(want.value))
    assert len(messages) == 2


def test_a_span_that_overflows_mid_search_raises_the_reference_error():
    # log w(m) = (1 - 1.2e308) + 2 (m - 1): S y for y = e^(-1e308) e_0 has log norm about 2e307,
    # above the budget, so the search goes on to gap 2, whose span passes the lowest float
    op = theta_backward_shift(math.pi, -6e307, 0)
    targets = [CoeffVector.unit((0,), (0,)), CoeffVector((0,), {(0,): LogComplex(-1e308, 0.0)})]
    with pytest.raises(OverflowNotRepresentable, match=r"span 1\.\.2 overflows the float range at index 2") as want:
        hypercyclic_reference(op, targets, 1e-6)
    with pytest.raises(OverflowNotRepresentable) as got:
        hypercyclic_vector_build(op, targets, 1e-6)
    assert str(got.value) == str(want.value)


def test_hypercyclic_schedule_overflow_on_flat_weights(monkeypatch):
    flat = ShiftOperator((TableWeights.from_weights([1.0] * 300),))
    targets = [CoeffVector.unit((0,), (0,)), CoeffVector.unit((1,), (0,))]
    monkeypatch.setattr(dynamics, "_SCHEDULE_CAP", 100)
    with pytest.raises(ScheduleOverflow, match="exceeded 100;"):
        hypercyclic_vector_build(flat, targets, 1e-6)


def test_hypercyclic_validations():
    op = bargmann_backward_shift(0)
    with pytest.raises(ValidationError):
        hypercyclic_vector_build(op, [], 1e-6)
    with pytest.raises(ValidationError):
        hypercyclic_vector_build(op, [CoeffVector.unit((0,), (0,))], 0.0)
    for eps in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="eps must be"):
            hypercyclic_vector_build(op, [CoeffVector.unit((0,), (0,))], eps)
    with pytest.raises(ValidationError):
        hypercyclic_vector_build(op, [CoeffVector.unit((1,), (1,))], 1e-6)


def test_non_finite_inputs_rejected_at_the_library_entry():
    op = default_tensor_shift(0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="tail_tol_log"):
            eigenvector_build(op, 0.5, 0.3, bad)
        with pytest.raises(ValidationError, match="tail_tol_log"):
            periodic_point_from_eigen(op, 4, bad)
        with pytest.raises(ValidationError, match="tail_tol_log"):
            periodic_from_target(bargmann_backward_shift(0), CoeffVector.unit((2,), (0,)), 4, bad)
        with pytest.raises(ValidationError, match="eigenvalues"):
            eigenvector_build(op, complex(bad, 0.0), 0.3, -60.0)
        with pytest.raises(ValidationError, match="eigenvalues"):
            eigenvector_build(op, 0.5, complex(0.1, bad), -60.0)
    for tail in (0.0, 5.0, 50.0):
        with pytest.raises(ValidationError, match="tail_tol_log"):
            eigenvector_build(op, 0.5, 0.3, tail)
        with pytest.raises(ValidationError, match="tail_tol_log"):
            periodic_from_target(bargmann_backward_shift(0), CoeffVector.unit((2,), (0,)), 4, tail)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize(
    "name, call",
    [
        ("nu", lambda: ThetaParams(nu=_NAN)),
        ("nu", lambda: ThetaParams(nu=_INF)),
        ("alpha", lambda: ThetaParams(nu=math.pi, alpha=_NAN)),
        ("alpha", lambda: ThetaParams(nu=math.pi, alpha=_INF)),
        ("alpha", lambda: ThetaParams(nu=math.pi, alpha=-_INF)),
        ("table weights", lambda: TableWeights.from_weights([1.0, "a"])),
        ("table weights", lambda: TableWeights.from_weights([None])),
        ("table weights", lambda: TableWeights.from_weights([True, 2.0])),
        ("table weights", lambda: TableWeights.from_weights(5)),
        ("table weights", lambda: TableWeights.from_weights([2.0, _INF])),
        ("table weights", lambda: TableWeights.from_weights([_NAN])),
        ("threshold", lambda: salas_scan(BargmannRawWeights(), 10, _NAN)),
        ("threshold", lambda: salas_scan(BargmannRawWeights(), 10, -_INF)),
        ("threshold", lambda: tensor_salas_scan(BargmannRawWeights(), BargmannRawWeights(), 10, _INF)),
        ("z", lambda: bargmann_basis_eval(3, complex(_NAN, 0.0))),
        ("z", lambda: bargmann_basis_eval(0, complex(0.0, _INF))),
        ("z", lambda: theta_basis_eval(2, complex(_INF, 1.0), ThetaParams(nu=math.pi))),
        ("z", lambda: theta_basis_eval(0, complex(0.5, _NAN), ThetaParams(nu=math.pi))),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_non_finite_parameters_rejected_where_taken_in(name, call):
    with pytest.raises(ValidationError, match=name):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda n: bargmann_basis_eval(n, 2.0 + 1.0j),
        lambda n: theta_basis_eval(n, 0.5 + 0.0j, ThetaParams(nu=math.pi)),
        lambda n: periodic_point_from_eigen(default_tensor_shift(), n, -40.0),
        lambda n: periodic_from_target(bargmann_backward_shift(0), CoeffVector.unit((2,), (0,)), n, -40.0),
    ],
    ids=["bargmann basis", "theta basis", "periodic point", "periodic approximant"],
)
def test_integers_beyond_float_range_rejected_where_taken_in(call):
    # each turns its integer into a float, which holds every integer only below 2**53
    for n in (2**53, 10**400):
        with pytest.raises(ValidationError, match=r"below 2\*\*53"):
            call(n)
