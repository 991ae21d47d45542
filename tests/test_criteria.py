"""Partial-product scans and the hypercyclicity-premise probe."""

import math

import numpy as np
import pytest

from shiftdyn import (
    BargmannActionWeights,
    BargmannRawWeights,
    BlockPatternWeights,
    TableWeights,
    TensorOperator,
    ThetaActionWeights,
    ThetaParams,
    ValidationError,
    Verdict,
    bargmann_backward_shift,
    bcs_premise_check,
    salas_scan,
    tensor_salas_scan,
    theta_backward_shift,
)
from shiftdyn.weights import MAX_INDICES

LN2 = math.log(2.0)


def test_salas_bargmann_closed_form():
    # product of sqrt(i+1) for i = 1..n is sqrt((n+1)!)
    report = salas_scan(BargmannRawWeights(), 1000, threshold=100.0)
    assert report.verdict is Verdict.DIVERGES_TO_INFINITY
    for n in (1, 2, 10, 100, 1000):
        expected = 0.5 * math.lgamma(n + 2)
        got = float(report.partial_log_products[n - 1])
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


def test_salas_constant_weights_bounded():
    report = salas_scan(TableWeights.from_weights([1.0] * 500), 500, threshold=100.0)
    assert report.verdict is Verdict.BOUNDED_ABOVE_BY
    assert report.bound == 0.0
    assert report.sup_attained == 0.0
    assert np.all(report.partial_log_products == 0.0)


def test_salas_block_pattern_diverges():
    report = salas_scan(BlockPatternWeights(role="omega"), 1_000_000, threshold=100.0 * LN2)
    assert report.verdict is Verdict.DIVERGES_TO_INFINITY
    assert report.sup_attained > 100.0 * LN2


def test_salas_block_partials_match_direct_summation():
    w = BlockPatternWeights(role="omega")
    report = salas_scan(w, 5000, threshold=1e9)
    acc = 0.0
    for i in range(1, 5001):
        acc += w.log_weight(i)
        assert report.partial_log_products[i - 1] == acc


def test_salas_inconclusive_when_rising_below_threshold():
    w = TableWeights.from_weights([math.exp(0.001)] * 1000)
    report = salas_scan(w, 1000, threshold=100.0)
    assert report.verdict is Verdict.INCONCLUSIVE


def test_salas_scaled_table_shifts_partials_linearly():
    values = [1.3, 0.8, 2.4, 1.1, 0.6, 3.0]
    c = 1.7
    w = TableWeights.from_weights(values)
    ws = TableWeights.from_weights([c * v for v in values])
    r = salas_scan(w, 6, threshold=10.0)
    rs = salas_scan(ws, 6, threshold=10.0)
    for n in range(1, 7):
        expected = r.partial_log_products[n - 1] + n * math.log(c)
        assert abs(rs.partial_log_products[n - 1] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_salas_rejects_bad_horizon():
    with pytest.raises(ValidationError):
        salas_scan(BargmannRawWeights(), 0)
    with pytest.raises(ValidationError, match="integer"):
        salas_scan(BargmannRawWeights(), 2.5)


def test_scans_reject_a_horizon_above_the_index_limit():
    # checked before any array is allocated: 2**40 indices would take 8 TiB
    for scan in (lambda n: salas_scan(BargmannRawWeights(), n),
                 lambda n: tensor_salas_scan(BargmannRawWeights(), BlockPatternWeights(), n)):
        with pytest.raises(ValidationError, match=f"limit of {MAX_INDICES}"):
            scan(2**40)
        with pytest.raises(ValidationError, match=f"limit of {MAX_INDICES}"):
            scan(MAX_INDICES + 1)


def test_tensor_scan_block_counterexample_exact_zero():
    omega = BlockPatternWeights(role="omega")
    varpi = BlockPatternWeights(role="varpi")
    report = tensor_salas_scan(omega, varpi, 100_000, threshold=100.0 * LN2)
    assert report.verdict is Verdict.BOUNDED_ABOVE_BY
    assert report.bound == 0.0
    assert np.all(report.partial_log_products == 0.0)


def test_tensor_scan_growing_pair_diverges():
    w1 = ThetaActionWeights(ThetaParams(nu=math.pi, alpha=0.0, p=1))
    w2 = BargmannActionWeights(p=1)
    report = tensor_salas_scan(w1, w2, 500, threshold=100.0)
    assert report.verdict is Verdict.DIVERGES_TO_INFINITY


def test_tensor_scan_with_unit_factor_reduces_to_salas():
    w1 = BargmannRawWeights()
    ones = TableWeights.from_weights([1.0] * 400)
    single = salas_scan(w1, 400, threshold=50.0)
    double = tensor_salas_scan(w1, ones, 400, threshold=50.0)
    assert np.array_equal(single.partial_log_products, double.partial_log_products)
    assert double.verdict is single.verdict


def test_tensor_scan_partials_add_factorwise():
    w1 = ThetaActionWeights(ThetaParams(nu=math.pi, alpha=0.0, p=1))
    w2 = BargmannActionWeights(p=0)
    r1 = salas_scan(w1, 200, threshold=1e9)
    r2 = salas_scan(w2, 200, threshold=1e9)
    r12 = tensor_salas_scan(w1, w2, 200, threshold=1e9)
    for n in range(200):
        expected = r1.partial_log_products[n] + r2.partial_log_products[n]
        assert abs(r12.partial_log_products[n] - expected) <= 1e-9 * max(1.0, abs(expected))


def test_report_json_shape():
    report = salas_scan(BargmannRawWeights(), 50, threshold=10.0)
    obj = report.to_json_dict()
    assert obj["verdict"] in {v.value for v in Verdict}
    assert obj["horizon_n"] == 50
    assert len(obj["partial_log_products"]) == 50
    assert "finite-horizon" in obj["note"]


def test_bcs_premises_theta_p1():
    op = theta_backward_shift(math.pi, 0.0, 1)
    report = bcs_premise_check(op, [(m,) for m in range(1, 7)], k_max=40, tol_log=-100.0)
    assert report.all_passed
    for probe in report.probes:
        assert probe.right_inverse_identity
        assert probe.nilpotent_exactly
        assert probe.inverse_orbit_decreasing
        assert probe.inverse_orbit_below_tol_at is not None
        assert probe.inverse_orbit_below_tol_at <= 40


def test_bcs_premises_tensor_pair():
    op = TensorOperator(theta_backward_shift(math.pi, 0.0, 1), bargmann_backward_shift(1))
    probes = [(m, n) for m in range(1, 5) for n in range(1, 5)]
    report = bcs_premise_check(op, probes, k_max=40, tol_log=-100.0)
    assert report.all_passed


def test_bcs_flags_flat_weights():
    from shiftdyn import ShiftOperator

    flat = bcs_premise_check(
        ShiftOperator(TableWeights.from_weights([1.0] * 60)),
        [(2,), (3,)],
        k_max=30,
        tol_log=-50.0,
    )
    assert not flat.all_passed
    for probe in flat.probes:
        assert probe.right_inverse_identity  # identity still holds structurally
        assert probe.inverse_orbit_below_tol_at is None


def test_bcs_json_round_trip_shape():
    op = bargmann_backward_shift(0)
    report = bcs_premise_check(op, [(1,), (2,), (3,)], k_max=60, tol_log=-40.0)
    obj = report.to_json_dict()
    assert obj["all_passed"] is True
    assert len(obj["probes"]) == 3
