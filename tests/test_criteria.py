"""Partial-product scans, and the hypercyclicity-criterion premises on basis vectors."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from shiftdyn import (
    BargmannActionWeights,
    BargmannRawWeights,
    BlockPatternWeights,
    CoeffVector,
    OverflowNotRepresentable,
    ShiftOperator,
    TableWeights,
    ThetaActionWeights,
    ThetaParams,
    ThetaRawWeights,
    ValidationError,
    Verdict,
    apply_power,
    bargmann_backward_shift,
    coeff_norm_log,
    right_inverse,
    salas_scan,
    tensor_operator,
    tensor_salas_scan,
    theta_backward_shift,
)
from shiftdyn.criteria import CriterionReport
from shiftdyn.shift_ops import nilpotence_index
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


@pytest.mark.parametrize(
    "scan, first",
    [
        # log w(m) = pi/nu + (2 pi/nu) m: the partial sums pass the largest float at term 7,564
        (lambda: salas_scan(ThetaRawWeights(ThetaParams(nu=1e-300)), 10_000), 7564),
        # each factor's weights are finite, their sum is not, on either side
        (lambda: tensor_salas_scan(*[ThetaRawWeights(ThetaParams(nu=math.pi, alpha=5e307))] * 2, 10), 1),
        (lambda: tensor_salas_scan(*[ThetaRawWeights(ThetaParams(nu=math.pi, alpha=-5e307))] * 2, 10), 1),
    ],
)
def test_scans_whose_partials_overflow_name_the_first_term(scan, first):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings are silenced, not printed
        with pytest.raises(OverflowNotRepresentable, match=f"partial log-product {first} of"):
            scan()


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


def test_reports_compare_their_partials_bit_for_bit():
    w = BargmannActionWeights(2)
    report = salas_scan(w, 50)
    same = salas_scan(w, 50)
    assert (report == same) is True and (report != same) is False
    for twin in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert isinstance(twin.partial_log_products, np.ndarray)  # the constructor got the array
        assert (twin == report) is True
    assert (report == salas_scan(w, 51)) is False  # another length
    assert (report == salas_scan(w, 50, threshold=99.0)) is False  # another field
    flipped = report.partial_log_products.copy()
    flipped[-1] = np.nextafter(flipped[-1], np.inf)
    assert (report == CriterionReport(flipped, *report._values()[1:])) is False
    # zeros of either sign are different bits; equal NaNs are the same bits
    zeros = [CriterionReport(np.array([z, 1.0]), 1.0, Verdict.INCONCLUSIVE, None, 2, 100.0, 1) for z in (0.0, -0.0)]
    assert (zeros[0] == zeros[1]) is False
    nans = [CriterionReport(np.array([math.nan]), 1.0, Verdict.INCONCLUSIVE, None, 1, 100.0, 1) for _ in range(2)]
    assert (nans[0] == nans[1]) is True


def _bcs_premises(op, key, k_max: int, tol_log: float):
    """The computable premises of the hypercyclicity criterion on the basis vector f at key.

    (T(S f) = f exactly, T^k f = 0 exactly at its nilpotence index k and not before,
    log||S^k f|| strictly decreasing, the first k <= k_max where it is <= tol_log or None).
    """
    s = right_inverse(op)
    f = CoeffVector.unit(key, op.offsets)
    nil = nilpotence_index(op, f)
    identity = apply_power(op, apply_power(s, f, 1), 1).entries == f.entries
    nilpotent = apply_power(op, f, nil).is_zero and not apply_power(op, f, nil - 1).is_zero
    norms, below_at = [coeff_norm_log(f)], None
    for k in range(1, k_max + 1):
        norms.append(coeff_norm_log(apply_power(s, f, k)))
        if norms[-1] <= tol_log:
            below_at = k
            break
    return identity, nilpotent, all(b < a for a, b in zip(norms, norms[1:])), below_at


def test_bcs_premises_theta_p1():
    op = theta_backward_shift(math.pi, 0.0, 1)
    for m in range(1, 7):
        identity, nilpotent, decreasing, below_at = _bcs_premises(op, (m,), 40, -100.0)
        assert identity and nilpotent and decreasing
        assert below_at is not None and below_at <= 40


def test_bcs_premises_tensor_pair():
    op = tensor_operator(theta_backward_shift(math.pi, 0.0, 1), bargmann_backward_shift(1))
    for key in [(m, n) for m in range(1, 5) for n in range(1, 5)]:
        identity, nilpotent, decreasing, below_at = _bcs_premises(op, key, 40, -100.0)
        assert identity and nilpotent and decreasing and below_at is not None


def test_bcs_flags_flat_weights():
    flat = ShiftOperator((TableWeights.from_weights([1.0] * 60),))
    for m in (2, 3):
        identity, _, decreasing, below_at = _bcs_premises(flat, (m,), 30, -50.0)
        assert identity  # the identity still holds structurally
        assert not decreasing and below_at is None
