"""Single-space shift operators: single steps, powers, inverses, adjoints, export."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftdyn import (
    CoeffVector,
    LogComplex,
    OffsetMismatch,
    ValidationError,
    apply_power,
    bargmann_backward_shift,
    coeff_norm_log,
    matrix_columns,
    right_inverse,
    shift_operator_from_json,
    tensor_operator,
    theta_backward_shift,
)
from shiftdyn.shift_ops import nilpotence_index
from shiftdyn.weights import MAX_INDICES

from conftest import NEG_INF, adjoint_forward, adjoint_pairing_gap_log, rand_coeff_vector, rel_gap_log


def all_test_operators():
    ops = []
    for p in (0, 1, 2):
        ops.append(theta_backward_shift(math.pi, 0.0, p))
        ops.append(bargmann_backward_shift(p))
    ops.append(theta_backward_shift(2.0, -0.3, 1))
    return ops


def test_backward_annihilates_lowest_index():
    for op in all_test_operators():
        p = op.offsets[0]
        out = apply_power(op, CoeffVector.unit((p,), (p,)), 1)
        assert out.is_zero


def test_backward_bargmann_example():
    op = bargmann_backward_shift(0)
    out = apply_power(op, CoeffVector.unit((4,), (0,)), 1)
    assert out.support() == [(3,)]
    assert abs(out.entries[(3,)].logmag - math.log(2.0)) <= 1e-12
    assert out.entries[(3,)].phase == 0.0


def test_right_inverse_then_backward_is_identity():
    rng = random.Random(101)
    for op in all_test_operators():
        s = right_inverse(op)
        for _ in range(30):
            v = rand_coeff_vector(rng, op.offsets[0], 12, 150)
            back = apply_power(op, apply_power(s, v, 1), 1)
            assert back.support() == v.support()
            for m in v.support():
                assert back.entries[m].phase == v.entries[m].phase
                assert abs(back.entries[m].logmag - v.entries[m].logmag) <= 1e-11


def test_right_inverse_identity_exact_on_units():
    for op in all_test_operators():
        s = right_inverse(op)
        for m in range(op.offsets[0], op.offsets[0] + 40):
            back = apply_power(op, apply_power(s, CoeffVector.unit((m,), (op.offsets[0],)), 1), 1)
            assert back.entries == {(m,): LogComplex(0.0, 0.0)}
        with pytest.raises(ValidationError):  # only a backward operator has a right inverse
            right_inverse(s)


def test_backward_then_right_inverse_projects_out_bottom():
    op = theta_backward_shift(math.pi, 0.0, 1)
    s = right_inverse(op)
    v = CoeffVector((1,), {(1,): LogComplex(0.2, 0.1), (3,): LogComplex(-0.4, -1.0)})
    out = apply_power(s, apply_power(op, v, 1), 1)
    # the bottom-index component is killed, the rest returns
    assert out.support() == [(3,)]
    assert out.entries[(3,)].phase == v.entries[(3,)].phase
    assert abs(out.entries[(3,)].logmag - v.entries[(3,)].logmag) <= 1e-11


def test_power_nilpotence_iff():
    for op in all_test_operators():
        p = op.offsets[0]
        for m in range(p, p + 12):
            f = CoeffVector.unit((m,), (p,))
            assert apply_power(op, f, m - p + 1).is_zero
            if m > p:
                assert not apply_power(op, f, m - p).is_zero
            assert apply_power(op, f, 0).entries == f.entries


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), offsets=st.lists(st.integers(0, 3), min_size=1, max_size=2))
def test_power_is_zero_exactly_from_the_nilpotence_index(data, offsets):
    factors = [bargmann_backward_shift(p) for p in offsets]
    op = factors[0] if len(factors) == 1 else tensor_operator(*factors)
    keys = st.tuples(*(st.integers(p, p + 12) for p in offsets))
    v = CoeffVector(tuple(offsets), {key: LogComplex(0.5, 1.0) for key in data.draw(st.sets(keys, max_size=5))})
    nil = nilpotence_index(op, v)
    for k in range(16):
        assert apply_power(op, v, k).is_zero == (k >= nil), k


def test_power_matches_iterated_apply():
    rng = random.Random(103)
    for op in all_test_operators():
        s = right_inverse(op)
        for target in (op, s, adjoint_forward(op)):
            v = rand_coeff_vector(rng, op.offsets[0], 6, 40)
            k = rng.randint(1, 5)
            direct = apply_power(target, v, k)
            iterated = v
            for _ in range(k):
                iterated = apply_power(target, iterated, 1)
            assert direct.support() == iterated.support()
            for m in direct.support():
                assert rel_gap_log(direct.entries[m], iterated.entries[m]) <= math.log(1e-12)


def test_inverse_orbit_norms_theta_p1():
    # at nu=pi, alpha=0, p=1 the log action weight at m is the integer 6m-7,
    # so log ||S^k e_1|| = -(3k^2 + 2k) exactly
    op = theta_backward_shift(math.pi, 0.0, 1)
    s = right_inverse(op)
    f = CoeffVector.unit((1,), (1,))
    prev = 0.0
    for k in range(1, 12):
        norm = coeff_norm_log(apply_power(s, f, k))
        assert norm == -(3 * k * k + 2 * k)
        assert norm < prev
        prev = norm
    assert coeff_norm_log(apply_power(s, f, 6)) == -120.0


def test_inverse_orbit_reaches_minus_100_within_40():
    op = theta_backward_shift(math.pi, 0.0, 1)
    s = right_inverse(op)
    f = CoeffVector.unit((1,), (1,))
    ks = [k for k in range(1, 41) if coeff_norm_log(apply_power(s, f, k)) < -100.0]
    assert ks and ks[0] <= 40


def test_inverse_orbit_decreasing_all_growing_families():
    for op in all_test_operators():
        s = right_inverse(op)
        f = CoeffVector.unit((op.offsets[0] + 1,), (op.offsets[0],))
        prev = coeff_norm_log(f)
        for k in range(1, 16):
            cur = coeff_norm_log(apply_power(s, f, k))
            assert cur < prev
            prev = cur


def test_adjoint_pairing_single_elements():
    op = theta_backward_shift(math.pi, 0.0, 1)
    # u = e_m, v = e_{m-1}: both sides equal the action weight exactly
    assert adjoint_pairing_gap_log(op, CoeffVector.unit((4,), (1,)), CoeffVector.unit((3,), (1,))) == NEG_INF
    # off-diagonal: both sides zero
    assert adjoint_pairing_gap_log(op, CoeffVector.unit((4,), (1,)), CoeffVector.unit((4,), (1,))) == NEG_INF


def test_adjoint_pairing_random_vectors():
    rng = random.Random(107)
    op = theta_backward_shift(math.pi, 0.0, 1)
    max_w = op.weights[0].log_weight(45)
    for _ in range(50):
        u = rand_coeff_vector(rng, 1, 10, 40)
        v = rand_coeff_vector(rng, 1, 10, 40)
        gap = adjoint_pairing_gap_log(op, u, v)
        bound = math.log(1e-11) + coeff_norm_log(u) + coeff_norm_log(v) + max_w
        assert gap <= bound


def matrix_triplets(op, n_max):
    """The (row, col, log-weight) triplets of matrix_columns."""
    rows, cols, logs = matrix_columns(op, n_max)
    assert len(rows) == len(cols) == len(logs) and logs.dtype == "float64"
    return list(zip(rows, cols, logs.tolist()))


def test_matrix_triplets_backward():
    op = bargmann_backward_shift(0)
    triplets = matrix_triplets(op, 3)
    assert [(r, c) for r, c, _ in triplets] == [(0, 1), (1, 2), (2, 3)]
    for (_, col, logw), expect in zip(triplets, (1.0, 2.0, 3.0)):
        assert abs(math.exp(logw) - math.sqrt(expect)) <= 1e-12
        assert 0 <= col <= 3


def test_matrix_triplets_minimal_and_bounds():
    op = theta_backward_shift(math.pi, 0.0, 2)
    assert len(matrix_triplets(op, 3)) == 1
    with pytest.raises(ValidationError):
        matrix_triplets(op, 2)
    for direction_builder in (right_inverse, adjoint_forward):
        trip = matrix_triplets(direction_builder(op), 6)
        for r, c, _ in trip:
            assert 2 <= r <= 6 and 2 <= c <= 6


def test_matrix_triplets_reject_a_size_above_the_index_limit():
    op = bargmann_backward_shift(0)
    for n_max in (2**40, MAX_INDICES + 1):
        with pytest.raises(ValidationError, match=f"limit of {MAX_INDICES}"):
            matrix_triplets(op, n_max)
    # the limit counts columns, not the row number: a large offset leaves a small matrix
    far = bargmann_backward_shift(2**45)
    assert len(matrix_triplets(far, 2**45 + 3)) == 3


def test_offset_mismatch_raises():
    op = theta_backward_shift(math.pi, 0.0, 1)
    with pytest.raises(OffsetMismatch):
        apply_power(op, CoeffVector.unit((3,), (0,)), 1)
    with pytest.raises(OffsetMismatch):
        apply_power(op, CoeffVector.unit((3,), (2,)), 1)


def test_operator_json_round_trip():
    # the operator files of all_test_operators(), in its order
    thetas = [{"family": "theta_composite", "nu": math.pi, "alpha": 0.0, "p": p} for p in (0, 1, 2)]
    bargmanns = [{"family": "bargmann_composite", "p": p} for p in (0, 1, 2)]
    weights = [*(w for pair in zip(thetas, bargmanns) for w in pair),
               {"family": "theta_composite", "nu": 2.0, "alpha": -0.3, "p": 1}]
    for w, op in zip(weights, all_test_operators(), strict=True):
        op2 = shift_operator_from_json({"direction": "backward", "weights": w})
        assert op2 == op
        assert op2.direction is op.direction
        m = op.offsets[0] + 3
        assert abs(op2.weights[0].log_weight(m) - op.weights[0].log_weight(m)) <= 1e-15
