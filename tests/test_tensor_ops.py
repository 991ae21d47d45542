"""Tensor vectors and the tensor of two shifts."""

import math
import random

import pytest

from shiftdyn import (
    CoeffVector,
    LC_ZERO,
    LogComplex,
    OffsetMismatch,
    ShiftOperator,
    TableRangeError,
    TableWeights,
    ValidationError,
    apply_power,
    bargmann_backward_shift,
    coeff_inner,
    coeff_norm_log,
    lc_from_complex,
    lc_mul,
    right_inverse,
    shift_operator_from_json,
    tensor_operator,
    theta_backward_shift,
)

from conftest import (
    adjoint_forward, adjoint_pairing_gap_log, coeff_add, coeff_sub, factors, rand_coeff_vector, rand_tensor_vector,
    rel_gap_log, tensor_of,
)

_THETA = {"family": "theta_composite", "nu": math.pi, "alpha": 0.0}
_BARGMANN = {"family": "bargmann_composite"}


def pair(p1=0, p2=0):
    return tensor_operator(theta_backward_shift(math.pi, 0.0, p1), bargmann_backward_shift(p2))


def axis_spec(weights: dict, p: int, direction: str = "backward") -> dict:
    return {"direction": direction, "weights": {**weights, "p": p}}


def pair_spec(p1=0, p2=0, direction="backward") -> dict:
    """The operator file of pair(p1, p2) in this direction."""
    return {"left": axis_spec(_THETA, p1, direction), "right": axis_spec(_BARGMANN, p2, direction)}


def test_tensor_of_units_and_distributivity():
    u = CoeffVector.unit((2,), (0,))
    v = CoeffVector.unit((5,), (0,))
    w = tensor_of(u, v)
    assert w.entries == {(2, 5): LogComplex(0.0, 0.0)}
    u2 = CoeffVector((0,), {(0,): LogComplex(0.0, 0.0), (1,): LogComplex(0.0, 0.0)})
    w2 = tensor_of(u2, CoeffVector.unit((0,), (0,)))
    assert w2.support() == [(0, 0), (1, 0)]
    assert all(c == LogComplex(0.0, 0.0) for c in w2.entries.values())


def test_tensor_of_zero_factor_collapses():
    zero = CoeffVector((0,), {})
    u = CoeffVector.unit((1,), (0,))
    assert tensor_of(zero, u).is_zero
    assert tensor_of(u, zero).is_zero


def test_tensor_of_scalar_moves_freely():
    rng = random.Random(51)
    lam = lc_from_complex(0.7 - 1.2j)

    def scaled(u):
        return CoeffVector(u.offsets, {key: lc_mul(c, lam) for key, c in u.entries.items()})

    for _ in range(20):
        u = rand_coeff_vector(rng, 0, 4, 10)
        v = rand_coeff_vector(rng, 0, 4, 10)
        left = tensor_of(scaled(u), v)
        right = tensor_of(u, scaled(v))
        assert left.support() == right.support()
        for key in left.support():
            assert rel_gap_log(left.entries[key], right.entries[key]) <= math.log(1e-13)


def test_tensor_apply_kills_bottom_rows():
    op = pair(0, 0)
    for n in range(0, 5):
        w = CoeffVector.unit((0, n), (0, 0))
        assert apply_power(op, w, 1).is_zero
        w2 = CoeffVector.unit((n, 0), (0, 0))
        assert apply_power(op, w2, 1).is_zero


def test_annihilated_entry_reads_no_weight_of_the_other_factor():
    short = ShiftOperator((TableWeights.from_weights([2.0, 3.0]),))  # weights at 1 and 2 only
    bargmann = bargmann_backward_shift(0)
    for op, at in (
        (tensor_operator(short, bargmann), lambda i, j: (i, j)),
        (tensor_operator(bargmann, short), lambda i, j: (j, i)),
    ):
        with pytest.raises(TableRangeError):  # a surviving entry does read the table
            apply_power(op, CoeffVector.unit(at(40, 1), (0, 0)), 1)
        assert apply_power(op, CoeffVector.unit(at(40, 0), (0, 0)), 1).is_zero
        assert apply_power(op, CoeffVector.unit(at(40, 3), (0, 0)), 4).is_zero


def test_tensor_apply_single_pair_example():
    op = pair(0, 0)
    out = apply_power(op, CoeffVector.unit((1, 1), (0, 0)), 1)
    # theta weight at 1 is exp(1) for nu=pi, alpha=0; bargmann weight is 1
    assert out.entries == {(0, 0): LogComplex(1.0, 0.0)}


def test_tensor_apply_rank_one_coherence():
    rng = random.Random(53)
    op = pair(0, 0)
    left, right = factors(op)
    # exact on unit tensors
    w = tensor_of(CoeffVector.unit((3,), (0,)), CoeffVector.unit((2,), (0,)))
    lhs = apply_power(op, w, 1)
    rhs = tensor_of(
        apply_power(left, CoeffVector.unit((3,), (0,)), 1),
        apply_power(right, CoeffVector.unit((2,), (0,)), 1),
    )
    assert lhs.entries == rhs.entries
    # within float tolerance on random rank-one tensors
    for _ in range(20):
        u = rand_coeff_vector(rng, 0, 5, 12)
        v = rand_coeff_vector(rng, 0, 5, 12)
        lhs = apply_power(op, tensor_of(u, v), 1)
        rhs = tensor_of(apply_power(left, u, 1), apply_power(right, v, 1))
        assert lhs.support() == rhs.support()
        for key in lhs.support():
            assert rel_gap_log(lhs.entries[key], rhs.entries[key]) <= math.log(1e-12)


def test_tensor_right_inverse_then_apply_identity():
    rng = random.Random(59)
    for offsets in ((0, 0), (1, 1), (2, 1)):
        op = pair(*offsets)
        s = right_inverse(op)
        for _ in range(20):
            w = rand_tensor_vector(rng, offsets, 8, 30)
            back = apply_power(op, apply_power(s, w, 1), 1)
            assert back.support() == w.support()
            for key in w.support():
                assert back.entries[key].phase == w.entries[key].phase
                assert abs(back.entries[key].logmag - w.entries[key].logmag) <= 1e-11


def test_tensor_right_inverse_identity_exact_on_units():
    op = pair(1, 1)
    s = right_inverse(op)
    for m in range(1, 6):
        for n in range(1, 6):
            w = CoeffVector.unit((m, n), (1, 1))
            back = apply_power(op, apply_power(s, w, 1), 1)
            assert back.entries == {(m, n): LogComplex(0.0, 0.0)}


def test_tensor_power_nilpotence_bound():
    op = pair(0, 0)
    for m in range(0, 6):
        for n in range(0, 6):
            w = CoeffVector.unit((m, n), (0, 0))
            bound = min(m, n)
            assert apply_power(op, w, bound + 1).is_zero
            if bound >= 1:
                assert not apply_power(op, w, bound).is_zero
            assert apply_power(op, w, 0).entries == w.entries


def test_tensor_power_matches_iteration():
    rng = random.Random(61)
    op = pair(0, 0)
    s = right_inverse(op)
    for target in (op, s):
        for _ in range(10):
            w = rand_tensor_vector(rng, (0, 0), 6, 15)
            k = rng.randint(1, 4)
            direct = apply_power(target, w, k)
            iterated = w
            for _ in range(k):
                iterated = apply_power(target, iterated, 1)
            assert direct.support() == iterated.support()
            for key in direct.support():
                assert rel_gap_log(direct.entries[key], iterated.entries[key]) <= math.log(1e-12)


def test_tensor_inverse_norm_additivity_exact():
    op = pair(1, 1)
    s = right_inverse(op)
    s_left, s_right = factors(right_inverse(op))
    f = CoeffVector.unit((1, 1), (1, 1))
    for k in range(1, 12):
        tensor_norm = coeff_norm_log(apply_power(s, f, k))
        left_norm = coeff_norm_log(apply_power(s_left, CoeffVector.unit((1,), (1,)), k))
        right_norm = coeff_norm_log(apply_power(s_right, CoeffVector.unit((1,), (1,)), k))
        assert tensor_norm == left_norm + right_norm


def test_tensor_right_inverse_power_support():
    s = right_inverse(pair(0, 0))
    out = apply_power(s, CoeffVector.unit((1, 1), (0, 0)), 2)
    assert out.support() == [(3, 3)]


def test_tensor_inner_orthonormal_and_factorization():
    rng = random.Random(67)
    w = CoeffVector.unit((2, 3), (0, 0))
    assert coeff_inner(w, w) == LogComplex(0.0, 0.0)
    assert coeff_inner(w, CoeffVector.unit((2, 4), (0, 0))) == LC_ZERO
    for _ in range(30):
        u = rand_coeff_vector(rng, 0, 4, 10)
        v = rand_coeff_vector(rng, 0, 4, 10)
        u2 = rand_coeff_vector(rng, 0, 4, 10)
        v2 = rand_coeff_vector(rng, 0, 4, 10)
        lhs = coeff_inner(tensor_of(u, v), tensor_of(u2, v2))
        rhs = lc_mul(coeff_inner(u, u2), coeff_inner(v, v2))
        if lhs.is_zero and rhs.is_zero:
            continue
        assert rel_gap_log(lhs, rhs) <= math.log(1e-11)


def test_tensor_inner_positive_definite():
    rng = random.Random(71)
    for _ in range(50):
        w = rand_tensor_vector(rng, (0, 0), 8, 20)
        q = coeff_inner(w, w)
        assert q.phase == 0.0
        assert math.isfinite(q.logmag)
    assert coeff_inner(CoeffVector((0, 0), {}), CoeffVector((0, 0), {})) == LC_ZERO


def test_tensor_adjoint_pairing():
    rng = random.Random(73)
    op = pair(1, 1)
    left, right = op.weights
    max_w = left.log_weight(25) + right.log_weight(25)
    for _ in range(50):
        w1 = rand_tensor_vector(rng, (1, 1), 10, 20)
        w2 = rand_tensor_vector(rng, (1, 1), 10, 20)
        gap = adjoint_pairing_gap_log(op, w1, w2)
        bound = math.log(1e-11) + coeff_norm_log(w1) + coeff_norm_log(w2) + max_w
        assert gap <= bound


def test_tensor_vector_validation_and_json():
    with pytest.raises(ValidationError):
        CoeffVector((1, 0), {(0, 2): LogComplex(0.0, 0.0)})
    with pytest.raises(ValidationError):
        CoeffVector((0, 0), {(1, 1): LC_ZERO})
    rng = random.Random(79)
    w = rand_tensor_vector(rng, (1, 2), 6, 15)
    w2 = CoeffVector.from_json_dict(w.to_json_dict())
    assert w2.offsets == w.offsets
    assert w2.entries == w.entries


def test_tensor_operator_validation_and_json():
    with pytest.raises(ValidationError):
        tensor_operator(
            theta_backward_shift(math.pi, 0.0, 0),
            factors(right_inverse(pair(0, 0)))[1],
        )
    mixed = {"left": axis_spec(_THETA, 0), "right": axis_spec(_BARGMANN, 0, "right_inverse")}
    with pytest.raises(ValidationError, match="share a direction"):
        shift_operator_from_json(mixed)
    op = pair(1, 2)
    op2 = shift_operator_from_json(pair_spec(1, 2))
    assert op2 == op
    assert op2.offsets == op.offsets
    assert op2.direction is op.direction


def test_one_reader_round_trips_both_operator_shapes():
    cases = (
        (axis_spec(_THETA, 1), theta_backward_shift(math.pi, 0.0, 1)),
        (pair_spec(1, 2), pair(1, 2)),
        (pair_spec(0, 1, "right_inverse"), right_inverse(pair(0, 1))),
        (pair_spec(2, 0, "adjoint_forward"), adjoint_forward(pair(2, 0))),
    )
    for spec, op in cases:
        assert shift_operator_from_json(spec) == op


def test_an_operator_has_one_or_two_weight_sequences():
    one, two = bargmann_backward_shift(0), pair(0, 0)
    assert two.weights == factors(pair(0, 0))[0].weights + one.weights
    assert [f.weights for f in factors(two)] == [(w,) for w in two.weights]  # the factors share the sequences
    for weights in (one.weights[0], (), two.weights + one.weights, list(two.weights), (one,), None):
        with pytest.raises(ValidationError, match="one or two weight sequences"):
            ShiftOperator(weights)
    for left, right in ((two, one), (one, two)):
        with pytest.raises(ValidationError, match="one-axis"):
            tensor_operator(left, right)
    with pytest.raises(ValidationError, match="one-axis"):
        shift_operator_from_json({"left": pair_spec(), "right": axis_spec(_BARGMANN, 0)})


def test_tensor_offset_mismatch():
    op = pair(1, 1)
    with pytest.raises(OffsetMismatch):
        apply_power(op, CoeffVector.unit((2, 2), (0, 0)), 1)
    with pytest.raises(OffsetMismatch):
        coeff_inner(CoeffVector.unit((1, 1), (1, 1)), CoeffVector.unit((1, 1), (0, 0)))
    u, w = CoeffVector.unit((0,), (0,)), CoeffVector.unit((0, 0), (0, 0))
    for fn in (coeff_add, coeff_sub, coeff_inner):
        for a, b in ((u, w), (w, u)):
            with pytest.raises(OffsetMismatch):
                fn(a, b)
