"""Weighted shift operators on a single coefficient space.

A `ShiftOperator` couples an action-weight sequence a(m) (defined for
m >= p+1) with a direction:

* backward        -- e_m -> a(m) e_{m-1} for m > p, e_p -> exact zero
* right inverse   -- e_m -> (1/a(m+1)) e_{m+1}; the backward shift composed
                     after it is the identity, with the log-weight added
                     back being the very float that was subtracted
* adjoint forward -- e_m -> a(m+1) e_{m+1}, the adjoint of the backward
                     shift (weights are real positive)

All applications act entrywise on finite-support vectors; weights never
touch phases, so phases survive every direction bit-for-bit.

Every action is one k-step rule (`apply` is k = 1), and it serves the
tensor operators of `tensor_ops` too: an operator exposes its per-axis
`factors` and `offsets` (a `ShiftOperator` is its own single factor), and
each axis of a vector moves by its factor's rule.  Powers take each
weight product as one log-sum over a span of source indices, read from the
weight sequence's own table (`WeightSequence.log_weight_span`), which every
operator and direction over those weights shares; a single step reads its
one weight directly.  For the backward direction `nilpotence_index` gives
the least power that sends a vector to exact zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from operator import add, ge, getitem, sub

from .basis import CoeffVector, coeff_inner
from .errors import OffsetMismatch, ValidationError
from .numerics import LogComplex, lc_sub
from .weights import WeightSequence, check_index_count, weight_sequence_from_json


class Direction(enum.Enum):
    BACKWARD = "backward"
    RIGHT_INVERSE = "right_inverse"
    ADJOINT_FORWARD = "adjoint_forward"


@dataclass(frozen=True, slots=True)
class ShiftOperator:
    weights: WeightSequence
    direction: Direction = Direction.BACKWARD

    @property
    def offset_p(self) -> int:
        return self.weights.offset_p

    @property
    def offsets(self) -> tuple[int]:
        return (self.weights.offset_p,)

    @property
    def factors(self) -> tuple["ShiftOperator"]:
        return (self,)

    def _redirect(self, direction: Direction) -> "ShiftOperator":
        return ShiftOperator(self.weights, direction)

    def to_json_dict(self) -> dict:
        return {"direction": self.direction.value, "weights": self.weights.to_json_dict()}


def right_inverse(op):
    """The right inverse of a backward operator; a tensor operator's, factor by factor."""
    if op.direction is not Direction.BACKWARD:
        raise ValidationError("right inverse is defined for the backward direction")
    return op._redirect(Direction.RIGHT_INVERSE)


def adjoint(op):
    """The adjoint (weights are real positive); a tensor operator's, factor by factor."""
    if op.direction is Direction.BACKWARD:
        return op._redirect(Direction.ADJOINT_FORWARD)
    if op.direction is Direction.ADJOINT_FORWARD:
        return op._redirect(Direction.BACKWARD)
    raise ValidationError("adjoint of the right inverse is not represented")


def _action_rule(op: ShiftOperator, k: int):
    """The k-step action of op, k >= 1, as (shift, lo, hi, sign, floor, span).

    The entry at source index m survives when m >= floor, moves to m + shift
    and adds sign * span(m + lo, m + hi) to its log-magnitude.  `span` is
    the weights' `log_weight_span`, except at k = 1: a single step reads its
    one weight directly, so a step at a far index does not tabulate every
    weight below it.  That weight is the span's float too (0.0 + w == w),
    and c + (-w) == c - w, so a step adds or subtracts the very float
    `log_weight` returns.
    """
    weights = op.weights
    span = weights.log_weight_span if k > 1 else lambda lo, hi: weights.log_weight(lo)
    if op.direction is Direction.BACKWARD:
        return -k, 1 - k, 0, 1.0, op.offset_p + k, span
    sign = -1.0 if op.direction is Direction.RIGHT_INVERSE else 1.0
    return k, 1, k, sign, op.offset_p, span


def nilpotence_index(op, v: CoeffVector) -> int:
    """The least k with T^k v = 0 for op's backward direction; 0 for the zero vector.

    The entry at key dies once k > min(key[i] - offsets[i]).
    """
    return max((min(map(sub, key, op.offsets)) + 1 for key in v.entries), default=0)


def apply(op, v: CoeffVector) -> CoeffVector:
    """One application of the operator, extended linearly over the support."""
    return apply_power(op, v, 1)


def apply_power(op, v: CoeffVector, k: int) -> CoeffVector:
    """k-fold application, with each axis's weight product taken as one log-sum.

    Each axis moves by its factor's k-step rule.  An entry is dropped on its
    indices alone, before any weight is read: for the backward direction the
    entry at key is exactly zero once k > min(key[i] - offsets[i]), and past
    the whole support the result is the exact zero vector.  Each axis reads
    its signed span once per distinct index, and the spans are added first,
    c + (s1 + s2 + ...), from s1 rather than 0.0; a right-inverse step
    followed by a backward step thus subtracts and re-adds the identical
    float.
    """
    if k < 0:
        raise ValidationError(f"power must be >= 0, got {k}")
    if v.offsets != op.offsets:
        raise OffsetMismatch(f"vector offsets {v.offsets} do not match operator offsets {op.offsets}")
    if k == 0:
        return CoeffVector(v.offsets, dict(v.entries))
    factors = op.factors
    if len(factors) == 1:
        # one axis, the operator its own factor: every index is its own key, so a span needs
        # no cache.  This is the hot path (a single_orbit benchmark pass at seed 1 makes 2,159
        # small calls); through the general path below, that pass ran 1-18% slower.
        shift, lo, hi, sign, floor, span = _action_rule(op, k)
        out = {
            (m + shift,): LogComplex(c.logmag + sign * span(m + lo, m + hi), c.phase)
            for (m,), c in v.entries.items()
            if m >= floor
        }
        return CoeffVector(v.offsets, out)
    rules = [_action_rule(f, k) for f in factors]
    shift, lo, hi, sign = rules[0][:4]  # the factors share a direction
    floors = [rule[4] for rule in rules]
    live = [(key, c) for key, c in v.entries.items() if all(map(ge, key, floors))]
    spans = [
        {m: sign * span(m + lo, m + hi) for m in {key[i] for key, _ in live}}
        for i, (*_, span) in enumerate(rules)
    ]
    out = {
        tuple(m + shift for m in key):
            LogComplex(c.logmag + reduce(add, map(getitem, spans, key)), c.phase)
        for key, c in live
    }
    return CoeffVector(v.offsets, out)


def adjoint_pairing_gap_log(op, u: CoeffVector, v: CoeffVector) -> float:
    """log |<T u, v> - <u, T* v>|; -inf when the pairing matches exactly."""
    lhs = coeff_inner(apply(op, u), v)
    rhs = coeff_inner(u, apply(adjoint(op), v))
    return lc_sub(lhs, rhs).logmag


def matrix_triplets(op: ShiftOperator, n_max: int) -> list[tuple[int, int, float]]:
    """Sparse triplets (row, col, log-weight) of the truncated matrix.

    Covers basis columns up to n_max; all row/col indices stay in
    [offset_p, n_max].
    """
    if n_max <= op.offset_p:
        raise ValidationError(f"truncation must exceed the offset {op.offset_p}, got {n_max}")
    # column m is e_m under one step, reading the weight at m + lo; sign = +-1, so sign * w is exact
    shift, lo, _, sign, floor, _ = _action_rule(op, 1)
    cols = range(floor, n_max + 1 - max(shift, 0))
    check_index_count(cols.stop - cols.start, "matrix size")
    weights = op.weights.log_weights(range(cols.start + lo, cols.stop + lo))
    return [(m + shift, m, sign * w) for m, w in zip(cols, weights.tolist())]


def shift_operator_from_json(obj: dict) -> ShiftOperator:
    # read first, so that a non-object raises TypeError here rather than AttributeError
    weights = weight_sequence_from_json(obj["weights"])
    try:
        direction = Direction(obj.get("direction", "backward"))
    except ValueError:
        raise ValidationError(f"unknown direction {obj.get('direction')!r}") from None
    return ShiftOperator(weights, direction)
