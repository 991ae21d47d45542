"""Weighted shift operators: one weight sequence per axis, and one direction.

A `ShiftOperator` couples one action-weight sequence a(m) (defined for
m >= p+1) per axis with a direction:

* backward        -- e_m -> a(m) e_{m-1} for m > p, e_p -> exact zero
* right inverse   -- e_m -> (1/a(m+1)) e_{m+1}; the backward shift composed
                     after it is the identity, with the log-weight added
                     back being the very float that was subtracted
* adjoint forward -- e_m -> a(m+1) e_{m+1}, the adjoint of the backward
                     shift (weights are real positive); an operator file
                     names it as its direction

With two axes it is the tensor product T1 (x) T2 (`tensor_operator`),
acting diagonally: the pair (m, n) moves to (m-1, n-1) carrying the product
of the factor weights, and dies exactly when either factor sits at its
lowest index.

All applications act entrywise on finite-support vectors; weights never
touch phases, so phases survive every direction bit-for-bit.  Every action
is one k-step rule per axis, `apply_power`; a single step is k = 1.  Powers
take each weight product as one log-sum over a span of source indices,
`WeightSequence.log_weight_span`, which evaluates each weight once for
every operator and direction over those weights, and only the weights its
spans read.  For the backward direction
`nilpotence_index` gives the least power that sends a vector to exact zero.
"""

from __future__ import annotations

import enum
from functools import reduce
from operator import add, ge, getitem, sub

from .basis import CoeffVector
from .errors import OffsetMismatch, OverflowNotRepresentable, ValidationError
from .numerics import NEG_INF, LogComplex
from .value import Value
from .weights import WeightSequence, check_index_count, weight_sequence_from_json


class Direction(enum.Enum):
    BACKWARD = "backward"
    RIGHT_INVERSE = "right_inverse"
    ADJOINT_FORWARD = "adjoint_forward"


class ShiftOperator(Value, frozen=True):
    _fields = ("weights", "direction")  # weights: one per axis, one axis or the two of a tensor product
    __slots__ = (*_fields, "offsets")

    def __init__(self, weights: tuple[WeightSequence, ...], direction: Direction = Direction.BACKWARD):
        if not (isinstance(weights, tuple) and len(weights) in (1, 2)
                and all(isinstance(w, WeightSequence) for w in weights)):
            raise ValidationError(f"an operator takes a tuple of one or two weight sequences: {weights!r}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "direction", direction)
        # derived once: every action checks the vector's offsets against these
        object.__setattr__(self, "offsets", tuple(w.offset_p for w in weights))


def right_inverse(op: ShiftOperator) -> ShiftOperator:
    """The right inverse of a backward operator, axis by axis."""
    if op.direction is not Direction.BACKWARD:
        raise ValidationError("right inverse is defined for the backward direction")
    return ShiftOperator(op.weights, Direction.RIGHT_INVERSE)


def _action_rule(weights: WeightSequence, direction: Direction, k: int):
    """The k-step action along an axis with these weights, k >= 1, as (shift, lo, hi, sign, floor, span).

    The entry at source index m survives when m >= floor, moves to m + shift
    and adds sign * span(m + lo, m + hi) to its log-magnitude, `span` being
    the weights' `log_weight_span` at every k.  A single step's span is its
    one weight (0.0 + w == w), and c + (-w) == c - w, so a step adds or
    subtracts the very float `log_weight` returns.
    """
    span = weights.log_weight_span
    if direction is Direction.BACKWARD:
        return -k, 1 - k, 0, 1.0, weights.offset_p + k, span
    sign = -1.0 if direction is Direction.RIGHT_INVERSE else 1.0
    return k, 1, k, sign, weights.offset_p, span


def nilpotence_index(op, v: CoeffVector) -> int:
    """The least k with T^k v = 0 for op's backward direction; 0 for the zero vector.

    The entry at key dies once k > min(key[i] - offsets[i]).
    """
    return max((min(map(sub, key, op.offsets)) + 1 for key in v.entries), default=0)


def apply_power(op, v: CoeffVector, k: int) -> CoeffVector:
    """k-fold application, with each axis's weight product taken as one log-sum.

    Each axis moves by its own k-step rule.  An entry is dropped on its
    indices alone, before any weight is read: for the backward direction the
    entry at key is exactly zero once k > min(key[i] - offsets[i]), and past
    the whole support the result is the exact zero vector.  Each axis reads
    its signed span once per distinct index, and the spans are added first,
    c + (s1 + s2 + ...), from s1 rather than 0.0; a right-inverse step
    followed by a backward step thus subtracts and re-adds the identical
    float.  A result log-magnitude of +inf or -inf raises `OverflowNotRepresentable`
    naming its index, from the result vector's own check of each entry.
    """
    if k < 0:
        raise ValidationError(f"power must be >= 0, got {k}")
    if v.offsets != op.offsets:
        raise OffsetMismatch(f"vector offsets {v.offsets} do not match operator offsets {op.offsets}")
    if k == 0:
        return CoeffVector(v.offsets, dict(v.entries))
    if len(op.weights) == 1:
        # one axis: every index is its own key, so a span needs no cache.  This is the hot path
        # (a single_orbit benchmark pass at seed 1 makes 287 calls over 968 entries); through
        # the general path below, that pass ran 5-8% slower (pass_s, 4 paired 10 s runs).
        shift, lo, hi, sign, floor, span = _action_rule(op.weights[0], op.direction, k)
        out = {
            (m + shift,): LogComplex(c.logmag + sign * span(m + lo, m + hi), c.phase)
            for (m,), c in v.entries.items()
            if m >= floor
        }
    else:
        rules = [_action_rule(w, op.direction, k) for w in op.weights]
        shift, lo, hi, sign = rules[0][:4]  # one direction for every axis
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
    try:  # the vector refuses a log-magnitude of +inf, and of -inf, which here is no stored zero
        return CoeffVector(v.offsets, out)
    except ValidationError:  # the keys are valid, so an entry is -inf
        key = next(key for key, c in out.items() if c.logmag == NEG_INF)
        raise OverflowNotRepresentable(f"the coefficient at {key} has log-magnitude -inf: not a float") from None


def matrix_columns(op: ShiftOperator, n_max: int) -> tuple[range, range, np.ndarray]:
    """Sparse triplets (row, col, log-weight) of the truncated matrix, as three columns.

    Covers basis columns up to n_max; all row/col indices stay in
    [offset_p, n_max].
    """
    if len(op.weights) != 1:
        raise ValidationError("the truncated matrix is defined for a one-axis operator")
    (weights,) = op.weights
    if n_max <= weights.offset_p:
        raise ValidationError(f"truncation must exceed the offset {weights.offset_p}, got {n_max}")
    # column m is e_m under one step, reading the weight at m + lo, negated (exactly) where sign is -1
    shift, lo, _, sign, floor, _ = _action_rule(weights, op.direction, 1)
    cols = range(floor, n_max + 1 - max(shift, 0))
    check_index_count(cols.stop - cols.start, "matrix size")
    logs = weights.log_weights(range(cols.start + lo, cols.stop + lo))
    return range(cols.start + shift, cols.stop + shift), cols, logs if sign > 0 else -logs


def tensor_operator(left: ShiftOperator, right: ShiftOperator) -> ShiftOperator:
    """left (x) right, the two-axis operator of two one-axis operators with one direction."""
    if len(left.weights) != 1 or len(right.weights) != 1:
        raise ValidationError("tensor factors must be one-axis operators")
    if left.direction is not right.direction:
        raise ValidationError(
            f"tensor factors must share a direction ({left.direction.value} vs {right.direction.value})"
        )
    return ShiftOperator(left.weights + right.weights, left.direction)


def shift_operator_from_json(obj: dict) -> ShiftOperator:
    """{"direction", "weights"} for one axis, {"left", "right"} (two such objects) for two."""
    if "left" in obj:
        return tensor_operator(shift_operator_from_json(obj["left"]), shift_operator_from_json(obj["right"]))
    # read first, so that a non-object raises TypeError here rather than AttributeError
    weights = weight_sequence_from_json(obj["weights"])
    try:
        direction = Direction(obj.get("direction", "backward"))
    except ValueError:
        raise ValidationError(f"unknown direction {obj.get('direction')!r}") from None
    return ShiftOperator((weights,), direction)
