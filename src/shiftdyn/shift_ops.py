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
weight product as one log-sum over a span of source indices
(`ShiftOperator.log_weight_span`); a single step reads its one weight
directly.  Every operator keeps a lazily grown table of its log action
weights, holding the very floats `log_action_weight` returns, appended in
ascending order and only up to the highest index a span has asked for.  A span adds the tabulated floats one by
one, left to right from 0.0, so it is bit-identical to evaluating each
weight and summing in a loop; each weight is evaluated once per operator
instead of once per span.  Indices the weights reject are never tabulated:
a span touching one raises the same error, at the same index, as the
termwise loop.  Growth is serialized by a lock and only ever appends, so
one operator may be shared across threads.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from functools import reduce
from operator import add, ge, getitem

import numpy as np

from .basis import CoeffVector, coeff_inner
from .errors import OffsetMismatch, ValidationError
from .numerics import LogComplex, lc_sub
from .weights import WeightSequence, check_index_count, weight_sequence_from_json


class Direction(enum.Enum):
    BACKWARD = "backward"
    RIGHT_INVERSE = "right_inverse"
    ADJOINT_FORWARD = "adjoint_forward"


class _LogWeightTable:
    """Log action weights at indices base, base+1, ..., appended on demand."""

    __slots__ = ("base", "values", "lock")

    def __init__(self, base: int):
        self.base = base
        self.values: list[float] = []
        self.lock = threading.Lock()

    def __reduce__(self):  # copies and pickles start empty; a lock does not pickle
        return (_LogWeightTable, (self.base,))

    def grow(self, weight, top: int) -> None:
        """Tabulate up to index `top`, stopping at the first rejected index."""
        with self.lock:
            values = self.values
            try:
                for i in range(self.base + len(values), top + 1):
                    values.append(weight(i))
            except ValidationError:
                pass


@dataclass(frozen=True, slots=True)
class ShiftOperator:
    weights: WeightSequence
    direction: Direction = Direction.BACKWARD
    _table: _LogWeightTable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # spans start at p+1; a table's weights may start later
        base = max(self.offset_p + 1, self.weights.scan_start)
        object.__setattr__(self, "_table", _LogWeightTable(base))

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

    def log_action_weight(self, m: int) -> float:
        return self.weights.log_weight(m)

    def log_weight_span(self, lo: int, hi: int) -> float:
        """Sum of log action weights over source indices lo..hi, ascending.

        Bit-identical to adding `log_action_weight(j)` for j = lo..hi one by
        one to 0.0; 0.0 when hi < lo.
        """
        if hi < lo:
            return 0.0
        table = self._table
        base, values = table.base, table.values
        if lo < base or hi - base >= len(values):
            table.grow(self.log_action_weight, hi)
            if lo < base or hi - base >= len(values):
                # the span reaches below the table or to an index the weights
                # reject; the termwise loop raises where it always did
                acc = 0.0
                for j in range(lo, hi + 1):
                    acc += self.log_action_weight(j)
                return acc
        acc = 0.0
        for w in values[lo - base : hi - base + 1]:
            acc += w
        return acc

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
    `op.log_weight_span`, except at k = 1: a single step reads its one
    weight directly, so a step at a far index does not tabulate every weight
    below it.  That weight is the span's float too (0.0 + w == w), and
    c + (-w) == c - w, so a step adds or subtracts the very float
    `log_action_weight` returns.
    """
    span = op.log_weight_span if k > 1 else lambda lo, hi: op.log_action_weight(lo)
    if op.direction is Direction.BACKWARD:
        return -k, 1 - k, 0, 1.0, op.offset_p + k, span
    sign = -1.0 if op.direction is Direction.RIGHT_INVERSE else 1.0
    return k, 1, k, sign, op.offset_p, span


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
        # no cache.  This is the hot path (a hypercyclic search makes ~1e4 small calls), where
        # the general path below measured several microseconds more per call.
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
    weights = op.weights.log_weights(np.arange(cols.start + lo, cols.stop + lo, dtype=np.int64))
    return [(m + shift, m, sign * w) for m, w in zip(cols, weights.tolist())]


def shift_operator_from_json(obj: dict) -> ShiftOperator:
    # read first, so that a non-object raises TypeError here rather than AttributeError
    weights = weight_sequence_from_json(obj["weights"])
    try:
        direction = Direction(obj.get("direction", "backward"))
    except ValueError:
        raise ValidationError(f"unknown direction {obj.get('direction')!r}") from None
    return ShiftOperator(weights, direction)
