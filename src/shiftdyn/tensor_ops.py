"""Tensor-product vectors and the tensor of two shift operators.

A `TensorVector` is a sparse map over index pairs (m, n) with m >= p1,
n >= p2 -- eigenvector truncations fill dense rectangles while orbit
vectors live on sparse diagonals, and one map serves both.  The tensor
operator acts diagonally on the product basis: the pair (m, n) moves to
(m-1, n-1) carrying the product of the factor action weights, and dies
exactly when either factor sits at its lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .basis import CoeffVector
from .errors import OffsetMismatch, ValidationError
from .numerics import (
    LC_ZERO,
    LogComplex,
    lc_add,
    lc_conj,
    lc_mul,
    lc_neg,
    lc_sub,
    wrap_phase,
)
from .shift_ops import Direction, ShiftOperator, adjoint, right_inverse


@dataclass(slots=True)
class TensorVector:
    offsets: tuple[int, int] = (0, 0)
    entries: dict[tuple[int, int], LogComplex] = field(default_factory=dict)

    def __post_init__(self):
        p1, p2 = self.offsets
        for (m, n), c in self.entries.items():
            if m < p1 or n < p2:
                raise ValidationError(f"index ({m}, {n}) below offsets {self.offsets}")
            if c.is_zero:
                raise ValidationError("exact zeros must be absent keys, not stored")

    @classmethod
    def unit(cls, m: int, n: int, offsets: tuple[int, int] = (0, 0)) -> "TensorVector":
        return cls(offsets, {(m, n): LogComplex(0.0, 0.0)})

    @classmethod
    def from_entries(
        cls, offsets: tuple[int, int], entries: Mapping[tuple[int, int], LogComplex]
    ) -> "TensorVector":
        return cls(offsets, {k: c for k, c in entries.items() if not c.is_zero})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def get(self, m: int, n: int) -> LogComplex:
        return self.entries.get((m, n), LC_ZERO)

    def to_json_dict(self) -> dict:
        return {
            "p1": self.offsets[0],
            "p2": self.offsets[1],
            "entries": [
                [m, n, self.entries[(m, n)].logmag, self.entries[(m, n)].phase]
                for (m, n) in self.support()
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TensorVector":
        entries = {}
        for m, n, logmag, phase in obj.get("entries", []):
            entries[(int(m), int(n))] = LogComplex(float(logmag), wrap_phase(float(phase)))
        return cls.from_entries((int(obj["p1"]), int(obj["p2"])), entries)


@dataclass(frozen=True, slots=True)
class TensorOperator:
    left: ShiftOperator
    right: ShiftOperator

    def __post_init__(self):
        if self.left.direction is not self.right.direction:
            raise ValidationError(
                "tensor factors must share a direction "
                f"({self.left.direction.value} vs {self.right.direction.value})"
            )

    @property
    def direction(self) -> Direction:
        return self.left.direction

    @property
    def offsets(self) -> tuple[int, int]:
        return (self.left.offset_p, self.right.offset_p)

    def to_json_dict(self) -> dict:
        return {"left": self.left.to_json_dict(), "right": self.right.to_json_dict()}


def tensor_right_inverse(op: TensorOperator) -> TensorOperator:
    return TensorOperator(right_inverse(op.left), right_inverse(op.right))


def tensor_adjoint(op: TensorOperator) -> TensorOperator:
    return TensorOperator(adjoint(op.left), adjoint(op.right))


def tensor_of(u: CoeffVector, v: CoeffVector) -> TensorVector:
    """Outer product; bilinear, and zero whenever either factor is zero."""
    entries = {}
    for m, cu in u.entries.items():
        for n, cv in v.entries.items():
            entries[(m, n)] = lc_mul(cu, cv)
    return TensorVector((u.offset_p, v.offset_p), entries)


def _check_offsets(op: TensorOperator, w: TensorVector) -> None:
    if w.offsets != op.offsets:
        raise OffsetMismatch(f"vector offsets {w.offsets} do not match operator {op.offsets}")


def _step_weight_log(op: TensorOperator, m: int, n: int) -> float:
    """Combined log-weight of one diagonal step at source (m, n).

    Kept as a single float so the right-inverse-then-backward roundtrip
    subtracts and re-adds the identical value.
    """
    return op.left.log_action_weight(m) + op.right.log_action_weight(n)


def tensor_apply(op: TensorOperator, w: TensorVector) -> TensorVector:
    """One application of left (x) right, extended linearly."""
    _check_offsets(op, w)
    p1, p2 = op.offsets
    out: dict[tuple[int, int], LogComplex] = {}
    if op.direction is Direction.BACKWARD:
        for (m, n), c in w.entries.items():
            if m == p1 or n == p2:
                continue
            out[(m - 1, n - 1)] = LogComplex(c.logmag + _step_weight_log(op, m, n), c.phase)
    elif op.direction is Direction.RIGHT_INVERSE:
        for (m, n), c in w.entries.items():
            out[(m + 1, n + 1)] = LogComplex(c.logmag - _step_weight_log(op, m + 1, n + 1), c.phase)
    else:
        for (m, n), c in w.entries.items():
            out[(m + 1, n + 1)] = LogComplex(c.logmag + _step_weight_log(op, m + 1, n + 1), c.phase)
    return TensorVector(op.offsets, out)


def tensor_power_apply(op: TensorOperator, w: TensorVector, k: int) -> TensorVector:
    """k-fold application with each factor's weight product as one log-sum.

    Backward entries vanish exactly once k exceeds min(m - p1, n - p2).
    """
    if k < 0:
        raise ValidationError(f"power must be >= 0, got {k}")
    _check_offsets(op, w)
    if k == 0:
        return TensorVector(w.offsets, dict(w.entries))
    p1, p2 = op.offsets
    out: dict[tuple[int, int], LogComplex] = {}
    if op.direction is Direction.BACKWARD:
        for (m, n), c in w.entries.items():
            if k > m - p1 or k > n - p2:
                continue
            s1 = op.left.log_weight_span(m - k + 1, m)
            s2 = op.right.log_weight_span(n - k + 1, n)
            out[(m - k, n - k)] = LogComplex(c.logmag + s1 + s2, c.phase)
    elif op.direction is Direction.RIGHT_INVERSE:
        for (m, n), c in w.entries.items():
            s1 = op.left.log_weight_span(m + 1, m + k)
            s2 = op.right.log_weight_span(n + 1, n + k)
            out[(m + k, n + k)] = LogComplex(c.logmag - s1 - s2, c.phase)
    else:
        for (m, n), c in w.entries.items():
            s1 = op.left.log_weight_span(m + 1, m + k)
            s2 = op.right.log_weight_span(n + 1, n + k)
            out[(m + k, n + k)] = LogComplex(c.logmag + s1 + s2, c.phase)
    return TensorVector(op.offsets, out)


def tensor_right_inverse_apply(op: TensorOperator, w: TensorVector, k: int) -> TensorVector:
    if op.direction is not Direction.RIGHT_INVERSE:
        raise ValidationError("operator factors must be in the right-inverse direction")
    return tensor_power_apply(op, w, k)


def tensor_inner(w1: TensorVector, w2: TensorVector) -> LogComplex:
    """<w1, w2> over index pairs; factorizes on rank-one inputs."""
    if w1.offsets != w2.offsets:
        raise OffsetMismatch(f"offsets differ: {w1.offsets} vs {w2.offsets}")
    acc = LC_ZERO
    for key in sorted(set(w1.entries) & set(w2.entries)):
        acc = lc_add(acc, lc_mul(w1.entries[key], lc_conj(w2.entries[key])))
    return acc


def tensor_norm_log(w: TensorVector) -> float:
    return tensor_inner(w, w).logmag / 2.0


def tensor_add(w1: TensorVector, w2: TensorVector) -> TensorVector:
    if w1.offsets != w2.offsets:
        raise OffsetMismatch(f"offsets differ: {w1.offsets} vs {w2.offsets}")
    out = dict(w1.entries)
    for key, c in w2.entries.items():
        s = lc_add(out[key], c) if key in out else c
        if s.is_zero:
            out.pop(key, None)
        else:
            out[key] = s
    return TensorVector(w1.offsets, out)


def tensor_neg(w: TensorVector) -> TensorVector:
    return TensorVector(w.offsets, {k: lc_neg(c) for k, c in w.entries.items()})


def tensor_sub(w1: TensorVector, w2: TensorVector) -> TensorVector:
    return tensor_add(w1, tensor_neg(w2))


def tensor_scale(w: TensorVector, a: LogComplex) -> TensorVector:
    if a.is_zero:
        return TensorVector(w.offsets, {})
    return TensorVector(w.offsets, {k: lc_mul(c, a) for k, c in w.entries.items()})


def tensor_adjoint_pairing_gap_log(op: TensorOperator, w1: TensorVector, w2: TensorVector) -> float:
    """log |<T w1, w2> - <w1, T* w2>| with T* the tensor of factor adjoints."""
    lhs = tensor_inner(tensor_apply(op, w1), w2)
    rhs = tensor_inner(w1, tensor_apply(tensor_adjoint(op), w2))
    return lc_sub(lhs, rhs).logmag


def tensor_operator_from_json(obj: dict) -> TensorOperator:
    from .shift_ops import shift_operator_from_json

    return TensorOperator(
        shift_operator_from_json(obj["left"]), shift_operator_from_json(obj["right"])
    )
