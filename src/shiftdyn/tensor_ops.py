"""Tensor-product vectors and the tensor of two shift operators.

A `TensorVector` is a sparse map over index pairs (m, n) with m >= p1,
n >= p2 -- eigenvector truncations fill dense rectangles while orbit
vectors live on sparse diagonals, and one map serves both.  The tensor
operator acts diagonally on the product basis: the pair (m, n) moves to
(m-1, n-1) carrying the product of the factor action weights, and dies
exactly when either factor sits at its lowest index.  The vector algebra
(sum, scaling, inner product, norm) is the `coeff_*` family of `basis`,
which serves both vector kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .basis import CoeffVector, coeff_inner
from .errors import OffsetMismatch, ValidationError
from .numerics import LC_ZERO, LogComplex, int_parse, lc_mul, lc_parse, lc_sub
from .shift_ops import (
    Direction,
    ShiftOperator,
    _action_rule,
    adjoint,
    right_inverse,
    shift_operator_from_json,
)


@dataclass(slots=True)
class TensorVector:
    offsets: tuple[int, int] = (0, 0)
    entries: dict[tuple[int, int], LogComplex] = field(default_factory=dict)
    # (u, v) on what tensor_of(u, v) returns; None on any other vector, replace() results included
    factors: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        offsets = (int_parse(obj["p1"], "p1"), int_parse(obj["p2"], "p2"))
        entries = {
            (int_parse(m, "entry index"), int_parse(n, "entry index")): lc_parse(logmag, phase)
            for m, n, logmag, phase in obj.get("entries", [])
        }
        return cls.from_entries(offsets, entries)


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
    """Outer product, keeping (u, v) as its `factors`; bilinear, zero when either factor is."""
    entries = {}
    for m, cu in u.entries.items():
        for n, cv in v.entries.items():
            entries[(m, n)] = lc_mul(cu, cv)
    w = TensorVector((u.offset_p, v.offset_p), entries)
    w.factors = (u, v)
    return w


def _check_offsets(op: TensorOperator, w: TensorVector) -> None:
    if w.offsets != op.offsets:
        raise OffsetMismatch(f"vector offsets {w.offsets} do not match operator {op.offsets}")


def _factor_terms(op: TensorOperator, w: TensorVector, k: int):
    """(target, c, s1, s2) for each entry of w that survives k >= 1 steps.

    Each factor acts by the k-step rule of `shift_ops`; s1 and s2 are its
    signed log-weight spans, taken once per distinct index on each axis.  An
    entry is dropped on its indices alone, before any weight is read.
    """
    # the factors share a direction, so their rules differ only in floor and span
    shift, lo, hi, sign, floor1, span1 = _action_rule(op.left, k)
    floor2, span2 = _action_rule(op.right, k)[4:]
    spans1: dict[int, float] = {}
    spans2: dict[int, float] = {}
    for (m, n), c in w.entries.items():
        if m < floor1 or n < floor2:
            continue
        s1 = spans1.get(m)
        if s1 is None:
            s1 = spans1[m] = sign * span1(m + lo, m + hi)
        s2 = spans2.get(n)
        if s2 is None:
            s2 = spans2[n] = sign * span2(n + lo, n + hi)
        yield (m + shift, n + shift), c, s1, s2


def tensor_apply(op: TensorOperator, w: TensorVector) -> TensorVector:
    """One application of left (x) right, extended linearly.

    The two factor weights are added first, (wl + wr), and applied as one
    float, so a right-inverse step followed by a backward step subtracts and
    re-adds the identical value.
    """
    _check_offsets(op, w)
    out = {
        key: LogComplex(c.logmag + (s1 + s2), c.phase)
        for key, c, s1, s2 in _factor_terms(op, w, 1)
    }
    return TensorVector(op.offsets, out)


def tensor_power_apply(op: TensorOperator, w: TensorVector, k: int) -> TensorVector:
    """k-fold application with each factor's weight product as one log-sum.

    Backward entries vanish exactly once k exceeds min(m - p1, n - p2).  The
    spans are applied one after the other, (c + s1) + s2.
    """
    if k < 0:
        raise ValidationError(f"power must be >= 0, got {k}")
    _check_offsets(op, w)
    if k == 0:
        return TensorVector(w.offsets, dict(w.entries))
    out = {
        key: LogComplex(c.logmag + s1 + s2, c.phase)
        for key, c, s1, s2 in _factor_terms(op, w, k)
    }
    return TensorVector(op.offsets, out)


def tensor_adjoint_pairing_gap_log(op: TensorOperator, w1: TensorVector, w2: TensorVector) -> float:
    """log |<T w1, w2> - <w1, T* w2>| with T* the tensor of factor adjoints."""
    lhs = coeff_inner(tensor_apply(op, w1), w2)
    rhs = coeff_inner(w1, tensor_apply(tensor_adjoint(op), w2))
    return lc_sub(lhs, rhs).logmag


def tensor_operator_from_json(obj: dict) -> TensorOperator:
    return TensorOperator(
        shift_operator_from_json(obj["left"]), shift_operator_from_json(obj["right"])
    )
