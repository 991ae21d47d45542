"""The tensor product of two shift operators, and tensor-product vectors.

A tensor vector is a two-axis `CoeffVector`: a sparse map over index pairs
(m, n) with m >= p1, n >= p2 -- eigenvector truncations fill dense
rectangles while orbit vectors live on sparse diagonals, and one map serves
both.  The tensor operator acts diagonally on the product basis: the pair
(m, n) moves to (m-1, n-1) carrying the product of the factor action
weights, and dies exactly when either factor sits at its lowest index.  It
exposes its two factors and their offsets, so `shift_ops.apply_power`,
`right_inverse` and `adjoint` act on it as on a single-space operator, and
the vector algebra (sum, scaling, inner product, norm) is the `coeff_*`
family of `basis`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import CoeffVector
from .errors import ValidationError
from .numerics import lc_mul
from .shift_ops import Direction, ShiftOperator, shift_operator_from_json

# a name kept for readers that look tensor vectors up here (the benchmark's tracer among them)
TensorVector = CoeffVector


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

    @property
    def factors(self) -> tuple[ShiftOperator, ShiftOperator]:
        return (self.left, self.right)

    def _redirect(self, direction: Direction) -> "TensorOperator":
        return TensorOperator(self.left._redirect(direction), self.right._redirect(direction))

    def to_json_dict(self) -> dict:
        return {"left": self.left.to_json_dict(), "right": self.right.to_json_dict()}


def tensor_of(u: CoeffVector, v: CoeffVector) -> CoeffVector:
    """Outer product, keeping (u, v) as its `factors`; bilinear, zero when either factor is."""
    entries = {}
    for ku, cu in u.entries.items():
        for kv, cv in v.entries.items():
            entries[ku + kv] = lc_mul(cu, cv)
    w = CoeffVector(u.offsets + v.offsets, entries)
    w.factors = (u, v)
    return w


def tensor_operator_from_json(obj: dict) -> TensorOperator:
    return TensorOperator(
        shift_operator_from_json(obj["left"]), shift_operator_from_json(obj["right"])
    )
