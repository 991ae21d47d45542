"""Tensor-product vectors.

A tensor vector is a two-axis `CoeffVector`: a sparse map over index pairs
(m, n) with m >= p1, n >= p2 -- eigenvector truncations fill dense
rectangles while orbit vectors live on sparse diagonals, and one map serves
both.  `tensor_of` forms the outer product of two one-axis vectors; the
`eigen` and `periodic` commands write g = tensor_of(a, b).  The tensor
operator T1 (x) T2 is the two-axis `shift_ops.ShiftOperator` that
`shift_ops.tensor_operator` builds, and the vector algebra (sum, difference,
inner product, norm) is the `coeff_*` family of `basis`.
"""

from __future__ import annotations

from .basis import CoeffVector
from .numerics import lc_mul

# a name kept for readers that look tensor vectors up here (the benchmark's tracer among them)
TensorVector = CoeffVector


def tensor_of(u: CoeffVector, v: CoeffVector) -> CoeffVector:
    """The dense outer product u (x) v; bilinear, zero when either factor is."""
    entries = {}
    for ku, cu in u.entries.items():
        for kv, cv in v.entries.items():
            entries[ku + kv] = lc_mul(cu, cv)
    return CoeffVector(u.offsets + v.offsets, entries)
