"""Tensor-product vectors.

A tensor vector is a two-axis `CoeffVector`: a sparse map over index pairs
(m, n) with m >= p1, n >= p2 -- eigenvector truncations fill dense
rectangles while orbit vectors live on sparse diagonals, and one map serves
both.  The `eigen` and `periodic` builders keep g = a (x) b as its two
one-axis factors, and the CLI writes the rectangle straight from them.  The
tensor operator T1 (x) T2 is the two-axis `shift_ops.ShiftOperator` that
`shift_ops.tensor_operator` builds, and the vector algebra (sum, difference,
inner product, norm) is the `coeff_*` family of `basis`.
"""

from __future__ import annotations

from .basis import CoeffVector

# a name kept for readers that look tensor vectors up here (the benchmark's tracer among them)
TensorVector = CoeffVector
