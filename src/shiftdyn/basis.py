"""Coefficient vectors and concrete orthonormal basis evaluation.

A `CoeffVector` holds finitely many log-domain coefficients over index
tuples, one index per axis, with axis i holding indices >= offsets[i]; exact
zeros are never stored.  A single-space vector has one axis and is keyed
(m,), so its sorted keys order as its indices do; a tensor vector has one
axis per factor space, keyed by the concatenated indices.  The
inner product and norm (`coeff_inner`, `coeff_norm_log`) treat every vector
alike; the builders assemble sums as unions of disjoint supports.
Inner products are taken in coefficient (Parseval) space.  Pointwise
evaluation of one basis function is provided for the monomial basis
z^n/sqrt(n!) and for the theta-lattice basis, both computed termwise in the
log domain so no intermediate is exponentiated at full size.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from operator import lt
from typing import Mapping

from .errors import OffsetMismatch, OverflowNotRepresentable, ValidationError
from .numerics import (
    LC_ZERO,
    NEG_INF,
    LogComplex,
    int_parse,
    lc_add,
    lc_conj,
    lc_mul,
    lc_parse,
    wrap_phase,
)
from .weights import ThetaParams


@dataclass(slots=True)
class CoeffVector:
    """Finite-support coefficient vector over index tuples key >= offsets, axis by axis."""

    offsets: tuple[int, ...] = (0,)
    entries: dict[tuple[int, ...], LogComplex] = field(default_factory=dict)

    def __post_init__(self):
        offsets = self.offsets
        for key, c in self.entries.items():
            if len(key) != len(offsets):
                raise ValidationError(f"index {key} has {len(key)} axes, the vector {len(offsets)}")
            if any(map(lt, key, offsets)):
                raise ValidationError(f"index {key} below the vector's offsets {offsets}")
            if not NEG_INF < c.logmag < math.inf:
                if c.logmag == NEG_INF:
                    raise ValidationError("exact zeros must be absent keys, not stored")
                raise OverflowNotRepresentable(f"the coefficient at {key} has log-magnitude {c.logmag}: not a float")

    @classmethod
    def unit(cls, key: tuple[int, ...], offsets: tuple[int, ...]) -> "CoeffVector":
        return cls(offsets, {key: LogComplex(0.0, 0.0)})

    @classmethod
    def from_entries(
        cls, offsets: tuple[int, ...], entries: Mapping[tuple[int, ...], LogComplex]
    ) -> "CoeffVector":
        return cls(offsets, {key: c for key, c in entries.items() if not c.is_zero})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.entries)

    def to_json_dict(self) -> dict:
        """{"p", entries [m, logmag, phase]} for one axis, {"p1", "p2", entries [m, n, ...]} for two."""
        out = dict(zip(_offset_names(len(self.offsets)), self.offsets))
        out["entries"] = [[*key, c.logmag, c.phase] for key, c in sorted(self.entries.items())]
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CoeffVector":
        # read the offsets first, so that a non-object raises TypeError here rather than AttributeError
        offsets = tuple(int_parse(obj[name], name) for name in _offset_names(1 if "p" in obj else 2))
        entries = {
            tuple(int_parse(m, "entry index") for m in key): lc_parse(logmag, phase)
            for *key, logmag, phase in obj.get("entries", [])
        }
        return cls.from_entries(offsets, entries)


def _offset_names(n_axes: int) -> tuple[str, ...]:
    return ("p",) if n_axes == 1 else tuple(f"p{i}" for i in range(1, n_axes + 1))


def coeff_inner(u, v) -> LogComplex:
    """<u, v> = sum u_key * conj(v_key) over shared keys, linear on the left."""
    if u is not v and u.offsets != v.offsets:
        raise OffsetMismatch(f"offsets differ: {u.offsets} vs {v.offsets}")
    acc = LC_ZERO
    for key in sorted(set(u.entries) & set(v.entries)):
        acc = lc_add(acc, lc_mul(u.entries[key], lc_conj(v.entries[key])))
    if not acc.logmag < math.inf:  # a product overflowed; two infinite terms add to NaN
        raise OverflowNotRepresentable(f"inner product log-magnitude {acc.logmag} is beyond float range")
    return acc


def coeff_norm_log(u) -> float:
    """log ||u||; -inf for the zero vector, with the bits of coeff_inner(u, u)."""
    entries = u.entries
    return norm_log(entries[key].logmag for key in sorted(entries))


def norm_log(logmags) -> float:
    """log sqrt(sum of e^(2 l)) over the log-magnitudes l, added in the order given; -inf for none.

    Every term of an inner product <u, u> has phase 0.0, so this runs `lc_add`'s
    equal-phase path on floats.
    """
    acc = NEG_INF
    for logmag in logmags:
        t = 2.0 * logmag
        if t > acc:
            acc, t = t, acc
        if t != NEG_INF:
            acc += math.log1p(math.exp(t - acc))
    if not acc < math.inf:  # a term overflowed; two infinite terms add to NaN
        raise OverflowNotRepresentable(f"norm log-magnitude {acc} is beyond float range")
    return acc / 2.0


def _check_point(z: complex) -> None:
    if not cmath.isfinite(z):
        raise ValidationError(f"z must be finite, got {z}")


def bargmann_basis_eval(n: int, z: complex) -> LogComplex:
    """z^n / sqrt(n!) in log form; z = 0 follows the empty-product rule."""
    if int_parse(n, "basis index") < 0:  # below 2**53, so n converts to a float exactly
        raise ValidationError(f"basis index must be >= 0, got {n}")
    _check_point(z)
    if n == 0:
        return LogComplex(0.0, 0.0)
    if z == 0:
        return LC_ZERO
    logmag = n * math.log(abs(z)) - 0.5 * math.lgamma(n + 1.0)
    phase = wrap_phase(n * math.atan2(z.imag, z.real))
    return LogComplex(logmag, phase)


def theta_basis_eval(m: int, z: complex, params: ThetaParams) -> LogComplex:
    """The theta-lattice basis function at z, assembled exponent by exponent.

    Magnitude and phase are accumulated from the three factors (constant
    prefactor, Gaussian-in-z, lattice exponential) without ever forming
    exp() of the large real exponents.
    """
    if int_parse(m, "basis index") < 0:  # below 2**53, so m converts to a float exactly
        raise ValidationError(f"basis index must be >= 0, got {m}")
    _check_point(z)
    nu = params.nu
    x, y = z.real, z.imag
    ma = m + params.alpha
    logmag = (
        0.25 * math.log(2.0 * nu / math.pi)
        + 0.5 * nu * (x * x - y * y)
        - (math.pi * math.pi / nu) * ma * ma
        - 2.0 * math.pi * ma * y
    )
    phase = nu * x * y + 2.0 * math.pi * ma * x
    if not (math.isfinite(logmag) and math.isfinite(phase)):
        raise OverflowNotRepresentable(f"theta basis function {m} at {z} is beyond float range")
    return LogComplex(logmag, wrap_phase(phase))

