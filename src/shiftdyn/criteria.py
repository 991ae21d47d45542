"""Finite-horizon chaoticity diagnostics.

Partial-product scans implement the classical weighted-shift hypercyclicity
test: the supremum of the running weight products must be infinite.  Scans
over a finite horizon cannot prove divergence, so verdicts are explicitly
labelled evidence with the horizon and threshold recorded.  The tensor scan
applies the same test to the pointwise product of two weight sequences.

`bcs_premise_check` verifies, on basis-vector probes, the computable
premises of the hypercyclicity criterion for unbounded operators: exact
right-inverse identity, exact annihilation past the nilpotence bound, and
strictly decaying right-inverse orbits.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import CoeffVector, coeff_norm_log
from .errors import ValidationError
from .shift_ops import Direction, apply, apply_power, right_inverse
from .weights import WeightSequence


class Verdict(enum.Enum):
    DIVERGES_TO_INFINITY = "diverges_to_infinity"
    BOUNDED_ABOVE_BY = "bounded_above_by"
    INCONCLUSIVE = "inconclusive"


_FINITE_HORIZON_NOTE = (
    "finite-horizon evidence only; divergence is not decidable from finitely many terms"
)


@dataclass(slots=True)
class CriterionReport:
    partial_log_products: np.ndarray
    sup_attained: float
    verdict: Verdict
    bound: float | None
    horizon_n: int
    threshold: float
    scan_start: int
    note: str = _FINITE_HORIZON_NOTE

    def to_json_dict(self, include_series: bool = True) -> dict:
        out = {
            "verdict": self.verdict.value,
            "bound": self.bound,
            "sup_attained": self.sup_attained,
            "horizon_n": self.horizon_n,
            "threshold": self.threshold,
            "scan_start": self.scan_start,
            "note": self.note,
        }
        if include_series:
            out["partial_log_products"] = [float(v) for v in self.partial_log_products]
        return out


def _verdict_from_partials(partials: np.ndarray, threshold: float) -> tuple[Verdict, float | None]:
    """Apply the running-max rules.

    Divergence requires the running max to exceed the threshold AND to have
    still increased over the last quartile of the horizon; a stable running
    max yields a bound; a rising-but-subthreshold tail stays inconclusive
    (block patterns produce long plateaus).
    """
    running_max = np.maximum.accumulate(partials)
    sup = float(running_max[-1])
    n = len(partials)
    qi = max((3 * n) // 4 - 1, 0)
    increased = n >= 2 and running_max[-1] > running_max[qi]
    if sup > threshold and increased:
        return Verdict.DIVERGES_TO_INFINITY, None
    if not increased:
        return Verdict.BOUNDED_ABOVE_BY, sup
    return Verdict.INCONCLUSIVE, None


def _scan(n_horizon: int, threshold: float, *ws: WeightSequence) -> CriterionReport:
    """The scan on the termwise product of ws, each factor from its own start index."""
    if n_horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {n_horizon}")
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    logs = [
        w.log_weights(np.arange(w.scan_start, w.scan_start + n_horizon, dtype=np.int64))
        for w in ws
    ]
    partials = np.cumsum(functools.reduce(np.add, logs))
    verdict, bound = _verdict_from_partials(partials, threshold)
    return CriterionReport(
        partial_log_products=partials,
        sup_attained=float(np.max(partials)),
        verdict=verdict,
        bound=bound,
        horizon_n=n_horizon,
        threshold=threshold,
        scan_start=min(w.scan_start for w in ws),
    )


def salas_scan(
    w: WeightSequence, n_horizon: int = 10_000, threshold: float = 100.0
) -> CriterionReport:
    """Partial log-products of w over its scan range, with a verdict."""
    return _scan(n_horizon, threshold, w)


def tensor_salas_scan(
    w1: WeightSequence, w2: WeightSequence, n_horizon: int = 10_000, threshold: float = 100.0
) -> CriterionReport:
    """The same scan on the pointwise product of two weight sequences.

    Each factor is scanned from its own start index, so the k-th product
    term pairs the k-th scanned weight of each factor.
    """
    return _scan(n_horizon, threshold, w1, w2)


@dataclass(slots=True)
class BcsProbeResult:
    probe: object
    right_inverse_identity: bool
    nilpotent_exactly: bool
    inverse_orbit_decreasing: bool
    inverse_orbit_below_tol_at: int | None
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (
            self.right_inverse_identity
            and self.nilpotent_exactly
            and self.inverse_orbit_decreasing
            and self.inverse_orbit_below_tol_at is not None
        )

    def to_json_dict(self) -> dict:
        return {
            "probe": list(self.probe),
            "right_inverse_identity": self.right_inverse_identity,
            "nilpotent_exactly": self.nilpotent_exactly,
            "inverse_orbit_decreasing": self.inverse_orbit_decreasing,
            "inverse_orbit_below_tol_at": self.inverse_orbit_below_tol_at,
            "passed": self.passed,
        }


@dataclass(slots=True)
class BcsReport:
    probes: list[BcsProbeResult]
    k_max: int
    tol_log: float

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.probes)

    def to_json_dict(self) -> dict:
        return {
            "k_max": self.k_max,
            "tol_log": self.tol_log,
            "all_passed": self.all_passed,
            "probes": [p.to_json_dict() for p in self.probes],
        }


def _is_exact_unit(v, key) -> bool:
    if set(v.entries) != {key}:
        return False
    c = v.entries[key]
    return c.logmag == 0.0 and c.phase == 0.0


def bcs_premise_check(op, probe_indices, k_max: int, tol_log: float) -> BcsReport:
    """Probe the hypercyclicity-criterion premises on basis vectors.

    Each probe is an index tuple, one index per axis of the operator: (m,)
    for a single-space operator, (m, n) for a tensor operator.  For each
    probe f: (a) T(S f) = f must hold exactly (it does by
    construction on unit vectors: the same log-weight is subtracted and
    added back starting from log-magnitude 0); (b) T^k f must be exactly
    zero just past the nilpotence bound and nonzero at it; (c) log||S^k f||
    must decrease strictly and fall below tol_log within k_max.
    """
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    if op.direction is not Direction.BACKWARD:
        raise ValidationError("premises are checked on the backward operator")
    s_op = right_inverse(op)
    results = []
    for key in probe_indices:
        f = CoeffVector.unit(key, op.offsets)
        bound = min(m - p for m, p in zip(key, op.offsets))  # the nilpotence index of f
        ident = _is_exact_unit(apply(op, apply(s_op, f)), key)
        nil = apply_power(op, f, bound + 1).is_zero and not apply_power(op, f, bound).is_zero
        decreasing, below_at = _inverse_orbit_scan(
            lambda k: coeff_norm_log(apply_power(s_op, f, k)), k_max, tol_log
        )
        results.append(BcsProbeResult(key, ident, nil, decreasing, below_at))
    return BcsReport(results, k_max, tol_log)


def _inverse_orbit_scan(norm_at, k_max: int, tol_log: float) -> tuple[bool, int | None]:
    prev = 0.0
    below_at = None
    for k in range(1, k_max + 1):
        cur = norm_at(k)
        if not cur < prev:
            return False, None
        if below_at is None and cur <= tol_log:
            below_at = k
            break
        prev = cur
    return True, below_at
