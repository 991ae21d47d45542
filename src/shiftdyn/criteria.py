"""Finite-horizon chaoticity diagnostics.

Partial-product scans implement the classical weighted-shift hypercyclicity
test: the supremum of the running weight products must be infinite.  Scans
over a finite horizon cannot prove divergence, so verdicts are explicitly
labelled evidence with the horizon and threshold recorded.  The tensor scan
applies the same test to the pointwise product of two weight sequences.
Each factor's weights are one bulk read (`WeightSequence.log_weights`), and
the partial sums one `np.cumsum`, numpy being imported in the scan alone.
Partials that leave the float range raise `OverflowNotRepresentable`.
"""

from __future__ import annotations

import enum
import functools
import math

from .errors import OverflowNotRepresentable, ValidationError
from .value import Value
from .weights import WeightSequence, check_index_count


class Verdict(enum.Enum):
    DIVERGES_TO_INFINITY = "diverges_to_infinity"
    BOUNDED_ABOVE_BY = "bounded_above_by"
    INCONCLUSIVE = "inconclusive"


_FINITE_HORIZON_NOTE = (
    "finite-horizon evidence only; divergence is not decidable from finitely many terms"
)


class CriterionReport(Value):
    __slots__ = _fields = (
        "partial_log_products", "sup_attained", "verdict", "bound", "horizon_n", "threshold", "scan_start", "note")

    def __init__(
        self,
        partial_log_products: np.ndarray,
        sup_attained: float,
        verdict: Verdict,
        bound: float | None,
        horizon_n: int,
        threshold: float,
        scan_start: int,
        note: str = _FINITE_HORIZON_NOTE,
    ):
        self.partial_log_products = partial_log_products
        self.sup_attained = sup_attained
        self.verdict = verdict
        self.bound = bound
        self.horizon_n = horizon_n
        self.threshold = threshold
        self.scan_start = scan_start
        self.note = note

    def __eq__(self, other):
        """Equal partials bit for bit (their bytes as float64) and equal other fields: a bool, where
        numpy's `==` on two arrays is an array."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        import numpy as np
        mine, theirs = (np.asarray(r.partial_log_products, dtype=np.float64) for r in (self, other))
        return (mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
                and self._values()[1:] == other._values()[1:])

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
            out["partial_log_products"] = self.partial_log_products.tolist()
        return out


def _verdict(partials: np.ndarray, sup: float, threshold: float) -> tuple[Verdict, float | None]:
    """Apply the running-max rules, given sup = partials.max().

    Divergence requires the running max to exceed the threshold AND to have
    still increased over the last quartile of the horizon; a stable running
    max yields a bound; a rising-but-subthreshold tail stays inconclusive
    (block patterns produce long plateaus).
    """
    increased = sup > partials[: max(3 * len(partials) // 4, 1)].max()
    if sup > threshold and increased:
        return Verdict.DIVERGES_TO_INFINITY, None
    if not increased:
        return Verdict.BOUNDED_ABOVE_BY, sup
    return Verdict.INCONCLUSIVE, None


def _scan(n_horizon: int, threshold: float, *ws: WeightSequence) -> CriterionReport:
    """The scan on the termwise product of ws, each factor from its own start index."""
    if not (isinstance(n_horizon, int) and n_horizon >= 1):
        raise ValidationError(f"horizon must be an integer >= 1, got {n_horizon!r}")
    check_index_count(n_horizon, "horizon")
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        logs = [w.log_weights(range(w.scan_start, w.scan_start + n_horizon)) for w in ws]
        partials = np.cumsum(functools.reduce(np.add, logs))
    finite = np.isfinite(partials)
    if not finite.all():
        k = int(np.argmin(finite)) + 1
        raise OverflowNotRepresentable(f"partial log-product {k} of {n_horizon} overflows the float range")
    sup = float(partials.max())
    verdict, bound = _verdict(partials, sup, threshold)
    return CriterionReport(
        partial_log_products=partials,
        sup_attained=sup,
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

