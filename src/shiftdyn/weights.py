"""Weight sequences driving the shift operators.

Families:

* theta raw          -- log w(m) = (pi/nu + 2*alpha) + (2*pi/nu) * m, m >= 0
* theta composite    -- the action weight of the order-p theta shift: the
                        coefficient on e_{m-1} when the operator hits e_m,
                        log a(m) = log w(m-1) + 2 * sum_{j=1..p} log w(m-1-j),
                        defined for m >= p+1
* bargmann raw       -- w(n) = sqrt(n+1), n >= 0
* bargmann composite -- action weight of z^p d^{p+1}/dz^{p+1} on z^n/sqrt(n!):
                        a(n) = sqrt(n) * (n-1)! / (n-1-p)!, via log-gamma,
                        defined for n >= p+1
* block pattern      -- the {2, 1/2} counterexample pair: prefix (2, 1/2, 1/2)
                        then block j of 2^j twos followed by 2^j halves
                        ("omega"); "varpi" is the entrywise reciprocal
* table              -- explicit finite list of positive weights

All weights are strictly positive and handled exclusively through their
natural logs.  Factorial ratios go through lgamma, never integer factorials
(n!/(n-p)! overflows 64-bit integers near n = 21).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexBelowOffset, TableRangeError, ValidationError
from .numerics import int_parse

_LN2 = math.log(2.0)


@dataclass(frozen=True, slots=True)
class ThetaParams:
    """Parameters of the theta family: nu > 0, real alpha, shift order p."""

    nu: float
    alpha: float = 0.0
    p: int = 0

    def __post_init__(self):
        if not (0 < self.nu < math.inf):
            raise ValidationError(f"invariant violated: nu must be finite and > 0, got {self.nu}")
        if not math.isfinite(self.alpha):
            raise ValidationError(f"alpha must be finite, got {self.alpha}")
        if self.p < 0:
            raise ValidationError(f"invariant violated: p must be >= 0, got {self.p}")

    @property
    def log_scale(self) -> float:
        """log of the m-independent prefactor, pi/nu + 2*alpha."""
        return math.pi / self.nu + 2.0 * self.alpha

    @property
    def log_ratio(self) -> float:
        """log of the consecutive-weight ratio, 2*pi/nu."""
        return 2.0 * math.pi / self.nu


def theta_raw_log(m: int, params: ThetaParams) -> float:
    """log of the raw theta weight at index m >= 0 (closed form)."""
    if m < 0:
        raise IndexBelowOffset(f"raw theta weight undefined for m={m} < 0")
    return params.log_scale + params.log_ratio * m


def theta_action_log(m: int, params: ThetaParams) -> float:
    """log action weight of the order-p theta shift at source index m."""
    p = params.p
    if m <= p:
        raise IndexBelowOffset(f"action weight needs m >= p+1 = {p + 1}, got {m}")
    acc = theta_raw_log(m - 1, params)
    for j in range(1, p + 1):
        acc += 2.0 * theta_raw_log(m - 1 - j, params)
    return acc


def bargmann_raw_log(n: int) -> float:
    """log sqrt(n+1), n >= 0."""
    if n < 0:
        raise IndexBelowOffset(f"raw weight undefined for n={n} < 0")
    return 0.5 * math.log(n + 1.0)


def bargmann_action_log(n: int, p: int) -> float:
    """log action weight sqrt(n) * (n-1)!/(n-1-p)! at source index n >= p+1."""
    if p < 0:
        raise ValidationError(f"invariant violated: p must be >= 0, got {p}")
    if n <= p:
        raise IndexBelowOffset(f"action weight needs n >= p+1 = {p + 1}, got {n}")
    return 0.5 * math.log(n) + math.lgamma(n) - math.lgamma(n - p)


def _block_run_index(i: int) -> int:
    """Run number of position i >= 1: run k covers the k indices after T(k-1)."""
    s = math.isqrt(8 * i + 1)
    k = (s - 1) // 2
    if k * (k + 1) // 2 < i:
        k += 1
    return k


def block_pattern_log(i: int, role: str = "omega") -> float:
    """log of the i-th block-pattern weight, i >= 1.

    Alternating runs of twos and halves, run k of length k, starting with a
    single 2: (2 | 1/2 1/2 | 2 2 2 | 1/2 1/2 1/2 1/2 | ...).  The first
    five entries are (2, 1/2, 1/2, 2, 2); the partial log-sums swing
    unboundedly in BOTH directions (to +-(k/2) log 2 after run k), so the
    pattern and its entrywise reciprocal each pass the sup-of-products
    divergence test while their pointwise product is identically 1.
    """
    if i < 1:
        raise IndexBelowOffset(f"block pattern starts at i=1, got {i}")
    if role not in ("omega", "varpi"):
        raise ValidationError(f"unknown block role {role!r}")
    sign = 1.0 if _block_run_index(i) % 2 == 1 else -1.0
    if role == "varpi":
        sign = -sign
    return sign * _LN2


class WeightSequence:
    """Common query surface over the weight families.

    `log_weight(i)` is the scalar evaluation; `log_weights(indices)` the bulk
    one (ndarray in, ndarray out).  `scan_start` is the first index a Salas
    partial-product scan should include.  Instances are immutable and safe
    for concurrent use.
    """

    family: str = "abstract"
    offset_p: int = 0

    def log_weight(self, i: int) -> float:
        raise NotImplementedError

    def log_weights(self, indices: np.ndarray) -> np.ndarray:
        return np.array([self.log_weight(int(i)) for i in indices], dtype=np.float64)

    @property
    def scan_start(self) -> int:
        return max(1, self.offset_p + 1)

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class ThetaRawWeights(WeightSequence):
    params: ThetaParams
    family: str = field(default="theta_raw", init=False)
    offset_p: int = field(default=0, init=False)

    def log_weight(self, i: int) -> float:
        return theta_raw_log(i, self.params)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "nu": self.params.nu, "alpha": self.params.alpha}


@dataclass(frozen=True, slots=True)
class ThetaActionWeights(WeightSequence):
    params: ThetaParams
    family: str = field(default="theta_composite", init=False)

    @property
    def offset_p(self) -> int:  # type: ignore[override]
        return self.params.p

    def log_weight(self, i: int) -> float:
        return theta_action_log(i, self.params)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "nu": self.params.nu,
            "alpha": self.params.alpha,
            "p": self.params.p,
        }


@dataclass(frozen=True, slots=True)
class BargmannRawWeights(WeightSequence):
    family: str = field(default="bargmann_raw", init=False)
    offset_p: int = field(default=0, init=False)

    def log_weight(self, i: int) -> float:
        return bargmann_raw_log(i)

    def log_weights(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if np.any(idx < 0):
            raise IndexBelowOffset("raw weight undefined below 0")
        return 0.5 * np.log(idx + 1.0)

    def to_json_dict(self) -> dict:
        return {"family": self.family}


@dataclass(frozen=True, slots=True)
class BargmannActionWeights(WeightSequence):
    p: int = 0
    family: str = field(default="bargmann_composite", init=False)

    def __post_init__(self):
        if self.p < 0:
            raise ValidationError(f"invariant violated: p must be >= 0, got {self.p}")

    @property
    def offset_p(self) -> int:  # type: ignore[override]
        return self.p

    def log_weight(self, i: int) -> float:
        return bargmann_action_log(i, self.p)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "p": self.p}


@dataclass(frozen=True, slots=True)
class BlockPatternWeights(WeightSequence):
    role: str = "omega"
    family: str = field(default="block_pattern", init=False)
    offset_p: int = field(default=0, init=False)

    def __post_init__(self):
        if self.role not in ("omega", "varpi"):
            raise ValidationError(f"unknown block role {self.role!r}")

    def log_weight(self, i: int) -> float:
        return block_pattern_log(i, self.role)

    def log_weights(self, indices: np.ndarray) -> np.ndarray:
        i = np.asarray(indices, dtype=np.int64)
        if np.any(i < 1):
            raise IndexBelowOffset("block pattern starts at i=1")
        # run index via the triangular-number inverse; sqrt of an exact
        # integer is correctly rounded, so one fix-up pass suffices
        s = np.sqrt(8.0 * i.astype(np.float64) + 1.0)
        k = ((s - 1.0) / 2.0).astype(np.int64)
        k += (k * (k + 1)) // 2 < i
        k -= (k * (k - 1)) // 2 >= i
        signs = np.where(k % 2 == 1, 1.0, -1.0)
        if self.role == "varpi":
            signs = -signs
        return signs * _LN2

    def to_json_dict(self) -> dict:
        return {"family": self.family, "role": self.role}


@dataclass(frozen=True, slots=True)
class TableWeights(WeightSequence):
    """Explicit finite weight list; queries beyond the table are errors."""

    log_values: tuple[float, ...]
    start: int = 1
    family: str = field(default="table", init=False)
    offset_p: int = field(default=0, init=False)

    @classmethod
    def from_weights(cls, weights, start: int = 1) -> "TableWeights":
        if not isinstance(weights, Iterable):
            raise ValidationError(f"table weights must be a list of numbers, got {weights!r}")
        logs = []
        for w in weights:
            if isinstance(w, bool) or not isinstance(w, numbers.Real):
                raise ValidationError(f"table weights must be numbers, got {w!r}")
            if not (0 < w < math.inf):
                raise ValidationError(f"table weights must be finite and > 0, got {w}")
            logs.append(math.log(w))
        return cls(log_values=tuple(logs), start=start)

    @property
    def scan_start(self) -> int:  # type: ignore[override]
        return self.start

    def log_weight(self, i: int) -> float:
        j = i - self.start
        if j < 0 or j >= len(self.log_values):
            raise TableRangeError(
                f"index {i} outside table range [{self.start}, {self.start + len(self.log_values)})"
            )
        return self.log_values[j]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "table": [math.exp(v) for v in self.log_values],
            "start": self.start,
        }


def weight_sequence_from_json(obj: dict) -> WeightSequence:
    """Build a weight sequence from its flat JSON spec."""
    try:
        family = obj["family"]
    except (KeyError, TypeError):
        raise ValidationError("weight spec must be an object with a 'family' key") from None
    if family == "theta_raw":
        return ThetaRawWeights(ThetaParams(nu=float(obj["nu"]), alpha=float(obj.get("alpha", 0.0))))
    if family == "theta_composite":
        return ThetaActionWeights(
            ThetaParams(
                nu=float(obj["nu"]),
                alpha=float(obj.get("alpha", 0.0)),
                p=int_parse(obj.get("p", 0), "p"),
            )
        )
    if family == "bargmann_raw":
        return BargmannRawWeights()
    if family == "bargmann_composite":
        return BargmannActionWeights(p=int_parse(obj.get("p", 0), "p"))
    if family == "block_pattern":
        return BlockPatternWeights(role=obj.get("role", "omega"))
    if family == "table":
        return TableWeights.from_weights(obj["table"], start=int_parse(obj.get("start", 1), "start"))
    raise ValidationError(f"unknown weight family {family!r}")
