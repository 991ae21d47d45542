"""Weight sequences driving the shift operators.

Families, each with its domain of indices:

* theta raw          -- log w(m) = s + r*m, s = pi/nu + 2*alpha, r = 2*pi/nu, m >= 0
* theta composite    -- the action weight of the order-p theta shift: the
                        coefficient on e_{m-1} when the operator hits e_m,
                        log a(m) = log w(m-1) + 2 * sum_{j=1..p} log w(m-1-j)
                        = (2p+1)(s + r(m-1)) - r*p(p+1), m >= p+1
* bargmann raw       -- w(n) = sqrt(n+1), n >= 0
* bargmann composite -- action weight of z^p d^{p+1}/dz^{p+1} on z^n/sqrt(n!):
                        a(n) = sqrt(n) * (n-1)! / (n-1-p)!, via log-gamma,
                        n >= p+1
* block pattern      -- the {2, 1/2} counterexample pair, i >= 1: alternating
                        runs of twos and halves, run k of length k, starting
                        with a single 2 ("omega"); "varpi" is the entrywise
                        reciprocal
* table              -- explicit finite list of positive weights, at indices
                        start .. start + len - 1

The theta order p is an integer in [0, 2**53), as every index is.  The closed
form has the bits of a raw weight at p = 0 (1*x - 0.0 is x), and of the exact
sum wherever s, r and the sum are integers below 2**53 (nu = pi, alpha = 0).

Each family writes its formula once (`_log`); `WeightSequence` holds the
domain rule (`_check`) and both entry points, `log_weight(i)`, the only
per-index evaluation, and `log_weights(indices)`, a range in and a float64
array out, with the same bits.  In bulk, the only place numpy is imported,
the theta formulas run once on an int64 array, the block pattern fills one
run at a time, the Bargmann composite reads one `math.lgamma` column for both
of its lgamma terms and adds in numpy, and the Bargmann raw and table ones
run per index (numpy has no lgamma, and `np.log` differs from `math.log` in
the last bit).  An index outside the domain raises `IndexBelowOffset`
(`TableRangeError` for a table), and a log weight beyond the float range
`OverflowNotRepresentable`, each naming the first such index.

`log_weight_span(lo, hi)` sums consecutive log weights, the products behind
every power of a shift, from `span_terms(lo, hi)`.  Each sequence object
keeps one table of its `log_weight` floats, contiguous from `first`, and a
memo of the weights of spans whose gap above the table is longer than
themselves, which are read termwise and evaluate nothing below them; when
the table grows over memo indices it takes their floats from the memo.  So
every operator and direction built over the same weights evaluates each
weight once, and only where a span reads it.  Table and memo only grow,
under a lock, are each capped at `MAX_INDICES` entries, and live outside the
fields: equality, hash and repr do not see them, and copies and pickles
start empty.

All weights are strictly positive and handled exclusively through their
natural logs.  Factorial ratios go through lgamma, never integer factorials
(n!/(n-p)! overflows 64-bit integers near n = 21).
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import IndexBelowOffset, OverflowNotRepresentable, TableRangeError, ValidationError
from .numerics import int_parse, real_parse

_LN2 = math.log(2.0)
_INF = math.inf

# the most indices one request may evaluate: a scan horizon, a matrix size, a weight range, or
# the span table or memo
MAX_INDICES = 10_000_000


def check_index_count(n: int, what: str) -> None:
    """Reject a request for more than MAX_INDICES indices before anything is allocated."""
    if n > MAX_INDICES:
        raise ValidationError(f"{what} spans {n} indices, above the limit of {MAX_INDICES}")


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
        if not math.isfinite(2.0 * math.pi / self.nu):  # the ratio of _theta_log
            raise ValidationError(f"nu must be such that 2*pi/nu is finite, got {self.nu}")
        if not math.isfinite(math.pi / self.nu + 2.0 * self.alpha):  # the prefactor of _theta_log
            raise ValidationError(
                f"alpha must be such that pi/nu + 2*alpha is finite, got {self.alpha} with nu = {self.nu}")
        if int_parse(self.p, "p") < 0:  # an order is an index: an integer of magnitude below 2**53
            raise ValidationError(f"invariant violated: p must be >= 0, got {self.p}")


def _theta_log(params: ThetaParams, p: int, m):
    """log w(m-1) + 2 * sum_{j=1..p} log w(m-1-j) in closed form, for an int m or on an int64 array.

    log w(k) = s + r*k, with the prefactor s = pi/nu + 2*alpha and the ratio r = 2*pi/nu.
    """
    s, r = math.pi / params.nu + 2.0 * params.alpha, 2.0 * math.pi / params.nu
    return (2 * p + 1) * (s + r * (m - 1)) - r * (p * (p + 1))


def _theta_logs(self, indices: range) -> np.ndarray:
    """A theta family's `_log` once, on the range as an int64 array; an infinite one raises at its index."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):  # checked below: inf - inf is NaN
        out = self._log(np.arange(indices.start, indices.stop, dtype=np.int64))
    finite = np.isfinite(out)
    if not finite.all():
        raise self._overflow(indices.start + int(np.argmin(finite)))
    return out


class WeightSequence:
    """Common query surface over the weight families, on the domain first <= i < end.

    A family defines its formula `_log(i)`.  `log_weight(i)` is the scalar
    evaluation; `log_weights(indices)` the bulk one (a range in, a float64
    array out); `log_weight_span(lo, hi)` a sum of consecutive scalar ones,
    read from the object's table or memo (`span_terms`).  `scan_start` is the
    first index a Salas partial-product scan should include.  Instances are
    immutable, apart from that table and memo, and safe for concurrent use.
    """

    family: str = "abstract"
    offset_p: int = 0
    end = math.inf
    _error = IndexBelowOffset

    @property
    def first(self) -> int:
        """The first index with a weight: an action weight needs i >= p+1."""
        return self.offset_p + 1

    def _outside(self, i: int) -> ValidationError:
        return self._error(f"{self.family} weight index {i} outside [{self.first}, {self.end})")

    def _check(self, lo: int, hi: int) -> None:
        """The domain rule for the indices lo..hi, hi >= lo: raise at lo if it is outside, else at end."""
        if not self.first <= lo < self.end:
            raise self._outside(lo)
        if hi >= self.end:
            raise self._outside(self.end)

    def log_weight(self, i: int) -> float:
        if not self.first <= i < self.end:
            raise self._outside(i)
        w = self._log(i)
        if -_INF < w < _INF:
            return w
        raise self._overflow(i)

    def _overflow(self, i: int) -> OverflowNotRepresentable:
        return OverflowNotRepresentable(f"{self.family} log weight {i} overflows the float range")

    def span_terms(self, lo: int, hi: int) -> list[float]:
        """The log weights at lo..hi in order, from the table or the memo; [] when hi < lo.

        A span outside the domain raises where a loop over `log_weight(j)`
        would: at lo, or else at `end`.
        """
        if hi < lo:
            return []
        try:
            values, first, lock, far = self.__dict__["_span_table"]
        except KeyError:
            values, first, lock, far = self.__dict__.setdefault(
                "_span_table", ([], self.first, threading.Lock(), {}))
        if lo < first or hi - first >= len(values):
            self._check(lo, hi)
            with lock:
                top = first + len(values)
                if lo - top > hi - lo + 1:  # longer gap than span: read termwise, nothing below it
                    check_index_count(len(far) + hi - lo + 1, "the log-weight memo")
                    log_weight = self.log_weight
                    return [far[j] if j in far else far.setdefault(j, log_weight(j)) for j in range(lo, hi + 1)]
                check_index_count(hi - first + 1, "the log-weight table")
                log_weight, take = self.log_weight, far.pop
                for i in range(top, hi + 1):
                    w = take(i, None) if far else None
                    values.append(log_weight(i) if w is None else w)
        return values[lo - first : hi - first + 1]

    def log_weight_span(self, lo: int, hi: int) -> float:
        """Sum of the log weights at lo..hi, added in ascending order to 0.0; 0.0 when hi < lo.

        Bit-identical to adding `log_weight(j)` for j = lo..hi one by one, with
        that loop's domain errors (`span_terms`); a sum that leaves the float
        range raises `OverflowNotRepresentable`, naming the first index it passes.
        """
        ws = self.span_terms(lo, hi)
        acc = 0.0
        for w in ws:
            acc += w
        if -_INF < acc < _INF:
            return acc
        acc = 0.0
        for j, w in enumerate(ws, lo):
            acc += w
            if not -_INF < acc < _INF:
                raise OverflowNotRepresentable(
                    f"{self.family} log-weight span {lo}..{hi} overflows the float range at index {j}")

    def __getstate__(self):
        # the families' dataclass state holds their fields only; any other subclass drops the
        # span table here, so its copies and pickles start empty too (a lock does not pickle)
        return {k: v for k, v in self.__dict__.items() if k != "_span_table"}

    def log_weights(self, indices: range) -> np.ndarray:
        """The log weights at a range of consecutive indices, as a float64 array: the bits of
        `log_weight` on each index, and its error at the first index outside the domain."""
        if indices.step != 1:
            raise ValidationError(f"bulk weights take consecutive indices, got {indices}")
        if indices:
            self._check(indices.start, indices.stop - 1)
        return self._logs(indices)

    def _logs(self, indices: range) -> np.ndarray:
        """The bulk formula; by default the scalar one on each index."""
        import numpy as np
        return np.fromiter(map(self._log, indices), np.float64, len(indices))

    @property
    def scan_start(self) -> int:
        return max(1, self.offset_p + 1)


@dataclass(frozen=True, slots=True)
class ThetaRawWeights(WeightSequence):
    params: ThetaParams
    family: str = field(default="theta_raw", init=False)
    offset_p: int = field(default=0, init=False)
    first = 0

    def _log(self, m):
        return _theta_log(self.params, 0, m + 1)  # s + r*((m+1) - 1): the bits of s + r*m

    _logs = _theta_logs


@dataclass(frozen=True, slots=True)
class ThetaActionWeights(WeightSequence):
    params: ThetaParams
    family: str = field(default="theta_composite", init=False)

    @property
    def offset_p(self) -> int:  # type: ignore[override]
        return self.params.p

    def _log(self, m):
        return _theta_log(self.params, self.params.p, m)

    _logs = _theta_logs


@dataclass(frozen=True, slots=True)
class BargmannRawWeights(WeightSequence):
    family: str = field(default="bargmann_raw", init=False)
    offset_p: int = field(default=0, init=False)
    first = 0

    def _log(self, n: int) -> float:
        return 0.5 * math.log(n + 1.0)


@dataclass(frozen=True, slots=True)
class BargmannActionWeights(WeightSequence):
    p: int = 0
    family: str = field(default="bargmann_composite", init=False)

    def __post_init__(self):
        if int_parse(self.p, "p") < 0:  # the rule of ThetaParams.p
            raise ValidationError(f"invariant violated: p must be >= 0, got {self.p}")

    @property
    def offset_p(self) -> int:  # type: ignore[override]
        return self.p

    def _log(self, n: int) -> float:
        """log sqrt(n) * (n-1)!/(n-1-p)!"""
        return 0.5 * math.log(n) + math.lgamma(n) - math.lgamma(n - self.p)

    def _logs(self, indices: range) -> np.ndarray:
        # one lgamma column serves both lgamma terms: the h = min(p, len) indices from start - p, then
        # the range, so lgamma(n) is its tail and lgamma(n - p) its head.  The ops and their order are _log's.
        import numpy as np
        n, h = len(indices), min(self.p, len(indices))
        below = range(indices.start - self.p, indices.start - self.p + h)
        lg = np.fromiter(map(math.lgamma, itertools.chain(below, indices)), np.float64, n + h)
        out = np.fromiter(map(math.log, indices), np.float64, n)
        out *= 0.5
        out += lg[h:]
        out -= lg[:n]
        return out


def _block_run(i: int) -> int:
    """The block-pattern run k holding index i >= 1: run k covers the k indices after T(k-1) = k(k-1)/2."""
    k = (math.isqrt(8 * i + 1) - 1) // 2
    return k + (k * (k + 1) // 2 < i)


@dataclass(frozen=True, slots=True)
class BlockPatternWeights(WeightSequence):
    """Alternating runs of twos and halves, run k of length k, from i = 1.

    The runs start with a single 2: (2 | 1/2 1/2 | 2 2 2 | 1/2 1/2 1/2 1/2 | ...).
    The first five entries are (2, 1/2, 1/2, 2, 2); the partial log-sums swing
    unboundedly in BOTH directions (to +-(k/2) log 2 after run k), so the
    pattern ("omega") and its entrywise reciprocal ("varpi") each pass the
    sup-of-products divergence test while their pointwise product is
    identically 1.
    """

    role: str = "omega"
    family: str = field(default="block_pattern", init=False)
    offset_p: int = field(default=0, init=False)

    def __post_init__(self):
        if self.role not in ("omega", "varpi"):
            raise ValidationError(f"unknown block role {self.role!r}")

    def _log(self, i: int) -> float:
        return _LN2 if (_block_run(i) % 2 == 1) == (self.role == "omega") else -_LN2

    def _logs(self, indices: range) -> np.ndarray:
        # one run at a time: every index of run k has the weight of its first one
        import numpy as np
        lo = i = indices.start
        out = np.empty(len(indices))
        while i < indices.stop:
            k = _block_run(i)
            end = min(k * (k + 1) // 2 + 1, indices.stop)
            out[i - lo : end - lo] = self._log(i)
            i = end
        return out


@dataclass(frozen=True, slots=True)
class TableWeights(WeightSequence):
    """Explicit finite weight list; queries beyond the table are errors."""

    log_values: tuple[float, ...]
    start: int = 1
    family: str = field(default="table", init=False)
    offset_p: int = field(default=0, init=False)
    _error = TableRangeError

    def __post_init__(self):
        # the first index of the domain: an integer of magnitude below 2**53, kept as an int
        object.__setattr__(self, "start", int_parse(self.start, "start"))

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
    def first(self) -> int:  # type: ignore[override]
        return self.start

    @property
    def end(self) -> int:  # type: ignore[override]
        return self.start + len(self.log_values)

    @property
    def scan_start(self) -> int:  # type: ignore[override]
        return self.start

    def _log(self, i: int) -> float:
        return self.log_values[i - self.start]


def weight_sequence_from_json(obj: dict) -> WeightSequence:
    """Build a weight sequence from its flat JSON spec."""
    try:
        family = obj["family"]
    except (KeyError, TypeError):
        raise ValidationError("weight spec must be an object with a 'family' key") from None
    if family in ("theta_raw", "theta_composite"):
        nu, alpha = real_parse(obj["nu"], "nu"), real_parse(obj.get("alpha", 0.0), "alpha")
        if family == "theta_raw":
            return ThetaRawWeights(ThetaParams(nu=nu, alpha=alpha))
        return ThetaActionWeights(ThetaParams(nu=nu, alpha=alpha, p=int_parse(obj.get("p", 0), "p")))
    if family == "bargmann_raw":
        return BargmannRawWeights()
    if family == "bargmann_composite":
        return BargmannActionWeights(p=int_parse(obj.get("p", 0), "p"))
    if family == "block_pattern":
        return BlockPatternWeights(role=obj.get("role", "omega"))
    if family == "table":
        return TableWeights.from_weights(obj["table"], start=obj.get("start", 1))
    raise ValidationError(f"unknown weight family {family!r}")
