"""Eigenvector series, periodic points and hypercyclic vectors.

The eigenvector of the tensor backward shift for the eigenvalue pair
(lambda, mu) is the rank-one series g = a (x) b whose (m, n) coefficient is
lambda^{m-p1} mu^{n-p2} divided by the running products of the factor action
weights up to m and n.  The weights grow super-exponentially, so the series
converges for every (lambda, mu); the truncation rectangle grows one axis at
a time, the one whose omitted mass dominates, until geometric domination
certifies the tail (once log|lambda| - log a(m+1) < 0, the weights being
monotone, the omitted tail is below a closed-form geometric bound).

The builders return the factors a and b, and every number `eigen` and
`periodic` report is a closed form in their squared masses, with no operator
action: on the truncation, T1^k a is lambda^k times a without its top k
indices.  With h(k) an axis's squared mass below its top k indices, B(k)
that within them and H = h + B:
    ||T^k g||^2 = |lambda mu|^2k h1(k) h2(k)
    ||T^q g - (lambda mu)^q g||^2 = |lambda mu|^2q (B1 H2 + h1 B2)
    ||T^q g - g||^2 = |(lambda mu)^q - 1|^2 h1 h2 + (B1 H2 + h1 B2)
Each is a sum of non-negative terms on disjoint supports, so nothing cancels
(the band sits e^-120 and more below H1 H2, where H1 H2 - h1 h2 keeps no
digit), and log|lambda mu| is summed per axis, so it stays finite where the
product underflows.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import reduce
from operator import add, getitem

from .basis import CoeffVector, coeff_norm_log, norm_log
from .errors import (
    OffsetMismatch,
    OverflowNotRepresentable,
    QTooSmall,
    ScheduleOverflow,
    ShiftDynError,
    TableRangeError,
    TailNotCertifiable,
    ValidationError,
)
from .numerics import (
    NEG_INF,
    LogComplex,
    int_parse,
    lc_add,
    lc_from_complex,
    lc_neg,
    log_add_exp,
    log_sum_exp,
    wrap_phase,
)
from .shift_ops import Direction, ShiftOperator, apply_power, nilpotence_index, right_inverse
from .value import Value
from .weights import WeightSequence

_ENTRY_BUDGET = 400_000  # truncation rectangle entries; lambda = mu = 50 needs 277,360
_EIGEN_BAND_MARGIN = 1  # an eigenvector certifies the residual band of T^1
_SERIES_TERMS_CAP = 10_000  # terms of a periodic approximant
_SCHEDULE_CAP = 100_000  # schedule times of a hypercyclic vector
EIGEN_SERIES_STEPS = 8  # orbit steps of the eigen series


class EigenSpec(Value):
    __slots__ = _fields = ("lam", "mu", "trunc_m", "trunc_n", "tail_log_bound")

    def __init__(self, lam: complex, mu: complex, trunc_m: int, trunc_n: int, tail_log_bound: float):
        self.lam = lam
        self.mu = mu
        self.trunc_m = trunc_m
        self.trunc_n = trunc_n
        self.tail_log_bound = tail_log_bound

    def to_json_dict(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "mu": [self.mu.real, self.mu.imag],
            "trunc_m": self.trunc_m,
            "trunc_n": self.trunc_n,
            "tail_log_bound": self.tail_log_bound,
        }


class _AxisSeries:
    """One axis of the rank-one eigenvector, over that axis's weights: term logs and tail bounds."""

    def __init__(self, weights: WeightSequence, scale: LogComplex):
        self.weights = weights
        self.p = weights.offset_p
        self.log_scale = scale.logmag
        self.phase_step = scale.phase if not scale.is_zero else 0.0
        self.term_logs = [0.0]
        self.term_phases = [0.0]
        self.sq_prefix = [0.0]  # log sum of the squared term magnitudes up to each position
        self._last_lw = None
        self.frozen = scale.is_zero

    def __len__(self) -> int:
        return len(self.term_logs)

    def top_index(self) -> int:
        return self.p + len(self.term_logs) - 1

    def _log_weight(self, m: int) -> float:
        """`log_weight(m)`, read through the sequence's span table, so no index is evaluated twice."""
        return self.weights.span_terms(m, m)[0]

    def extend(self) -> None:
        """Append the next term; weight monotonicity is checked as we go."""
        if self.frozen:
            return
        m_next = self.top_index() + 1
        try:
            lw = self._log_weight(m_next)
        except TableRangeError as exc:
            raise TailNotCertifiable(
                f"weight table exhausted at index {m_next} before the tail could be certified"
            ) from exc
        if self._last_lw is not None and lw < self._last_lw:
            raise TailNotCertifiable(
                f"action weights are not monotone at index {m_next}; "
                "the geometric tail argument does not apply"
            )
        self._last_lw = lw
        self.term_logs.append(self.term_logs[-1] + self.log_scale - lw)
        self.term_phases.append(wrap_phase(self.term_phases[-1] + self.phase_step))
        self.sq_prefix.append(log_add_exp(self.sq_prefix[-1], 2.0 * self.term_logs[-1]))

    def head_sq_log(self, cut: int) -> float:
        """log sum of squared term magnitudes for indices p..cut."""
        return self.sq_prefix[min(cut - self.p, len(self.sq_prefix) - 1)]

    def factor(self) -> CoeffVector:
        terms = zip(self.term_logs, self.term_phases)
        entries = {(self.p + i,): LogComplex(t, ph) for i, (t, ph) in enumerate(terms)}
        return CoeffVector((self.p,), entries)

    def ratio_log(self, m: int) -> float:
        """2*(log_scale - log a(m)), the log ratio of consecutive squared terms at index m; inf
        where that ratio does not round below 1 or m is past the table: no tail is bounded there."""
        try:
            ratio_log = 2.0 * (self.log_scale - self._log_weight(m))
        except TableRangeError:
            return math.inf
        return ratio_log if ratio_log < 0.0 and math.exp(ratio_log) < 1.0 else math.inf

    def tail_sq_log(self, cut: int) -> float:
        """Certified log bound on the squared-magnitude sum beyond `cut`.

        The ratio of consecutive squared terms is exp(2*(log_scale - lw)),
        decreasing because the weights increase, so once it is below 1 the
        tail is dominated by the closed-form geometric sum.
        """
        if self.frozen:
            return NEG_INF
        i = cut - self.p + 1  # first omitted term position
        if i < len(self.term_logs):
            first_omitted = self.term_logs[i]
        else:  # cut is the top index: cuts sit at most band_margin below it
            first_omitted = (
                self.term_logs[-1] + self.log_scale - self._log_weight(cut + 1)
            )
        ratio_log = self.ratio_log(cut + 2)
        if ratio_log == math.inf:
            return math.inf
        first_omitted_sq = 2.0 * first_omitted
        if ratio_log > -700.0:
            return first_omitted_sq - math.log1p(-math.exp(ratio_log))
        return first_omitted_sq


def _check_tail_tol(tail_tol_log: float) -> None:
    # a NaN target is never met, and a norm bound of e^0 or more certifies nothing
    if not (math.isfinite(tail_tol_log) and tail_tol_log < 0.0):
        raise ValidationError(f"tail_tol_log must be finite and < 0, got {tail_tol_log}")


def _rect_tail(ax1: _AxisSeries, ax2: _AxisSeries, cut1: int, cut2: int) -> tuple[float, _AxisSeries]:
    """Certified log bound on the norm omitted outside the rectangle, and the axis to grow:
    one not yet certifiable, else the one whose omitted mass dominates the bound.
    """
    t1 = ax1.tail_sq_log(cut1)
    t2 = ax2.tail_sq_log(cut2)
    if t1 == math.inf or t2 == math.inf:
        return math.inf, ax1 if t1 == math.inf else ax2
    beyond1 = t1 + log_add_exp(ax2.head_sq_log(cut2), t2)
    within1 = ax1.head_sq_log(cut1) + t2
    return log_add_exp(beyond1, within1) / 2.0, ax1 if beyond1 >= within1 else ax2


def _build_eigenvector(
    op: ShiftOperator,
    lam_lc: LogComplex,
    mu_lc: LogComplex,
    lam: complex,
    mu: complex,
    tail_tol_log: float,
    band_margin: int,
    min_terms: int,
) -> tuple[CoeffVector, CoeffVector, EigenSpec]:
    """The factors a, b of the eigenvector g = a (x) b, and its spec.

    Growing axes keep min_terms terms, so T^k g != 0 below min_terms.
    """
    if len(op.weights) != 2 or op.direction is not Direction.BACKWARD:
        raise ValidationError("eigenvectors are built for the backward tensor operator")
    _check_tail_tol(tail_tol_log)
    ax1, ax2 = (_AxisSeries(w, scale) for w, scale in zip(op.weights, (lam_lc, mu_lc)))

    lm_abs = lam_lc.logmag + mu_lc.logmag  # -inf when either eigenvalue is 0
    target = tail_tol_log - max(0.0, lm_abs) if lm_abs != NEG_INF else tail_tol_log
    floor = max(band_margin + 3, min_terms)
    # growing axes of floor terms each, past the budget already: fail before any weight is read
    hopeless = math.prod(floor for ax in (ax1, ax2) if not ax.frozen) > _ENTRY_BUDGET

    def certified(margin: int) -> tuple[float, _AxisSeries]:
        cut1 = ax1.top_index() - (0 if ax1.frozen else margin)
        cut2 = ax2.top_index() - (0 if ax2.frozen else margin)
        return _rect_tail(ax1, ax2, cut1, cut2)

    probed = set()
    while True:
        grow = next((ax for ax in (ax1, ax2) if not ax.frozen and len(ax) < floor), None)
        if grow is None:
            bound, grow = certified(band_margin)
            if bound <= target:
                break
            if bound == math.inf and grow not in probed:
                # the weights are monotone, so the ratio only falls: if it does not round below 1
                # past the farthest index the budget lets this axis read, no tail ever certifies
                probed.add(grow)
                other = ax2 if grow is ax1 else ax1
                far = min(grow.p + 1 - (-_ENTRY_BUDGET // len(other)), grow.weights.end - 1)
                hopeless = grow.ratio_log(far) == math.inf
        if hopeless or len(ax1) * len(ax2) >= _ENTRY_BUDGET:
            raise TailNotCertifiable(f"tail not below {target:.3g} within {_ENTRY_BUDGET} entries")
        grow.extend()

    bound = certified(0)[0] if not (ax1.frozen and ax2.frozen) else NEG_INF
    return ax1.factor(), ax2.factor(), EigenSpec(lam, mu, ax1.top_index(), ax2.top_index(), bound)


def eigenvector_build(
    op: ShiftOperator,
    lam: complex,
    mu: complex,
    tail_tol_log: float,
) -> tuple[CoeffVector, CoeffVector, EigenSpec]:
    """(a, b, spec) for the truncated eigenvector g = a (x) b of the tensor backward shift.

    The eigenvalue is lambda*mu.  The truncation rectangle is grown until the
    certified tail bound of the rectangle shrunk by one index per axis is
    below tail_tol_log (adjusted by log|lambda*mu| when that is positive), so
    the residual band of T^1 is certified as well.
    """
    if not (cmath.isfinite(lam) and cmath.isfinite(mu)):
        raise ValidationError(f"eigenvalues must be finite, got lambda={lam}, mu={mu}")
    return _build_eigenvector(
        op, lc_from_complex(lam), lc_from_complex(mu), lam, mu, tail_tol_log, _EIGEN_BAND_MARGIN,
        EIGEN_SERIES_STEPS + 1,
    )


def _sq_masses(v: CoeffVector) -> tuple[list[float], list[float]]:
    """2 log|v_m| for each term of a builder's factor, lowest index first, and below[k], the log
    squared mass under its top k indices (k = 0..len), summed upward as `coeff_norm_log` sums."""
    sq = [2.0 * v.entries[key].logmag for key in sorted(v.entries)]
    return sq, list(itertools.accumulate(sq, log_add_exp, initial=NEG_INF))[::-1]


def _band_sq_log(a: CoeffVector, b: CoeffVector, q: int) -> tuple[float, float]:
    """log h1 h2, the squared mass of g = a (x) b that T^q keeps, and log (B1 H2 + h1 B2), that of
    its outermost width-q band."""
    (s1, below1), (s2, below2) = _sq_masses(a), _sq_masses(b)
    h1, h2 = below1[min(q, len(s1))], below2[min(q, len(s2))]
    b1, b2 = log_sum_exp(s1[-q:]), log_sum_exp(s2[-q:])
    return h1 + h2, log_add_exp(b1 + log_add_exp(h2, b2), h1 + b2)


def rank_one_residual_log(a: CoeffVector, b: CoeffVector, lam: complex, mu: complex, q: int = 1) -> float:
    """log ||T^q g - (lambda*mu)^q g|| = q log|lambda mu| + log(B1 H2 + h1 B2) / 2 for g = a (x) b,
    the factors a builder returned for (lambda, mu); -inf when an eigenvalue is 0 (module notes)."""
    if q < 1:
        raise ValidationError(f"power must be >= 1, got {q}")
    lm = lc_from_complex(lam).logmag + lc_from_complex(mu).logmag
    return q * lm + _band_sq_log(a, b, q)[1] / 2.0


def rank_one_log_norms(a: CoeffVector, b: CoeffVector, lam: complex, mu: complex, k_max: int) -> list[float]:
    """log ||T^k g|| = k log|lambda mu| + (h1(k) + h2(k)) / 2, k = 0..k_max, for g = a (x) b, the
    factors a builder returned for (lambda, mu).  Row 0 has the bits of coeff_norm_log(a) + coeff_norm_log(b).
    """
    lm = lc_from_complex(lam).logmag + lc_from_complex(mu).logmag
    (s1, below1), (s2, below2) = _sq_masses(a), _sq_masses(b)
    return [
        (k * lm if k else 0.0) + (below1[min(k, len(s1))] + below2[min(k, len(s2))]) / 2.0
        for k in range(k_max + 1)
    ]


def rank_one_defect_log(a: CoeffVector, b: CoeffVector, lam: complex, mu: complex, q: int) -> float:
    """log ||T^q g - g|| = log(|(lambda mu)^q - 1|^2 h1 h2 + (B1 H2 + h1 B2)) / 2 for g = a (x) b,
    the factors a builder returned for (lambda, mu).

    With (lambda mu)^q = e^(x + iy), |e^(x + iy) - 1|^2 = (e^x - 1)^2 + 4 e^x sin^2(y/2).
    """
    if q < 1:
        raise ValidationError(f"power must be >= 1, got {q}")
    lam_lc, mu_lc = lc_from_complex(lam), lc_from_complex(mu)
    x, y = q * (lam_lc.logmag + mu_lc.logmag), q * (lam_lc.phase + mu_lc.phase)
    expm1_log = max(x, 0.0) + math.log(-math.expm1(-abs(x))) if x else NEG_INF  # log |e^x - 1|
    sin_half = abs(math.sin(y / 2.0))
    turn_log = 2.0 * math.log(2.0 * sin_half) + x if sin_half else NEG_INF
    kept, band = _band_sq_log(a, b, q)
    return log_add_exp(log_add_exp(2.0 * expm1_log, turn_log) + kept, band) / 2.0


def periodic_point_from_eigen(
    op: ShiftOperator, q_order: int, tail_tol_log: float
) -> tuple[CoeffVector, CoeffVector, EigenSpec]:
    """(a, b, spec) for a truncated q-periodic point g = a (x) b.

    g is the eigenvector for a primitive root: lambda = mu = exp(i*pi/q), so
    lambda*mu = exp(2*pi*i/q).  Both have log-magnitude exactly 0 in the
    polar representation, and the truncation is certified with a width-q
    residual band.
    """
    q_order = int_parse(q_order, "q_order")  # below 2**53, where pi / q_order divides by an exact float
    if q_order < 1:
        raise ValidationError(f"q_order must be >= 1, got {q_order}")
    phase = math.pi / q_order
    lam = cmath.exp(1j * phase)
    lam_lc = LogComplex(0.0, wrap_phase(phase))
    return _build_eigenvector(
        op, lam_lc, lam_lc, lam, lam, tail_tol_log, band_margin=q_order, min_terms=2 * q_order + 1
    )


def periodic_from_target(
    op: ShiftOperator, y: CoeffVector, q: int, tail_tol_log: float
) -> CoeffVector:
    """Periodic approximant x = sum_r S^{q r} y with T^q x = x up to the tail, over one axis or two.

    Requires T^q y = 0 exactly, i.e. q >= nilpotence_index(op, y).  Terms are
    added (always at least the r = 1 correction) until the last retained
    term's norm is at or below tail_tol_log; by telescoping, T^q x - x is
    exactly minus that last term.  x is the union of y and the terms, which
    that gap puts on disjoint supports; one `_Pullback` pushes y up q at a
    time, with `apply_power`'s bits and errors, so R terms read R q |y| span terms.
    """
    if op.direction is not Direction.BACKWARD:
        raise ValidationError("periodic points are built for the backward operator")
    _check_tail_tol(tail_tol_log)
    q = int_parse(q, "q")
    if q < 1:
        raise ValidationError(f"q must be >= 1, got {q}")
    nil = nilpotence_index(op, y)
    if q < nil:
        raise QTooSmall(f"q must exceed max(support) - p = {nil - 1}, got {q}")
    if y.offsets != op.offsets:
        raise OffsetMismatch(f"vector offsets {y.offsets} do not match operator offsets {op.offsets}")
    pullback = _Pullback(right_inverse(op), y, None)
    entries = dict(y.entries)
    for r in range(1, _SERIES_TERMS_CAP + 1):
        term = pullback.push(q * r)
        entries.update(term.entries)
        if coeff_norm_log(term) <= tail_tol_log:
            return CoeffVector(y.offsets, entries)
    raise TailNotCertifiable(f"series did not reach tail_tol_log within {_SERIES_TERMS_CAP} terms")


class _Pullback:
    """S^g y and log ||S^g y|| for one target y and a growing gap g, S the right inverse:
    `apply_power(S, y, g)` and `coeff_norm_log` of it, with the same bits and errors.

    Each axis index m keeps its span s of the weights at m + 1 .. m + g
    running, so a larger g adds only the new weights, one at a time in
    ascending order from 0.0, as `log_weight_span` adds them.  The pullback of
    the next nearer checkpoint, at a gap no larger than g, holds the first
    terms of those spans: one that is behind it starts from its sums.  An
    entry c pulls back to c - (s1 + s2), which is apply_power's c + (-s1 + -s2).
    """

    def __init__(self, s_op: ShiftOperator, y: CoeffVector, nearer: "_Pullback | None"):
        self.s_op, self.y, self.g, self.nearer = s_op, y, 0, nearer
        self.sums = [dict.fromkeys(sorted({key[i] for key in y.entries}), 0.0) for i in range(len(y.offsets))]
        self.rows = [(key, c.logmag) for key, c in sorted(y.entries.items())]

    def logmags(self, g: int) -> list[float]:
        """The log-magnitudes of S^g y in key order; where a span fails, or an entry is not a float,
        the error of `apply_power(S, y, g)`."""
        try:
            nearer = self.nearer
            if nearer is not None and nearer.g > self.g:
                self.g, self.sums = nearer.g, [dict(sums) for sums in nearer.sums]
            if g > self.g:
                for weights, sums in zip(self.s_op.weights, self.sums):
                    for m, acc in sums.items():
                        for w in weights.span_terms(m + self.g + 1, m + g):
                            acc += w
                        sums[m] = acc
                self.g = g
            sums = self.sums
            logmags = [c - reduce(add, map(getitem, sums, key)) for key, c in self.rows]
            if not all(map(math.isfinite, logmags)):  # from an entry, or a span, out of the float range
                raise OverflowNotRepresentable(f"S^{g} y leaves the float range")
        except ShiftDynError:
            apply_power(self.s_op, self.y, g)  # raises the error of the first span or entry that fails
            raise
        return logmags

    def norm_log(self, g: int) -> float:
        return norm_log(self.logmags(g))

    def push(self, g: int) -> CoeffVector:
        """S^g y."""
        y = self.y
        return CoeffVector(y.offsets, {tuple(m + g for m in key): LogComplex(c, y.entries[key].phase)
                                       for (key, _), c in zip(self.rows, self.logmags(g))})

    def round_trip_gaps(self, g: int) -> list[float]:
        """log |T^g S^g y - y| at y's keys in key order.  T^g S^g y is (c - s) + s, adding back the very
        s subtracted, as `apply_power(T, self.push(g), g)` does."""
        logmags, sums = self.logmags(g), self.sums  # the sums at gap g
        back = [c + reduce(add, map(getitem, sums, key)) for (key, _), c in zip(self.rows, logmags)]
        if not all(map(math.isfinite, back)):
            raise OverflowNotRepresentable(f"T^{g} S^{g} y leaves the float range")
        targets = sorted(self.y.entries.items())
        return [lc_add(LogComplex(b, c.phase), lc_neg(c)).logmag for b, (_, c) in zip(back, targets)]


def hypercyclic_vector_build(
    op: ShiftOperator,
    targets: list[CoeffVector],
    eps: float,
) -> tuple[CoeffVector, list[int], list[float]]:
    """A vector whose orbit visits every target within eps, with schedule and replay errors, over
    one axis or two.

    The vector is psi = sum_j S^{n_j} y_j.  Gaps annihilate all earlier terms
    exactly under T^{n_j} (nilpotence), and each later term is pushed far
    enough up that its pullback norms fit a geometric budget: the i-th term
    contributes at most eps * 2^{-j'} * 2^{-(i-j')} at checkpoint j'.  Each
    (target, checkpoint) pair keeps its pullback's spans running
    (`_Pullback`), so a later candidate time reads one more weight per index,
    and a farther checkpoint continues the spans of the nearer one.  Once n_j
    is accepted, one more pullback, at t = 0, continues the farthest one's
    spans by n_1 weights per index to psi's block S^{n_j} y_j and its round
    trip, with the bits and errors of `apply_power`.

    With T S = I and disjoint blocks, T^{n_j} psi - y_j is the own-block round
    trip T^{n_j} S^{n_j} y_j - y_j plus sum_{i>j} S^{n_i - n_j} y_i.  Replay
    error j is `norm_log` over the log-magnitudes of that round trip, in key
    order, then over log ||S^{n_i - n_j} y_i|| for i > j ascending: the norms
    target i's accepted time was probed with, kept rather than recomputed.  It
    is the float replay of T^{n_j} psi - y_j up to rounding, from O(|y_j| + J)
    scalars, where applying T^{n_j} to psi reads a span for every later entry.
    """
    if op.direction is not Direction.BACKWARD:
        raise ValidationError("hypercyclic vectors are built over the backward operator")
    if not targets:
        raise ValidationError("at least one target is required")
    if not (0.0 < eps < math.inf):
        raise ValidationError(f"eps must be finite and > 0, got {eps}")
    for y in targets:
        if y.offsets != op.offsets:
            raise ValidationError(
                f"targets must have the operator's offsets {op.offsets}, got {y.offsets}"
            )
    s_op = right_inverse(op)
    schedule: list[int] = []
    masses: list[list[float]] = []  # masses[i][j] = log ||S^{n_i - n_j} y_i||; none for a zero target
    owns: list[list[float]] = []  # owns[j]: the round trip's log |T^{n_j} S^{n_j} y_j - y_j| in key order
    entries: dict = {}  # psi's blocks, on disjoint supports
    n = 1
    for j, y in enumerate(targets, start=1):
        budget = math.log(eps) - j * math.log(2.0)
        # nearest checkpoint first: its gap is the smallest, so it is the likeliest to fail; a zero
        # target fits at once, with no probe
        pullbacks, nearer = [], None
        for t in reversed(schedule) if not y.is_zero else ():
            nearer = _Pullback(s_op, y, nearer)
            pullbacks.append((t, nearer))
        while True:
            if n > _SCHEDULE_CAP:
                raise ScheduleOverflow(
                    f"schedule time exceeded {_SCHEDULE_CAP}; weights grow too slowly for eps={eps}"
                )
            probed = []
            for t, pullback in pullbacks:
                probed.append(pullback.norm_log(n - t))
                if probed[-1] > budget:
                    break
            else:  # every checkpoint fits, so every probe was made
                break
            n += 1
        schedule.append(n)
        masses.append(probed[::-1])
        origin = _Pullback(s_op, y, nearer)  # t = 0, past the farthest checkpoint
        entries.update(origin.push(n).entries)
        owns.append(origin.round_trip_gaps(n))
        del origin  # and with it the checkpoints' spans, which no later search reads
        # the next block waits until T^n annihilates this one exactly, as it does every earlier one
        n += max(1, nilpotence_index(op, y))
    replay = [norm_log(itertools.chain(own, (row[j] for row in masses[j + 1:] if row)))
              for j, own in enumerate(owns)]
    return CoeffVector(op.offsets, entries), schedule, replay
