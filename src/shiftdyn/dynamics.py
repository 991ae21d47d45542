"""Orbits, eigenvector series, periodic points and hypercyclic vectors.

The eigenvector of the tensor backward shift for the eigenvalue pair
(lambda, mu) is the rank-one series whose (m, n) coefficient is
lambda^{m-p1} mu^{n-p2} divided by the running products of the factor
action weights up to m and n.  Because the weights grow super-exponentially
the series converges for every (lambda, mu); truncation is chosen
adaptively and certified by geometric domination: once the per-term log
ratio log|lambda| - log a(m+1) is negative (the weights are monotone), the
omitted tail is below a closed-form geometric bound.

The rectangle grows one axis at a time, the one whose omitted mass dominates
the bound, and stays factored: the builders return the factors a and b of
g = a (x) b, and norms, orbits and residuals are taken per axis.

Residual evaluation exploits the same telescoping the convergence argument
rests on: for the truncated series, T^q g - (lambda*mu)^q g cancels
identically on the interior and equals -(lambda*mu)^q times the outermost
width-q band of the truncation rectangle.  `rank_one_residual_log` takes
that band per axis, as B1 H2 + h1 B2 (B: an axis's squared mass in its top
q indices, h: below them, H = h + B), with no subtraction: the band sits
e^-120 and more below H1 H2, so H1 H2 - h1 h2 keeps no digit.  The dense
band sum `eigen_residual_log` and the entrywise subtraction
`eigen_residual_numeric_log` (floored by float rounding, ~1e-13 relative)
are kept as independent cross-checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .basis import CoeffVector, coeff_add, coeff_inner, coeff_norm_log, coeff_scale, coeff_sub
from .errors import (
    QTooSmall,
    ScheduleOverflow,
    TableRangeError,
    TailNotCertifiable,
    ValidationError,
)
from .numerics import (
    NEG_INF,
    LogComplex,
    lc_from_complex,
    lc_pow_int,
    log_add_exp,
    log_sum_exp,
    wrap_phase,
)
from .shift_ops import Direction, ShiftOperator, apply, apply_power, nilpotence_index, right_inverse
from .tensor_ops import TensorOperator

_ENTRY_BUDGET = 400_000  # truncation rectangle entries; lambda = mu = 50 needs 277,360
_EIGEN_BAND_MARGIN = 1  # an eigenvector certifies the residual band of T^1
_SERIES_TERMS_CAP = 10_000  # terms of a periodic approximant
EIGEN_SERIES_STEPS = 8  # orbit steps of the eigen series


@dataclass(slots=True)
class OrbitStep:
    k: int
    log_norm: float
    vector: CoeffVector


@dataclass(slots=True)
class OrbitTrace:
    steps: list[OrbitStep]
    annihilation_k: int | None

    def log_norms(self) -> list[float]:
        return [s.log_norm for s in self.steps]


def orbit(op, seed, k_max: int) -> OrbitTrace:
    """Iterate the operator on a finite-support seed, recording norms.

    Works for single-space and tensor operators; exact annihilation (the
    empty vector) is detected and recorded, after which the trace stays at
    log-norm -inf without further applications.
    """
    if k_max < 0:
        raise ValidationError(f"k_max must be >= 0, got {k_max}")
    steps = []
    annihilation_k = None
    cur = seed
    for k in range(k_max + 1):
        if k > 0:
            cur = apply(op, cur)
        if cur.is_zero and annihilation_k is None:
            annihilation_k = k
        steps.append(OrbitStep(k, coeff_norm_log(cur), cur))
        if cur.is_zero:
            # the zero state is absorbing; fill the remaining slots
            for kk in range(k + 1, k_max + 1):
                steps.append(OrbitStep(kk, NEG_INF, cur))
            break
    return OrbitTrace(steps, annihilation_k)


@dataclass(slots=True)
class EigenSpec:
    lam: complex
    mu: complex
    trunc_m: int
    trunc_n: int
    tail_log_bound: float

    def to_json_dict(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "mu": [self.mu.real, self.mu.imag],
            "trunc_m": self.trunc_m,
            "trunc_n": self.trunc_n,
            "tail_log_bound": self.tail_log_bound,
        }


class _AxisSeries:
    """One axis of the rank-one eigenvector: term logs and tail bounds."""

    def __init__(self, op: ShiftOperator, scale: LogComplex):
        self.op = op
        self.p = op.offset_p
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

    def extend(self) -> None:
        """Append the next term; weight monotonicity is checked as we go."""
        if self.frozen:
            return
        m_next = self.top_index() + 1
        try:
            lw = self.op.weights.log_weight(m_next)
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
                self.term_logs[-1] + self.log_scale - self.op.weights.log_weight(cut + 1)
            )
        try:
            ratio_log = 2.0 * (self.log_scale - self.op.weights.log_weight(cut + 2))
        except TableRangeError:
            return math.inf
        if not (ratio_log < 0.0 and math.exp(ratio_log) < 1.0):  # a ratio rounding to 1 bounds no tail
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
    op: TensorOperator,
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
    if op.direction is not Direction.BACKWARD:
        raise ValidationError("eigenvectors are built for the backward tensor operator")
    _check_tail_tol(tail_tol_log)
    ax1 = _AxisSeries(op.left, lam_lc)
    ax2 = _AxisSeries(op.right, mu_lc)

    lm_abs = lam_lc.logmag + mu_lc.logmag  # -inf when either eigenvalue is 0
    target = tail_tol_log - max(0.0, lm_abs) if lm_abs != NEG_INF else tail_tol_log
    floor = max(band_margin + 3, min_terms)

    def certified(margin: int) -> tuple[float, _AxisSeries]:
        cut1 = ax1.top_index() - (0 if ax1.frozen else margin)
        cut2 = ax2.top_index() - (0 if ax2.frozen else margin)
        return _rect_tail(ax1, ax2, cut1, cut2)

    while True:
        grow = next((ax for ax in (ax1, ax2) if not ax.frozen and len(ax) < floor), None)
        if grow is None:
            bound, grow = certified(band_margin)
            if bound <= target:
                break
        if len(ax1) * len(ax2) >= _ENTRY_BUDGET:
            raise TailNotCertifiable(f"tail not below {target:.3g} within {_ENTRY_BUDGET} entries")
        grow.extend()

    bound = certified(0)[0] if not (ax1.frozen and ax2.frozen) else NEG_INF
    return ax1.factor(), ax2.factor(), EigenSpec(lam, mu, ax1.top_index(), ax2.top_index(), bound)


def eigenvector_build(
    op: TensorOperator,
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


def eigen_residual_log(g: CoeffVector, lam: complex, mu: complex, q: int = 1) -> float:
    """log ||T^q g - (lambda*mu)^q g|| for a truncated eigenvector g.

    The interior of the truncation telescopes identically (the applied
    weight products are the coefficients' own denominators), leaving
    -(lambda*mu)^q times the outermost width-q band, whose norm is
    evaluated here.
    """
    if q < 1:
        raise ValidationError(f"power must be >= 1, got {q}")
    lm = lc_from_complex(lam * mu)
    if lm.is_zero or g.is_zero:
        return NEG_INF
    trunc_m = max(m for m, _ in g.entries)
    trunc_n = max(n for _, n in g.entries)
    band_sq = log_sum_exp(
        2.0 * c.logmag
        for (m, n), c in g.entries.items()
        if m > trunc_m - q or n > trunc_n - q
    )
    return q * lm.logmag + band_sq / 2.0


def _band_split_sq_log(v: CoeffVector, q: int) -> tuple[float, float]:
    """log squared mass of the one-axis v below its top q indices, and within them."""
    cut = max(v.entries)[0] - q
    sq = [(m, 2.0 * v.entries[(m,)].logmag) for (m,) in sorted(v.entries)]
    return log_sum_exp(t for m, t in sq if m <= cut), log_sum_exp(t for m, t in sq if m > cut)


def rank_one_residual_log(
    a: CoeffVector, b: CoeffVector, lam: complex, mu: complex, q: int = 1
) -> float:
    """`eigen_residual_log` per axis, for g = tensor_of(a, b): see the module notes."""
    if q < 1:
        raise ValidationError(f"power must be >= 1, got {q}")
    lm = lc_from_complex(lam * mu)
    if lm.is_zero or a.is_zero or b.is_zero:
        return NEG_INF
    (h1, b1), (h2, b2) = (_band_split_sq_log(v, q) for v in (a, b))
    return q * lm.logmag + log_add_exp(b1 + log_add_exp(h2, b2), h1 + b2) / 2.0


def rank_one_log_norms(
    op: TensorOperator, a: CoeffVector, b: CoeffVector, k_max: int
) -> list[float]:
    """log ||T^k g||, k = 0..k_max, as log ||T1^k a|| + log ||T2^k b|| for g = tensor_of(a, b)."""
    return [
        coeff_norm_log(apply_power(op.left, a, k)) + coeff_norm_log(apply_power(op.right, b, k))
        for k in range(k_max + 1)
    ]


def eigen_residual_numeric_log(
    op: TensorOperator, g: CoeffVector, lam: complex, mu: complex, q: int = 1
) -> float:
    """log ||T^q g - (lambda*mu)^q g|| by generic entrywise subtraction.

    Floored by float rounding at roughly 1e-13 of ||g||; use the band
    evaluator for tolerances below that.
    """
    if q < 1:
        raise ValidationError(f"power must be >= 1, got {q}")
    scaled = coeff_scale(g, lc_pow_int(lc_from_complex(lam * mu), q))
    return coeff_norm_log(coeff_sub(apply_power(op, g, q), scaled))


def periodic_residual_numeric_log(
    op: TensorOperator, a: CoeffVector, b: CoeffVector, q: int
) -> float:
    """log ||T^q g - g||, the direct periodicity defect, per axis for g = tensor_of(a, b).

    ||T^q g - g||^2 = ||T^q g||^2 + ||g||^2 - 2 Re<T^q g, g>, with
    ||T^q g|| = ||T1^q a|| ||T2^q b|| and <T^q g, g> = <T1^q a, a> <T2^q b, b>,
    scaled by the largest of the three terms before exponentiating.  Used to
    confirm that a point of order q is NOT periodic for proper divisors of q;
    where the subtraction keeps no digit it returns its rounding floor, so for
    the passing direction (tiny defects) use `rank_one_residual_log`.
    """
    if q < 1:
        raise ValidationError(f"power must be >= 1, got {q}")
    if a.is_zero or b.is_zero:
        return NEG_INF
    moved = [apply_power(f, v, q) for f, v in zip(op.factors, (a, b))]
    ip1, ip2 = (coeff_inner(w, v) for w, v in zip(moved, (a, b)))
    logs = [2.0 * sum(map(coeff_norm_log, vs)) for vs in (moved, (a, b))]
    logs.append(math.log(2.0) + ip1.logmag + ip2.logmag)
    top = max(logs)
    moved_sq, g_sq, cross = (math.exp(t - top) for t in logs)
    cross *= math.cos(ip1.phase + ip2.phase)
    # each log carries a rounding error of about eps * |top|; below that share
    # of its terms the sum keeps no digit
    floor = 4.0 * math.ulp(1.0) * (1.0 + abs(top)) * (moved_sq + g_sq + abs(cross))
    return (top + math.log(max(moved_sq + g_sq - cross, floor))) / 2.0


def periodic_point_from_eigen(
    op: TensorOperator, q_order: int, tail_tol_log: float
) -> tuple[CoeffVector, CoeffVector, EigenSpec]:
    """(a, b, spec) for a truncated q-periodic point g = a (x) b.

    g is the eigenvector for a primitive root: lambda = mu = exp(i*pi/q), so
    lambda*mu = exp(2*pi*i/q).  Both have log-magnitude exactly 0 in the
    polar representation, and the truncation is certified with a width-q
    residual band.
    """
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
    """Periodic approximant x = sum_r S^{q r} y with T^q x = x up to the tail.

    Requires T^q y = 0 exactly, i.e. q > max(support(y)) - p.  Terms are
    added (always at least the r = 1 correction) until the last retained
    term's norm is at or below tail_tol_log; by telescoping, T^q x - x is
    exactly minus that last term.
    """
    if op.direction is not Direction.BACKWARD:
        raise ValidationError("periodic points are built for the backward operator")
    _check_tail_tol(tail_tol_log)
    if y.is_zero:
        return y
    nil = nilpotence_index(op, y)
    if q < nil:
        raise QTooSmall(f"q must exceed max(support) - p = {nil - 1}, got {q}")
    s_op = right_inverse(op)
    x = y
    for r in range(1, _SERIES_TERMS_CAP + 1):
        term = apply_power(s_op, y, q * r)
        x = coeff_add(x, term)
        if coeff_norm_log(term) <= tail_tol_log:
            return x
    raise TailNotCertifiable(f"series did not reach tail_tol_log within {_SERIES_TERMS_CAP} terms")


def hypercyclic_vector_build(
    op: ShiftOperator,
    targets: list[CoeffVector],
    eps: float,
    n_cap: int = 100_000,
) -> tuple[CoeffVector, list[int]]:
    """A vector whose orbit visits every target within eps, with schedule.

    The vector is sum_j S^{n_j} y_j.  Gaps annihilate all earlier terms
    exactly under T^{n_j} (nilpotence), and each later term is pushed far
    enough up that its pullback norms fit a geometric budget: the i-th term
    contributes at most eps * 2^{-j'} * 2^{-(i-j')} at checkpoint j'.
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
    n = 1
    for j, y in enumerate(targets, start=1):
        budget = math.log(eps) - j * math.log(2.0)
        while True:
            if n > n_cap:
                raise ScheduleOverflow(
                    f"schedule time exceeded {n_cap}; weights grow too slowly for eps={eps}"
                )
            # nearest checkpoint first: its gap is the smallest, so it is the likeliest to fail
            if y.is_zero or not any(
                coeff_norm_log(apply_power(s_op, y, n - schedule[jp - 1])) > budget
                for jp in range(j - 1, 0, -1)
            ):
                break
            n += 1
        schedule.append(n)
        # the next block waits until T^n annihilates this one exactly, as it does every earlier one
        n += max(1, nilpotence_index(op, y))
    psi = CoeffVector(op.offsets)
    for n, y in zip(schedule, targets):
        psi = coeff_add(psi, apply_power(s_op, y, n))
    return psi, schedule
