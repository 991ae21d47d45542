"""Closed-form reference values for the benchmark's output checks.

Nothing here imports shiftdyn.  Every value comes from the closed forms of
the weight families (see src/shiftdyn/weights.py for their definitions):

* theta_raw          log w(m) = pi/nu + 2*alpha + (2*pi/nu) * m
* theta_composite    log a(m) = (2p+1)(pi/nu + 2*alpha)
                                + (2*pi/nu) * ((2p+1)(m-1) - p(p+1)),  m >= p+1
* bargmann_raw       log w(n) = 0.5 * log(n+1)
* bargmann_composite log a(n) = 0.5*log(n) + lgamma(n) - lgamma(n-p),   n >= p+1
* block_pattern      +-ln 2, runs of length 1, 2, 3, ... with alternating
                     signs starting at +ln 2 ("omega"); "varpi" is the negation

Exact values are taken with mpmath; bulk series with numpy, math.fsum and
math.lgamma.  Beside each reference value the module gives a rounding bound
for the program's own float evaluation, following Higham's bound for
recursive summation: adding n terms in sequence errs by at most
n * u * sum|t_i|, plus the error of evaluating each term.  The checks allow
the program that much (times a safety factor of 2) and nothing more.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

U = 2.0**-53  # unit roundoff of IEEE double
LN2 = math.log(2.0)
NEG_INF = float("-inf")


class Family:
    """A parsed weight spec (the JSON the CLI reads), independent of shiftdyn."""

    def __init__(self, spec: dict):
        self.family = spec["family"]
        self.nu = float(spec.get("nu", math.pi))
        self.alpha = float(spec.get("alpha", 0.0))
        self.p = int(spec.get("p", 0))
        self.role = spec.get("role", "omega")
        if self.family not in (
            "theta_raw", "theta_composite", "bargmann_raw", "bargmann_composite", "block_pattern"
        ):
            raise ValueError(f"no closed form for family {self.family!r}")

    @property
    def offset(self) -> int:
        return self.p if self.family in ("theta_composite", "bargmann_composite") else 0

    @property
    def scan_start(self) -> int:
        return max(1, self.offset + 1)

    # --- linear families: log a(m) = A + B*m ---------------------------------
    def _linear(self) -> tuple[mp.mpf, mp.mpf]:
        c = mp.pi / self.nu + 2 * mp.mpf(self.alpha)
        b = 2 * mp.pi / self.nu
        if self.family == "theta_raw":
            return c, b
        k = 2 * self.p + 1
        return k * c - b * (k + self.p * (self.p + 1)), b * k

    def log_weight_mp(self, i: int) -> mp.mpf:
        f = self.family
        if f in ("theta_raw", "theta_composite"):
            a, b = self._linear()
            return a + b * i
        if f == "bargmann_raw":
            return mp.log(i + 1) / 2
        if f == "bargmann_composite":
            return mp.log(i) / 2 + mp.loggamma(i) - mp.loggamma(i - self.p)
        return block_sign(i, self.role) * mp.log(2)

    def log_weight(self, i: int) -> float:
        """Float closed form, within a few units of roundoff of the exact value."""
        f = self.family
        if f in ("theta_raw", "theta_composite"):
            a, b = (float(x) for x in self._linear())
            return math.fsum([a, b * i])
        if f == "bargmann_raw":
            return 0.5 * math.log(i + 1.0)
        if f == "bargmann_composite":
            # lgamma(i) - lgamma(i-p) = sum_j log(i-j): no cancellation this way
            return math.fsum([0.5 * math.log(i)] + [math.log(i - j) for j in range(1, self.p + 1)])
        return block_sign(i, self.role) * LN2

    def eval_err(self, i: int) -> float:
        """Bound on the program's rounding when it evaluates one weight at i.

        The weight families are monotone in i on their domains, so the bound
        at the top index of a span bounds every term of the span.
        """
        f = self.family
        if f == "block_pattern":
            return 0.0
        if f == "bargmann_raw":
            return 4 * U * (1.0 + abs(self.log_weight(i)))
        if f == "bargmann_composite":
            # lgamma(i) - lgamma(i-p) cancels: the error scales with lgamma(i)
            return 8 * U * (1.0 + abs(math.lgamma(i)) + abs(math.lgamma(i - self.p)) + math.log(i))
        k = 2 * self.p + 1
        # the composite weight sums 2p+1 raw weights, each at most raw(i-1)
        raw_top = abs(math.pi / self.nu + 2 * self.alpha) + 2 * math.pi / self.nu * abs(i)
        return 4 * U * (k + 2) * k * (1.0 + raw_top)

    def span_mp(self, lo: int, hi: int) -> mp.mpf:
        """sum_{j=lo}^{hi} log a(j), in closed form."""
        n = hi - lo + 1
        if n <= 0:
            return mp.mpf(0)
        f = self.family
        if f in ("theta_raw", "theta_composite"):
            a, b = self._linear()
            return n * a + b * mp.mpf(lo + hi) * n / 2
        if f == "bargmann_raw":
            return (mp.loggamma(hi + 2) - mp.loggamma(lo + 1)) / 2
        if f == "bargmann_composite":
            s = (mp.loggamma(hi + 1) - mp.loggamma(lo)) / 2
            for j in range(1, self.p + 1):
                s += mp.loggamma(hi - j + 1) - mp.loggamma(lo - j)
            return s
        return (block_cum(hi, self.role) - block_cum(lo - 1, self.role)) * mp.log(2)

    def span_abs(self, lo: int, hi: int) -> float:
        """sum_{j=lo}^{hi} |log a(j)|: the scale of the summation error."""
        if hi < lo:
            return 0.0
        if self.family == "block_pattern":
            return (hi - lo + 1) * LN2
        if self.family in ("theta_raw", "theta_composite"):
            a, b = (float(x) for x in self._linear())
            zero = math.ceil(-a / b)  # terms are increasing; negative below `zero`
            if zero <= lo or zero > hi:
                return abs(float(self.span_mp(lo, hi)))
            return abs(float(self.span_mp(lo, zero - 1))) + float(self.span_mp(zero, hi))
        return float(self.span_mp(lo, hi))  # the log-gamma families are >= 0

    def span_err(self, lo: int, hi: int) -> float:
        """Bound on the program's error for a span summed term by term."""
        n = hi - lo + 1
        if n <= 0:
            return 0.0
        return n * U * self.span_abs(lo, hi) + n * self.eval_err(max(hi, 2))

    def partials(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Partial log-products over the scan range: values and rounding bounds.

        Entry k is sum_{j=start}^{start+k} log a(j).  The bound covers the
        program's cumulative sum and the float evaluation of these closed
        forms themselves.
        """
        start = self.scan_start
        k = np.arange(1, n + 1, dtype=np.float64)  # number of terms
        top = start + np.arange(n)
        f = self.family
        if f in ("theta_raw", "theta_composite"):
            a, b = (float(x) for x in self._linear())
            vals = k * a + b * k * (2.0 * start + k - 1.0) / 2.0
            scale = k * abs(a) + b * k * (2.0 * start + k - 1.0) / 2.0
            evals = np.array([self.eval_err(int(t)) for t in (top[0], top[-1])]).max()
            err = k * U * scale + k * evals + 8 * U * scale
        elif f == "block_pattern":
            signs = block_signs(n, self.role)
            cum = np.cumsum(signs)
            vals = cum * LN2
            err = k * U * k * LN2 + 2 * U * np.abs(vals)
        elif f == "bargmann_raw":
            vals = np.array([0.5 * math.lgamma(t + 2) for t in top])
            err = k * U * vals + 4 * U * (1.0 + vals)
        else:
            p = self.p
            lg = math.lgamma

            def partial(t: int) -> float:
                return math.fsum(
                    [0.5 * (lg(t + 1) - lg(start))]
                    + [lg(t - j + 1) - lg(start - j) for j in range(1, p + 1)]
                )

            vals = np.array([partial(int(t)) for t in top])
            lgtop = np.array([lg(int(t) + 1) for t in top])
            evals = np.array([self.eval_err(int(t)) for t in top])
            err = k * U * vals + k * evals + 8 * U * (p + 1) * lgtop
        return vals, err


def block_sign(i: int, role: str = "omega") -> int:
    """Sign of the i-th block-pattern weight, i >= 1: run k has length k."""
    k, end = 1, 1
    while end < i:
        k += 1
        end += k
    s = 1 if k % 2 == 1 else -1
    return s if role == "omega" else -s


def block_cum(i: int, role: str = "omega") -> int:
    """sum_{t=1}^{i} sign(t), from whole runs plus the partial run."""
    if i <= 0:
        return 0
    k, end = 0, 0
    while end + (k + 1) <= i:
        k += 1
        end += k
    # after runs 1..k: 1 - 2 + 3 - ... +-k
    whole = (k + 1) // 2 if k % 2 == 1 else -(k // 2)
    rest = i - end
    s = whole + (rest if (k + 1) % 2 == 1 else -rest)
    return s if role == "omega" else -s


def block_signs(n: int, role: str = "omega") -> np.ndarray:
    """Signs of positions 1..n, built run by run."""
    runs = []
    total, k = 0, 1
    while total < n:
        runs.append(np.full(k, 1 if k % 2 == 1 else -1, dtype=np.int64))
        total += k
        k += 1
    signs = np.concatenate(runs)[:n]
    return signs if role == "omega" else -signs


def log_abs_arg(z: complex) -> tuple[mp.mpf, mp.mpf]:
    """log|z| and arg z of a float complex, in mpmath."""
    zz = mp.mpc(z.real, z.imag)
    return mp.log(abs(zz)), mp.arg(zz)


def wrap_diff(a: float, b: float) -> float:
    """Distance between two phases on the circle."""
    return abs(math.remainder(a - b, 2.0 * math.pi))


class AxisSeries:
    """One axis of the rank-one eigenvector: terms lambda^i / prod_{j<=i} a(p+j).

    `term(i)` is the exact log-magnitude of the coefficient at index p+i and
    `phase(i)` its phase.  `err(i)` and `phase_err(i)` bound the program's
    accumulated rounding for the same term, which it builds step by step.
    """

    DPS = 110  # resolves omitted masses of e^-140 next to norms of e^30

    def __init__(self, fam: Family, log_abs: mp.mpf, arg: mp.mpf):
        self.fam = fam
        self.p = fam.offset
        self.ls = log_abs
        self.ls_f = float(log_abs)
        self.arg = arg
        self._terms = [mp.mpf(0)]
        self._errs = [0.0]
        self._heads = []  # prefix sums of |term|^2
        self._full = None

    def _grow(self, i: int) -> None:
        with mp.workdps(self.DPS):
            while len(self._terms) <= i:
                j = len(self._terms)
                t = self._terms[-1] + self.ls - self.fam.log_weight_mp(self.p + j)
                # two additions per step, the weight's own rounding, and the
                # program's single rounding of log|lambda| carried into every step
                e = U * (abs(float(self._terms[-1])) + abs(self.ls_f)) + U * abs(float(t))
                e += self.fam.eval_err(self.p + j) + 2 * U * (1.0 + abs(self.ls_f))
                self._terms.append(t)
                self._errs.append(self._errs[-1] + e)

    def term(self, i: int) -> mp.mpf:
        self._grow(i)
        return self._terms[i]

    def err(self, i: int) -> float:
        self._grow(i)
        return self._errs[i]

    def phase(self, i: int) -> float:
        with mp.workdps(30):
            return float(i * self.arg)

    @staticmethod
    def phase_err(i: int) -> float:
        return 8 * math.pi * U * (i + 1)

    def head_sq(self, cut: int) -> mp.mpf:
        """sum of |term(i)|^2 for i <= cut (0 for cut < 0)."""
        if cut < 0:
            return mp.mpf(0)
        with mp.workdps(self.DPS):
            while len(self._heads) <= cut:
                prev = self._heads[-1] if self._heads else mp.mpf(0)
                self._heads.append(prev + mp.exp(2 * self.term(len(self._heads))))
        return self._heads[cut]

    def full_sq(self) -> mp.mpf:
        """The infinite sum of |term(i)|^2.

        Summed until the terms decrease and fall below 10^-(DPS-10) of the
        running total; the weights grow without bound, so the terms decay
        faster than geometrically from there on.
        """
        if self._full is None:
            with mp.workdps(self.DPS):
                eps = mp.mpf(10) ** (-(self.DPS - 10))
                i = 1
                while True:
                    total = self.head_sq(i)
                    sq = total - self.head_sq(i - 1)
                    if sq < (self.head_sq(i - 1) - self.head_sq(i - 2)) and sq < eps * total:
                        break
                    i += 1
                    if i > 100_000:
                        raise ArithmeticError("axis series did not converge")
                self._full = total
        return self._full
