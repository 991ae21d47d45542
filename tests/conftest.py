"""Shared helpers for the test suite: random builders, log-domain asserts, and references.

The references are independent of the code under test where they can be:
stepping an orbit one `apply_power(op, v, 1)` at a time, the dense outer
product of two factors, the dense residual band and the entrywise residual of
an eigenvector, the adjoint pairing, the hypercyclic schedule search with
every probe built by `apply_power`, the full float replay of a hypercyclic
vector, and the periodic approximant with every term built by `apply_power`.
`coeff_add`, `coeff_neg` and `coeff_sub` are the general entrywise vector
algebra, which the package does without (its sums are unions of disjoint
supports).  `factors(op)` splits an operator into its one-axis operators.
"""

from __future__ import annotations

import cmath
import math
import random

from shiftdyn import (
    CoeffVector,
    Direction,
    LogComplex,
    OffsetMismatch,
    ScheduleOverflow,
    ShiftOperator,
    TailNotCertifiable,
    apply_power,
    coeff_inner,
    coeff_norm_log,
    lc_add,
    lc_from_complex,
    lc_mul,
    lc_neg,
    right_inverse,
)
from shiftdyn.dynamics import _SERIES_TERMS_CAP
from shiftdyn.numerics import log_sum_exp, wrap_phase
from shiftdyn.shift_ops import nilpotence_index

NEG_INF = float("-inf")


def coeff_add(u: CoeffVector, v: CoeffVector) -> CoeffVector:
    """u + v, key by key with `lc_add`; a sum that cancels to the exact zero is dropped."""
    if u.offsets != v.offsets:
        raise OffsetMismatch(f"offsets differ: {u.offsets} vs {v.offsets}")
    out = dict(u.entries)
    for key, c in v.entries.items():
        s = lc_add(out[key], c) if key in out else c
        if s.is_zero:
            out.pop(key, None)
        else:
            out[key] = s
    return CoeffVector(u.offsets, out)


def coeff_neg(u: CoeffVector) -> CoeffVector:
    return CoeffVector(u.offsets, {key: lc_neg(c) for key, c in u.entries.items()})


def coeff_sub(u: CoeffVector, v: CoeffVector) -> CoeffVector:
    return coeff_add(u, coeff_neg(v))


def rand_lc(rng: random.Random, logmag_lo=-3.0, logmag_hi=3.0) -> LogComplex:
    return LogComplex(rng.uniform(logmag_lo, logmag_hi), rng.uniform(-math.pi, math.pi))


def rand_coeff_vector(
    rng: random.Random, p: int, max_support: int = 10, max_index: int = 60
) -> CoeffVector:
    size = rng.randint(1, max_support)
    support = rng.sample(range(p, max_index + 1), size)
    return CoeffVector((p,), {(m,): rand_lc(rng) for m in support})

def rand_tensor_vector(
    rng: random.Random, offsets=(0, 0), n_entries: int = 10, max_index: int = 40
) -> CoeffVector:
    p1, p2 = offsets
    entries = {}
    while len(entries) < n_entries:
        key = (rng.randint(p1, max_index), rng.randint(p2, max_index))
        entries[key] = rand_lc(rng)
    return CoeffVector(offsets, entries)


def rel_gap_log(a: LogComplex, b: LogComplex) -> float:
    """log(|a - b| / max(|a|, |b|)); -inf when both are the same value."""
    diff = lc_add(a, lc_neg(b))
    if diff.is_zero:
        return NEG_INF
    scale = max(a.logmag, b.logmag)
    if scale == NEG_INF:
        return math.inf
    return diff.logmag - scale


def assert_lc_rel_close(a: LogComplex, b: LogComplex, tol_rel: float) -> None:
    gap = rel_gap_log(a, b)
    assert gap <= math.log(tol_rel), f"relative gap e^{gap:.3f} exceeds {tol_rel}"


def assert_lc_equals_complex(a: LogComplex, z: complex, tol_rel: float) -> None:
    za = lc_to_complex(a)
    if z == 0:
        assert abs(za) <= tol_rel
    else:
        assert abs(za - z) <= tol_rel * abs(z), f"{za} != {z}"


def lc_to_complex(a: LogComplex) -> complex:
    return 0j if a.is_zero else cmath.rect(math.exp(a.logmag), a.phase)


def orbit(op, seed: CoeffVector, k_max: int) -> list[CoeffVector]:
    """[T^0 v, T^1 v, ..., T^k_max v], one single step at a time."""
    steps = [seed]
    for _ in range(k_max):
        steps.append(apply_power(op, steps[-1], 1))
    return steps


def tensor_of(u: CoeffVector, v: CoeffVector) -> CoeffVector:
    """The dense outer product u (x) v, each entry `lc_mul` of its factors' entries; zero when either
    factor is."""
    entries = {ku + kv: lc_mul(cu, cv) for ku, cu in u.entries.items() for kv, cv in v.entries.items()}
    return CoeffVector(u.offsets + v.offsets, entries)


def band_residual_log(g: CoeffVector, lam: complex, mu: complex, q: int = 1) -> float:
    """log ||T^q g - (lambda*mu)^q g|| of a dense truncated eigenvector, from its width-q band.

    The interior telescopes, leaving -(lambda*mu)^q times the outermost band.
    """
    lm = lc_from_complex(lam).logmag + lc_from_complex(mu).logmag  # per axis: lam * mu may underflow
    if lm == NEG_INF or g.is_zero:
        return NEG_INF
    trunc_m, trunc_n = (max(key[i] for key in g.entries) for i in (0, 1))
    band = (2.0 * c.logmag for (m, n), c in g.entries.items() if m > trunc_m - q or n > trunc_n - q)
    return q * lm + log_sum_exp(band) / 2.0


def numeric_residual_log(op, g: CoeffVector, lam: complex, mu: complex, q: int = 1) -> float:
    """log ||T^q g - (lambda*mu)^q g|| by entrywise subtraction; floored near 1e-13 of ||g||."""
    lm = lc_from_complex(lam * mu)
    power = LogComplex(q * lm.logmag, wrap_phase(q * lm.phase)) if not lm.is_zero else lm
    scaled = CoeffVector.from_entries(g.offsets, {key: lc_mul(c, power) for key, c in g.entries.items()})
    return coeff_norm_log(coeff_sub(apply_power(op, g, q), scaled))


def factors(op) -> tuple:
    """The one-axis operators of op's axes, over the same weight sequences (and tables)."""
    return tuple(ShiftOperator((w,), op.direction) for w in op.weights)


def adjoint_forward(op):
    """The adjoint of a backward operator: the same weights, forward."""
    return ShiftOperator(op.weights, Direction.ADJOINT_FORWARD)


def adjoint_pairing_gap_log(op, u: CoeffVector, v: CoeffVector) -> float:
    """log |<T u, v> - <u, T* v>| for a backward op; -inf when the pairing matches exactly."""
    lhs = coeff_inner(apply_power(op, u, 1), v)
    rhs = coeff_inner(u, apply_power(adjoint_forward(op), v, 1))
    return lc_add(lhs, lc_neg(rhs)).logmag


def hypercyclic_reference(op, targets, eps: float, n_cap: int = 100_000, probes: list | None = None):
    """The schedule search of `hypercyclic_vector_build`, each probe built from scratch.

    A candidate time n probes the checkpoints nearest first, each with the
    norm of `apply_power(S, y, n - n_j')`; `probes`, when given, collects the
    gap of every probe.  Returns (psi, schedule).
    """
    s_op = right_inverse(op)
    schedule: list[int] = []
    n = 1
    for j, y in enumerate(targets, start=1):
        budget = math.log(eps) - j * math.log(2.0)

        def fails(gap: int) -> bool:
            if probes is not None:
                probes.append(gap)
            return coeff_norm_log(apply_power(s_op, y, gap)) > budget

        while True:
            if n > n_cap:
                raise ScheduleOverflow(f"schedule time exceeded {n_cap}; weights grow too slowly for eps={eps}")
            if y.is_zero or not any(fails(n - t) for t in reversed(schedule)):
                break
            n += 1
        schedule.append(n)
        n += max(1, nilpotence_index(op, y))
    psi = CoeffVector(op.offsets)
    for n, y in zip(schedule, targets):
        psi = coeff_add(psi, apply_power(s_op, y, n))
    return psi, schedule


def replay_reference(op, psi: CoeffVector, schedule: list[int], targets) -> list[float]:
    """log ||T^n psi - y|| for each scheduled (n, y), each power applied to the whole of psi."""
    return [coeff_norm_log(coeff_sub(apply_power(op, psi, n), y)) for n, y in zip(schedule, targets)]


def periodic_reference(op, y: CoeffVector, q: int, tail_tol_log: float) -> CoeffVector:
    """`periodic_from_target` for a nonzero y and a valid q, each term `apply_power(S, y, q r)` built
    from scratch and added with `coeff_add`."""
    s_op = right_inverse(op)
    x = y
    for r in range(1, _SERIES_TERMS_CAP + 1):
        term = apply_power(s_op, y, q * r)
        x = coeff_add(x, term)
        if coeff_norm_log(term) <= tail_tol_log:
            return x
    raise TailNotCertifiable(f"series did not reach tail_tol_log within {_SERIES_TERMS_CAP} terms")
