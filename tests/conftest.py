"""Shared helpers for the test suite: random builders and log-domain asserts."""

from __future__ import annotations

import math
import random

from shiftdyn import (
    CoeffVector,
    LogComplex,
    lc_sub,
    lc_to_complex,
)

NEG_INF = float("-inf")


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
    diff = lc_sub(a, b)
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
