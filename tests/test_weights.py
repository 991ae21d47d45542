"""Weight families: closed forms, action weights, block pattern, tables."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftdyn import (
    BargmannActionWeights,
    BargmannRawWeights,
    BlockPatternWeights,
    IndexBelowOffset,
    TableRangeError,
    TableWeights,
    ThetaActionWeights,
    ThetaParams,
    ThetaRawWeights,
    ValidationError,
    weight_sequence_from_json,
)

LN2 = math.log(2.0)


def bargmann_action_oracle(n: int, p: int) -> float:
    """Symbolic differentiation of z^p d^{p+1}/dz^{p+1} on z^n/sqrt(n!).

    The derivative gives n!/(n-p-1)! * z^{n-1}; re-expressed on the
    orthonormal monomials the coefficient is that integer over sqrt(n),
    so the squared weight is the exact rational (n!/(n-p-1)!)^2 / n.
    """
    c = 1
    for j in range(n - p, n + 1):
        c *= j  # n! / (n-p-1)!
    sq = Fraction(c * c, n)
    return 0.5 * math.log(sq)


def test_theta_raw_closed_form_examples():
    assert abs(ThetaRawWeights(ThetaParams(nu=math.pi)).log_weight(0) - 1.0) <= 1e-15
    assert abs(ThetaRawWeights(ThetaParams(nu=2 * math.pi, alpha=1.0)).log_weight(3) - 5.5) <= 1e-12


def test_theta_raw_constant_increment():
    for nu, alpha in [(math.pi, 0.0), (1.7, -0.4), (2 * math.pi, 1.0)]:
        params = ThetaParams(nu=nu, alpha=alpha)
        step = 2 * math.pi / nu
        w = ThetaRawWeights(params)
        for m in range(0, 60):
            inc = w.log_weight(m + 1) - w.log_weight(m)
            assert abs(inc - step) <= 1e-9 * max(1.0, step)


def test_theta_raw_negative_index():
    with pytest.raises(IndexBelowOffset):
        ThetaRawWeights(ThetaParams(nu=1.0)).log_weight(-1)


def test_theta_params_invariants():
    with pytest.raises(ValidationError):
        ThetaParams(nu=0.0)
    with pytest.raises(ValidationError):
        ThetaParams(nu=-2.0)
    with pytest.raises(ValidationError):
        ThetaParams(nu=1.0, p=-1)


@pytest.mark.parametrize("family", [lambda p: ThetaParams(nu=1.0, p=p), lambda p: BargmannActionWeights(p=p)],
                         ids=["theta", "bargmann"])
def test_an_order_follows_the_index_rule(family):
    # an order is an integer of magnitude below 2**53, as every index is, and >= 0
    assert family(2**53 - 1) is not None
    for bad in (2**53, -(2**53), 1.5, True, "1"):
        with pytest.raises(ValidationError, match=r"p must be an integer of magnitude below 2\*\*53"):
            family(bad)
    with pytest.raises(ValidationError, match="p must be >= 0"):
        family(-1)


_U = Fraction(1, 2**53)


@settings(max_examples=300, deadline=None, database=None)
@given(nu=st.floats(0.05, 50.0), alpha=st.floats(0.0, 5.0), data=st.data())
def test_theta_closed_form_is_within_11_units_of_its_defining_sum(nu, alpha, data):
    # the defining sum of 2p + 1 raw weights s + r*k, taken exactly in rationals on the floats s and r
    # that the program forms (by Gauss's sum over j, as p reaches 2**53).  With alpha >= 0 every raw
    # weight is positive, so no cancellation: rounding bounds the closed form's error by 11 units
    # (2**-53) of the weight at first order, the worst case where p >= 2**52 makes 2p + 1 round
    p = data.draw(st.integers(0, 10) | st.integers(0, 2**53 - 2) | st.integers(2**52, 2**53 - 2))
    m = data.draw(st.just(p + 1) | st.integers(p + 1, min(p + 1000, 2**53 - 1)) | st.integers(p + 1, 2**53 - 1))
    s, r = Fraction(math.pi / nu + 2.0 * alpha), Fraction(2.0 * math.pi / nu)
    exact = (s + r * (m - 1)) + 2 * (p * s + r * (p * (m - 1) - Fraction(p * (p + 1), 2)))
    w = ThetaActionWeights(ThetaParams(nu=nu, alpha=alpha, p=p))
    got = w.log_weight(m)
    assert abs(Fraction(got) - exact) <= 11 * _U * exact
    assert w.log_weights(range(m, m + 1)).tolist() == [got]


def test_theta_action_p0_equals_raw_shifted():
    params = ThetaParams(nu=math.pi, alpha=0.3, p=0)
    action, raw = ThetaActionWeights(params), ThetaRawWeights(params)
    for m in range(1, 201):
        assert action.log_weight(m) == raw.log_weight(m - 1)


def test_theta_action_example_p1():
    # log a(2) = log w(1) + 2 log w(0) = 3 + 2 = 5 at nu=pi, alpha=0
    assert abs(ThetaActionWeights(ThetaParams(nu=math.pi, p=1)).log_weight(2) - 5.0) <= 1e-12


def test_theta_action_monotone_increment():
    for p in range(4):
        for nu, alpha in [(math.pi, 0.0), (2.0, 0.5)]:
            params = ThetaParams(nu=nu, alpha=alpha, p=p)
            expected = (2 * p + 1) * (2 * math.pi / nu)
            w = ThetaActionWeights(params)
            for m in range(p + 1, 51):
                inc = w.log_weight(m + 1) - w.log_weight(m)
                assert abs(inc - expected) <= 1e-9 * max(1.0, expected)


def test_theta_action_below_offset():
    params = ThetaParams(nu=1.0, p=2)
    for m in (0, 1, 2):
        with pytest.raises(IndexBelowOffset):
            ThetaActionWeights(params).log_weight(m)


def test_bargmann_raw():
    for n in range(0, 50):
        assert BargmannRawWeights().log_weight(n) == 0.5 * math.log(n + 1.0)


def test_bargmann_action_against_symbolic_oracle():
    for p in range(0, 4):
        for n in range(p + 1, 40):
            assert abs(BargmannActionWeights(p).log_weight(n) - bargmann_action_oracle(n, p)) <= 1e-12


def test_bargmann_action_examples():
    assert abs(BargmannActionWeights(0).log_weight(4) - math.log(2.0)) <= 1e-12
    assert abs(BargmannActionWeights(1).log_weight(2) - 0.5 * math.log(2.0)) <= 1e-12
    with pytest.raises(IndexBelowOffset):
        BargmannActionWeights(3).log_weight(3)


def test_bargmann_action_p0_is_sqrt_n():
    for n in range(1, 201):
        assert abs(BargmannActionWeights(0).log_weight(n) - 0.5 * math.log(n)) <= 1e-12


def test_block_pattern_prefix_matches_display():
    omega = [BlockPatternWeights("omega").log_weight(i) for i in range(1, 6)]
    assert omega == [LN2, -LN2, -LN2, LN2, LN2]
    varpi = [BlockPatternWeights("varpi").log_weight(i) for i in range(1, 6)]
    assert varpi == [-LN2, LN2, LN2, -LN2, -LN2]


def test_block_pattern_reciprocal_pair_exact():
    omega, varpi = BlockPatternWeights("omega"), BlockPatternWeights("varpi")
    for i in range(1, 5000):
        assert omega.log_weight(i) + varpi.log_weight(i) == 0.0


def test_block_pattern_block_structure():
    # run k spans the k indices after the (k-1)-th triangular number;
    # odd runs are twos, even runs are halves
    for k in range(1, 40):
        lo = k * (k - 1) // 2 + 1
        expected = LN2 if k % 2 == 1 else -LN2
        for i in range(lo, lo + k):
            assert BlockPatternWeights("omega").log_weight(i) == expected


def test_block_pattern_partial_sums_swing_both_ways():
    # after run k the partial log2-sum is (k+1)/2 for odd k, -k/2 for even k
    w = BlockPatternWeights(role="omega")
    acc = 0.0
    for k in range(1, 60):
        lo = k * (k - 1) // 2 + 1
        for i in range(lo, lo + k):
            acc += w.log_weight(i)
        expected = (k + 1) // 2 if k % 2 == 1 else -(k // 2)
        assert abs(acc - expected * LN2) <= 1e-9


def test_block_pattern_running_max_unbounded_both_roles():
    for role in ("omega", "varpi"):
        w = BlockPatternWeights(role=role)
        partials = np.cumsum(w.log_weights(range(1, 1_000_000)))
        running_max = np.maximum.accumulate(partials)
        # every K*ln2 level up to K=32 is attained within the first 1e6 terms
        for k in range(1, 33):
            assert running_max[-1] >= k * LN2


def test_block_pattern_vector_matches_scalar():
    w = BlockPatternWeights(role="varpi")
    idx = range(1, 3000)
    bulk = w.log_weights(idx)
    for i, v in zip(idx, bulk):
        assert v == w.log_weight(i)


def test_all_families_positive_finite():
    seqs = [
        ThetaRawWeights(ThetaParams(nu=1.3, alpha=-0.7)),
        ThetaActionWeights(ThetaParams(nu=2.2, alpha=0.1, p=2)),
        BargmannRawWeights(),
        BargmannActionWeights(p=1),
        BlockPatternWeights(role="omega"),
        TableWeights.from_weights([0.5, 2.0, 3.5]),
    ]
    for w in seqs:
        for i in range(w.scan_start, w.scan_start + 3):
            v = w.log_weight(i)
            assert math.isfinite(v)


def test_table_weights():
    t = TableWeights.from_weights([1.0, 2.0, 0.25], start=1)
    assert t.log_weight(1) == 0.0
    assert t.log_weight(2) == math.log(2.0)
    assert t.log_weight(3) == math.log(0.25)
    with pytest.raises(TableRangeError):
        t.log_weight(4)
    with pytest.raises(TableRangeError):
        t.log_weight(0)
    with pytest.raises(ValidationError):
        TableWeights.from_weights([1.0, -2.0])


def test_a_table_start_follows_the_index_rule():
    # the first index of the domain [start, start + len), checked where the library takes it in
    for bad in (math.nan, math.inf, 2.5, True, 2**53, "1"):
        for make in (lambda: TableWeights.from_weights([1.0], start=bad), lambda: TableWeights((0.0,), bad)):
            with pytest.raises(ValidationError, match=r"start must be an integer of magnitude below 2\*\*53"):
                make()
    t = TableWeights.from_weights([1.0], start=2.0)
    assert type(t.start) is int and (t.first, t.end) == (2, 3) and t.log_weight(2) == 0.0


def test_scan_start_per_family():
    assert ThetaRawWeights(ThetaParams(nu=1.0)).scan_start == 1
    assert ThetaActionWeights(ThetaParams(nu=1.0, p=2)).scan_start == 3
    assert BargmannActionWeights(p=1).scan_start == 2
    assert BlockPatternWeights().scan_start == 1
    assert TableWeights.from_weights([1.0], start=5).scan_start == 5


def test_json_round_trip_all_families():
    cases = [
        ({"family": "theta_raw", "nu": 1.3, "alpha": -0.7}, ThetaRawWeights(ThetaParams(nu=1.3, alpha=-0.7))),
        ({"family": "theta_composite", "nu": 2.2, "alpha": 0.1, "p": 2},
         ThetaActionWeights(ThetaParams(nu=2.2, alpha=0.1, p=2))),
        ({"family": "bargmann_raw"}, BargmannRawWeights()),
        ({"family": "bargmann_composite", "p": 1}, BargmannActionWeights(p=1)),
        ({"family": "block_pattern", "role": "varpi"}, BlockPatternWeights(role="varpi")),
        ({"family": "table", "table": [1.0, 2.0], "start": 3}, TableWeights.from_weights([1.0, 2.0], start=3)),
    ]
    for spec, w in cases:
        w2 = weight_sequence_from_json(spec)
        assert w2 == w
        assert w2.family == w.family
        for i in range(w.scan_start, w.scan_start + 2):
            assert abs(w2.log_weight(i) - w.log_weight(i)) <= 1e-15


def test_json_rejects_bad_specs():
    with pytest.raises(ValidationError):
        weight_sequence_from_json({"family": "nope"})
    with pytest.raises(ValidationError):
        weight_sequence_from_json({"family": "theta_raw", "nu": -1.0})
    with pytest.raises(ValidationError):
        weight_sequence_from_json([1, 2, 3])


_NU = st.floats(0.05, 50.0)
_ALPHA = st.floats(-5.0, 5.0)
_FAMILIES = st.one_of(
    st.builds(ThetaRawWeights, st.builds(ThetaParams, nu=_NU, alpha=_ALPHA)),
    st.builds(ThetaActionWeights, st.builds(ThetaParams, nu=_NU, alpha=_ALPHA, p=st.integers(0, 10))),
    st.just(BargmannRawWeights()),
    st.builds(BargmannActionWeights, p=st.integers(0, 10)),
    st.builds(BlockPatternWeights, role=st.sampled_from(["omega", "varpi"])),
    st.builds(TableWeights.from_weights, st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20),
              start=st.integers(0, 5)),
)


def _assert_bulk_is_scalar(w, idx):
    bulk = w.log_weights(idx)
    loop = np.array([w.log_weight(i) for i in idx], dtype=np.float64)
    assert bulk.dtype == np.float64
    assert bulk.view(np.int64).tolist() == loop.view(np.int64).tolist()


def test_bargmann_raw_bulk_keeps_the_scalar_bits():
    # np.log differs from math.log in the last bit at 111 of the first 2e6 indices, from 9,169
    _assert_bulk_is_scalar(BargmannRawWeights(), range(0, 200_000))


@pytest.mark.parametrize("p", [0, 2, 5, 150_000])
def test_bargmann_composite_bulk_keeps_the_scalar_bits(p):
    # one lgamma column serves both lgamma terms, in _log's order of operations; at p = 150,000 the
    # two terms' indices do not overlap within a range of 100,000
    w = BargmannActionWeights(p=p)
    for lo in (w.first, w.first + 1, 3_000_017):
        _assert_bulk_is_scalar(w, range(lo, lo + 100_000))
    with pytest.raises(IndexBelowOffset, match=f"index {w.first - 1} outside"):
        w.log_weights(range(w.first - 1, w.first + 10))
    assert w.log_weights(range(w.first - 1, w.first - 1)).size == 0


@pytest.mark.parametrize("p", [0, 3, 10**6, 2**52 + 1])
def test_theta_composite_bulk_keeps_the_scalar_bits(p):
    for nu, alpha in [(math.pi, 0.0), (2.2, 0.1), (1.3, -0.7)]:
        w = ThetaActionWeights(ThetaParams(nu=nu, alpha=alpha, p=p))
        for lo in (w.first, w.first + 3_000_017):
            _assert_bulk_is_scalar(w, range(lo, lo + 10_000))


# the last index of block-pattern run k, T(k) = k(k+1)/2, for every run ending below 2**52
_RUN_ENDS = st.integers(1, 94_906_265).map(lambda k: k * (k + 1) // 2)


@settings(max_examples=300, deadline=None, database=None)
@given(w=_FAMILIES, data=st.data())
def test_bulk_equals_scalar_for_every_family(w, data):
    top = min(w.end, w.first + 2**53) - 1
    anchor = st.integers(w.first, top) | st.integers(w.first, min(top, w.first + 1000)) | _RUN_ENDS
    # a range inside the domain around an anchor, often across the end of a block-pattern run
    lo = max(w.first, min(data.draw(anchor), top) - data.draw(st.integers(0, 60)))
    _assert_bulk_is_scalar(w, range(lo, min(top + 1, lo + data.draw(st.integers(0, 120)))))
    # a range that starts or ends outside the domain fails both paths alike, at the first such index
    outside = st.integers(-(2**62), w.first - 1) | st.integers(w.first - 5, w.first - 1)
    if w.end < math.inf:
        outside |= st.integers(w.end, w.end + 5)
    lo, hi = sorted((data.draw(outside), data.draw(anchor | outside)))
    idx = range(lo, hi + 1)
    errors = []
    for evaluate in (lambda: w.log_weights(idx), lambda: [w.log_weight(i) for i in idx]):
        with pytest.raises(ValidationError) as caught:
            evaluate()
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    first_bad = next(i for i in idx if not w.first <= i < w.end)
    assert f"index {first_bad} outside" in errors[0][1]
    # an empty range reads nothing, wherever it lies
    assert w.log_weights(range(lo, lo)).size == 0


def test_bulk_weights_take_consecutive_indices():
    with pytest.raises(ValidationError, match="consecutive"):
        BargmannRawWeights().log_weights(range(0, 10, 2))
