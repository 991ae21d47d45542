"""Log-weight spans read from each operator's lazily grown weight table.

Every span must be the very float that adding the weights one by one, in
ascending order from 0.0, gives; errors must come from the same index as in
that termwise loop; and one operator must be safe to share across threads.
"""

import copy
import pickle
import random
import struct
import sys
import threading
from collections import Counter

import pytest

from shiftdyn import (
    BargmannActionWeights,
    BlockPatternWeights,
    CoeffVector,
    IndexBelowOffset,
    LogComplex,
    ShiftOperator,
    TableRangeError,
    TableWeights,
    WeightSequence,
    apply_power,
    bargmann_backward_shift,
    right_inverse,
    tensor_operator,
    theta_backward_shift,
)

from conftest import adjoint_forward


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def ref_span(weights: WeightSequence, lo: int, hi: int) -> float:
    """The termwise ascending loop the table must reproduce."""
    acc = 0.0
    for j in range(lo, hi + 1):
        acc += weights.log_weight(j)
    return acc


def ref_power(op: ShiftOperator, v: CoeffVector, k: int) -> dict:
    p, w, name = op.offsets[0], op.weights[0], op.direction.value
    out = {}
    for (m,), c in v.entries.items():
        if name == "backward":
            if k <= m - p:
                out[(m - k,)] = (c.logmag + ref_span(w, m - k + 1, m), c.phase)
        elif name == "right_inverse":
            out[(m + k,)] = (c.logmag - ref_span(w, m + 1, m + k), c.phase)
        else:
            out[(m + k,)] = (c.logmag + ref_span(w, m + 1, m + k), c.phase)
    return out


def as_bits(entries: dict) -> dict:
    return {m: (bits(c[0]), bits(c[1])) for m, c in entries.items()}


def entry_bits(vector) -> dict:
    return {m: (bits(c.logmag), bits(c.phase)) for m, c in vector.entries.items()}


def outcome(fn, *args):
    try:
        return ("ok", bits(fn(*args)))
    except Exception as exc:  # the error type and message name the index
        return ("error", type(exc), str(exc))


_K_MAX = 5000
_TOP = 10_020  # highest index a power-5000 span reaches from the vectors below


def family_operators():
    rng = random.Random(7)
    table = TableWeights.from_weights([rng.uniform(0.1, 10.0) for _ in range(_TOP)], start=1)
    return {
        "theta p=0": theta_backward_shift(2.7, -0.3, 0),
        "theta p=3": theta_backward_shift(3.3, 0.2, 3),
        "bargmann p=0": bargmann_backward_shift(0),
        "bargmann p=2": bargmann_backward_shift(2),
        "block pattern": ShiftOperator((BlockPatternWeights("omega"),)),
        "table": ShiftOperator((table,)),
    }


@pytest.mark.parametrize("family", sorted(family_operators()))
@pytest.mark.parametrize("direction", ["backward", "right_inverse", "adjoint_forward"])
def test_power_matches_termwise_loop_bitwise(family, direction):
    base = family_operators()[family]
    op = {"backward": base, "right_inverse": right_inverse(base), "adjoint_forward": adjoint_forward(base)}[
        direction
    ]
    p = op.offsets[0]
    v = CoeffVector(
        (p,),
        {
            (p,): LogComplex(0.25, 1.0),
            (p + 7,): LogComplex(-1.5, -2.0),
            (p + _K_MAX + 3,): LogComplex(3.0, 0.5),
        },
    )
    ks = list(range(1, 65)) + list(range(65, _K_MAX, 211)) + [_K_MAX - 1, _K_MAX]
    random.Random(11).shuffle(ks)  # the table grows in jumps and is read warm
    for k in ks:
        got = apply_power(op, v, k)
        want = ref_power(op, v, k)
        assert entry_bits(got) == as_bits(want), k


def test_tensor_power_matches_termwise_loop_bitwise():
    op = tensor_operator(theta_backward_shift(3.0, 0.1, 1), bargmann_backward_shift(2))
    w = CoeffVector((1, 2), {(40, 9): LogComplex(0.5, 0.3), (7, 60): LogComplex(-2.0, -1.0)})
    for k in (1, 2, 5, 6, 30, 6, 1):
        got = apply_power(op, w, k)
        want = {}
        for (m, n), c in w.entries.items():
            if k <= m - 1 and k <= n - 2:
                s1 = ref_span(op.weights[0], m - k + 1, m)
                s2 = ref_span(op.weights[1], n - k + 1, n)
                want[(m - k, n - k)] = (c.logmag + (s1 + s2), c.phase)
        assert entry_bits(got) == as_bits(want)


@pytest.mark.parametrize(
    "op",
    [
        ShiftOperator((TableWeights.from_weights([0.5 + 0.25 * i for i in range(20)], start=5),)),
        ShiftOperator((TableWeights.from_weights([2.0, 0.5, 3.0, 1.0, 7.0], start=1),)),
        ShiftOperator((TableWeights.from_weights([1.5, 2.5, 0.75], start=0),)),
        theta_backward_shift(3.0, -0.4, 3),
    ],
    ids=["table start=5", "table start=1", "table start=0", "theta p=3"],
)
def test_rejected_indices_raise_where_the_loop_did(op):
    spans = [(lo, hi) for lo in range(-2, 32) for hi in range(lo - 1, 32)]
    # out-of-range attempts first, then every span again on the used table
    spans.sort(key=lambda s: -s[1])
    for lo, hi in spans + spans[::-1]:
        want = outcome(ref_span, op.weights[0], lo, hi)
        assert outcome(op.weights[0].log_weight_span, lo, hi) == want, (lo, hi)


def test_table_power_raises_past_the_end_and_below_start():
    op = ShiftOperator((TableWeights.from_weights([1.0 + i for i in range(10)], start=4),))
    s = right_inverse(op)
    with pytest.raises(TableRangeError, match="index 14 outside"):
        apply_power(s, CoeffVector.unit((12,), (0,)), 3)  # needs 13, 14, 15
    with pytest.raises(TableRangeError, match="index 2 outside"):
        apply_power(op, CoeffVector.unit((5,), (0,)), 4)  # needs 2..5
    with pytest.raises(TableRangeError, match="index 3 outside"):
        apply_power(op, CoeffVector.unit((3,), (0,)), 1)
    # in-range spans still succeed after the failed attempts
    got = apply_power(op, CoeffVector.unit((13,), (0,)), 9)
    assert bits(got.entries[(4,)].logmag) == bits(ref_span(op.weights[0], 5, 13))
    got = apply_power(s, CoeffVector.unit((3,), (0,)), 10)
    assert bits(got.entries[(13,)].logmag) == bits(-ref_span(op.weights[0], 4, 13))
    with pytest.raises(IndexBelowOffset):
        theta_backward_shift(3.0, 0.0, 2).weights[0].log_weight_span(2, 5)


class CountingWeights(WeightSequence):
    """Bargmann weights that count how often each index is evaluated."""

    def __init__(self, p: int):
        self.inner = BargmannActionWeights(p)
        self.offset_p = p
        self.calls: Counter = Counter()

    def log_weight(self, i: int) -> float:
        self.calls[i] += 1
        return self.inner.log_weight(i)


def test_each_weight_is_evaluated_once_and_never_beyond_the_span():
    weights = CountingWeights(2)
    op = ShiftOperator((weights,))
    assert op.weights[0].log_weight_span(10, 9) == 0.0
    assert not weights.calls  # an empty span asks for nothing
    op.weights[0].log_weight_span(5, 40)
    assert sorted(weights.calls) == list(range(3, 41))
    for lo, hi in ((3, 40), (17, 25), (39, 40), (30, 60), (3, 3)):
        assert bits(op.weights[0].log_weight_span(lo, hi)) == bits(ref_span(weights.inner, lo, hi))
    assert sorted(weights.calls) == list(range(3, 61))
    assert set(weights.calls.values()) == {1}


def test_tensor_step_reads_each_factor_weight_once():
    for direction in ("backward", "right_inverse"):
        left, right = CountingWeights(1), CountingWeights(2)
        op = tensor_operator(ShiftOperator((left,)), ShiftOperator((right,)))
        if direction == "right_inverse":
            op = right_inverse(op)
        entries = {(m, n): LogComplex(0.1 * m, 0.2) for m in range(1, 30) for n in range(2, 25)}
        apply_power(op, CoeffVector((1, 2), entries), 1)
        step = 0 if direction == "backward" else 1  # source index of the weight read
        assert sorted(left.calls) == list(range(2, 30 + step)), direction
        assert sorted(right.calls) == list(range(3, 25 + step)), direction
        assert set(left.calls.values()) == set(right.calls.values()) == {1}, direction


def test_every_direction_over_one_weight_sequence_shares_its_table():
    weights = CountingWeights(2)
    op = ShiftOperator((weights,))
    v = CoeffVector((2,), {(m,): LogComplex(0.1 * m, 0.3) for m in range(2, 40, 3)})
    for k in (2, 7, 30):
        for target in (op, right_inverse(op), adjoint_forward(op)):
            apply_power(target, v, k)
    assert sorted(weights.calls) == list(range(3, 38 + 30 + 1))
    assert set(weights.calls.values()) == {1}


def test_tensor_right_inverse_shares_its_factors_tables():
    left, right = CountingWeights(1), CountingWeights(2)
    op = tensor_operator(ShiftOperator((left,)), ShiftOperator((right,)))
    w = CoeffVector((1, 2), {(m, n): LogComplex(0.1 * m, 0.2) for m in range(1, 30, 4) for n in range(2, 25, 5)})
    for k in (2, 9):
        apply_power(op, w, k)
        apply_power(right_inverse(op), w, k)
    assert sorted(left.calls) == list(range(2, 29 + 9 + 1))
    assert sorted(right.calls) == list(range(3, 22 + 9 + 1))
    assert set(left.calls.values()) == set(right.calls.values()) == {1}


@pytest.mark.parametrize("weights", [BargmannActionWeights(2), CountingWeights(2)], ids=["family", "subclass"])
def test_copies_of_weights_start_with_an_empty_table(weights):
    weights.log_weight_span(3, 50)
    for copied in (copy.copy(weights), copy.deepcopy(weights), pickle.loads(pickle.dumps(weights))):
        assert "_span_table" not in vars(copied)
        assert bits(copied.log_weight_span(3, 50)) == bits(weights.log_weight_span(3, 50))


def test_shared_operator_across_four_threads():
    weights = CountingWeights(2)
    op = ShiftOperator((weights,))
    n_top = 3000
    spans = [(max(3, hi - (hi * 7919) % 400), hi) for hi in range(3, n_top)]
    want = {s: bits(ref_span(weights.inner, *s)) for s in spans}
    barrier = threading.Barrier(4, timeout=60)
    wrong = []

    def worker(t: int) -> None:
        barrier.wait()
        for lo, hi in spans[t::4]:  # interleaved, growing spans
            if bits(op.weights[0].log_weight_span(lo, hi)) != want[(lo, hi)]:
                wrong.append((lo, hi))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []
    assert sorted(weights.calls) == list(range(3, n_top))
    assert set(weights.calls.values()) == {1}


def test_table_is_outside_equality_hash_repr_and_copies():
    op = bargmann_backward_shift(2)
    op.weights[0].log_weight_span(3, 50)
    twin = bargmann_backward_shift(2)
    assert op == twin and hash(op) == hash(twin) and repr(op) == repr(twin)
    for copied in (copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
        assert copied == op
        assert bits(copied.weights[0].log_weight_span(3, 50)) == bits(op.weights[0].log_weight_span(3, 50))


def test_right_inverse_identity_bitwise_with_warm_tables():
    for op in (theta_backward_shift(3.1, 0.0, 1), bargmann_backward_shift(1)):
        s = right_inverse(op)
        p = op.offsets[0]
        apply_power(s, CoeffVector.unit((p + 50,), (p,)), 2000)  # warm both tables
        apply_power(op, CoeffVector.unit((p + 2000,), (p,)), 1990)
        for m in range(p, p + 60):
            e = CoeffVector.unit((m,), (p,))
            assert apply_power(op, apply_power(s, e, 1), 1).entries == {(m,): LogComplex(0.0, 0.0)}
            for k in (1, 2, 17, 300):
                assert apply_power(op, apply_power(s, e, k), k).entries == {(m,): LogComplex(0.0, 0.0)}
        rng = random.Random(5)
        v = CoeffVector((p,), {(m,): LogComplex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for m in range(p, p + 30, 3)})
        for k in (1, 4, 25, 900):
            for target, fresh in ((op, ShiftOperator(op.weights)), (s, right_inverse(ShiftOperator(op.weights)))):
                assert entry_bits(apply_power(target, v, k)) == entry_bits(apply_power(fresh, v, k))
        back = apply_power(op, apply_power(s, v, 1), 1)
        assert {m: bits(c.phase) for m, c in back.entries.items()} == {
            m: bits(c.phase) for m, c in v.entries.items()
        }
