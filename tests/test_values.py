"""Value semantics of the record classes: equality, hash, repr, copies, pickles, immutability and
construction, class by class."""

import copy
import math
import pickle

import pytest

from shiftdyn import (
    BargmannActionWeights,
    BargmannRawWeights,
    BlockPatternWeights,
    CoeffVector,
    Direction,
    LogComplex,
    ShiftOperator,
    TableWeights,
    ThetaActionWeights,
    ThetaParams,
    ThetaRawWeights,
    ValidationError,
    right_inverse,
    salas_scan,
)
from shiftdyn.criteria import CriterionReport, Verdict
from shiftdyn.dynamics import EigenSpec

THETA = ThetaParams(3.0, 0.5, 2)
NOTE = "finite-horizon evidence only; divergence is not decidable from finitely many terms"

# (value, an equal value built another way, an unequal value of the class, its repr)
CASES = {
    "LogComplex": (
        LogComplex(0.0, 0.0), LogComplex(logmag=0.0), LogComplex(0.0, math.pi),
        "LogComplex(logmag=0.0, phase=0.0)"),
    "ThetaParams": (
        THETA, ThetaParams(nu=3.0, alpha=0.5, p=2), ThetaParams(3.0),
        "ThetaParams(nu=3.0, alpha=0.5, p=2)"),
    "ThetaRawWeights": (
        ThetaRawWeights(THETA), ThetaRawWeights(params=ThetaParams(3.0, 0.5, 2)), ThetaRawWeights(ThetaParams(3.0)),
        "ThetaRawWeights(params=ThetaParams(nu=3.0, alpha=0.5, p=2), family='theta_raw', offset_p=0)"),
    "ThetaActionWeights": (
        ThetaActionWeights(THETA), ThetaActionWeights(params=THETA), ThetaActionWeights(ThetaParams(3.0)),
        "ThetaActionWeights(params=ThetaParams(nu=3.0, alpha=0.5, p=2), family='theta_composite')"),
    "BargmannRawWeights": (
        BargmannRawWeights(), BargmannRawWeights(), None,
        "BargmannRawWeights(family='bargmann_raw', offset_p=0)"),
    "BargmannActionWeights": (
        BargmannActionWeights(), BargmannActionWeights(p=0), BargmannActionWeights(2),
        "BargmannActionWeights(p=0, family='bargmann_composite')"),
    "BlockPatternWeights": (
        BlockPatternWeights(), BlockPatternWeights(role="omega"), BlockPatternWeights("varpi"),
        "BlockPatternWeights(role='omega', family='block_pattern', offset_p=0)"),
    "TableWeights": (
        TableWeights((0.0, 0.5)), TableWeights(log_values=(0.0, 0.5), start=1.0), TableWeights((0.0, 0.5), 2),
        "TableWeights(log_values=(0.0, 0.5), start=1, family='table', offset_p=0)"),
    "ShiftOperator": (
        ShiftOperator((BargmannActionWeights(1),)),
        ShiftOperator(weights=(BargmannActionWeights(1),), direction=Direction.BACKWARD),
        right_inverse(ShiftOperator((BargmannActionWeights(1),))),
        "ShiftOperator(weights=(BargmannActionWeights(p=1, family='bargmann_composite'),), "
        "direction=<Direction.BACKWARD: 'backward'>)"),
    "CoeffVector": (
        CoeffVector(), CoeffVector(offsets=(0,), entries={}), CoeffVector((1,), {(2,): LogComplex(0.5, 0.25)}),
        "CoeffVector(offsets=(0,), entries={})"),
    "CriterionReport": (
        CriterionReport((0.5, 1.0), 1.0, Verdict.INCONCLUSIVE, None, 2, 100.0, 1),
        CriterionReport(partial_log_products=(0.5, 1.0), sup_attained=1.0, verdict=Verdict.INCONCLUSIVE,
                        bound=None, horizon_n=2, threshold=100.0, scan_start=1, note=NOTE),
        CriterionReport((0.5, 1.0), 1.0, Verdict.BOUNDED_ABOVE_BY, 1.0, 2, 100.0, 1),
        "CriterionReport(partial_log_products=(0.5, 1.0), sup_attained=1.0, "
        "verdict=<Verdict.INCONCLUSIVE: 'inconclusive'>, bound=None, horizon_n=2, threshold=100.0, "
        f"scan_start=1, note={NOTE!r})"),
    "EigenSpec": (
        EigenSpec(0.5j, 2.0, 3, 4, -5.0),
        EigenSpec(lam=0.5j, mu=2.0, trunc_m=3, trunc_n=4, tail_log_bound=-5.0),
        EigenSpec(0.5j, 2.0, 3, 5, -5.0),
        "EigenSpec(lam=0.5j, mu=2.0, trunc_m=3, trunc_n=4, tail_log_bound=-5.0)"),
}
FROZEN = {"LogComplex", "ThetaParams", "ThetaRawWeights", "ThetaActionWeights", "BargmannRawWeights",
          "BargmannActionWeights", "BlockPatternWeights", "TableWeights", "ShiftOperator"}
FIELDS = {  # one field each class stores, for the setattr check
    "LogComplex": "phase", "ThetaParams": "nu", "ThetaRawWeights": "params", "ThetaActionWeights": "params",
    "BargmannRawWeights": "family", "BargmannActionWeights": "p", "BlockPatternWeights": "role",
    "TableWeights": "start", "ShiftOperator": "direction", "CoeffVector": "entries",
    "CriterionReport": "bound", "EigenSpec": "trunc_m",
}


def test_every_record_class_is_covered():
    assert len(CASES) == 12 and set(FIELDS) == set(CASES) and FROZEN < set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_repr(name):
    value, same, other, text = CASES[name]
    assert value == same and not value != same
    assert value is not same
    if other is not None:
        assert value != other
    assert value != object() and value != text
    assert repr(value) == repr(same) == text


@pytest.mark.parametrize("name", sorted(CASES))
def test_hash(name):
    value, same, other, _ = CASES[name]
    if name in FROZEN:
        assert hash(value) == hash(same)
        assert {value, same} == {value}
        if other is not None:
            assert len({value, other}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


@pytest.mark.parametrize("name", sorted(CASES))
def test_copies_and_pickles_are_equal_values_of_the_class(name):
    value = CASES[name][0]
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value)
        assert copied == value
        assert repr(copied) == repr(value)


def test_deep_copies_do_not_share_a_vector_s_entries():
    v = CoeffVector((1,), {(2,): LogComplex(0.5, 0.25)})
    assert copy.copy(v).entries is v.entries
    assert copy.deepcopy(v).entries is not v.entries
    assert pickle.loads(pickle.dumps(v)).entries == v.entries


def test_a_scan_report_copies_with_its_series():
    report = salas_scan(BargmannActionWeights(1), n_horizon=50)
    for copied in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert copied.to_json_dict() == report.to_json_dict()
        assert copied.partial_log_products.tolist() == report.partial_log_products.tolist()


@pytest.mark.parametrize("name", sorted(CASES))
def test_frozen_classes_refuse_assignment(name):
    value = CASES[name][0]
    field = FIELDS[name]
    if name in FROZEN:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    else:
        setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):  # slots: no attribute that is not a field
            value.unknown = 1
    assert repr(value) == CASES[name][3]


def test_defaults_and_derived_fields():
    assert LogComplex(1.5).phase == 0.0
    assert (THETA.nu, ThetaParams(2.0).alpha, ThetaParams(2.0).p) == (3.0, 0.0, 0)
    assert BargmannActionWeights().p == 0 and BlockPatternWeights().role == "omega"
    assert TableWeights((0.0,)).start == 1 and type(TableWeights((0.0,), 2.0).start) is int
    op = ShiftOperator((BargmannActionWeights(1), BargmannActionWeights(2)))
    assert op.direction is Direction.BACKWARD and op.offsets == (1, 2)
    assert right_inverse(op).offsets == (1, 2) and right_inverse(op).weights is op.weights
    v, w = CoeffVector(), CoeffVector()
    assert v.offsets == (0,) and v.entries == {} and v.entries is not w.entries
    assert CriterionReport((), 0.0, Verdict.INCONCLUSIVE, None, 1, 1.0, 1).note == NOTE


def test_constructors_check_their_arguments():
    with pytest.raises(ValidationError, match="nu must be finite and > 0"):
        ThetaParams(-1.0)
    with pytest.raises(ValidationError, match="p must be >= 0"):
        BargmannActionWeights(p=-1)
    with pytest.raises(ValidationError, match="unknown block role"):
        BlockPatternWeights("rho")
    with pytest.raises(ValidationError, match="start must be an integer"):
        TableWeights((0.0,), start=1.5)
    with pytest.raises(ValidationError, match="one or two weight sequences"):
        ShiftOperator([BargmannRawWeights()])
    with pytest.raises(ValidationError, match="exact zeros"):
        CoeffVector((0,), {(1,): LogComplex(-math.inf)})
    with pytest.raises(TypeError):
        LogComplex()
    with pytest.raises(TypeError):
        ThetaRawWeights(THETA, family="table")  # a family's name is no parameter
