"""Command-line interface: artifacts, manifests, exit codes."""

import argparse
import collections
import contextlib
import errno
import io
import itertools
import json
import math
import random
import re
import shlex
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from shiftdyn import (
    BargmannActionWeights,
    BlockPatternWeights,
    CoeffVector,
    LogComplex,
    OverflowNotRepresentable,
    WeightSequence,
    apply_power,
    bargmann_backward_shift,
    coeff_inner,
    coeff_norm_log,
    default_tensor_shift,
    eigenvector_build,
    periodic_point_from_eigen,
    salas_scan,
    shift_operator_from_json,
    tensor_operator,
    tensor_salas_scan,
)
import shiftdyn.cli as cli
import shiftdyn.dynamics as dynamics
from shiftdyn.cli import _join_dash_values, _Rows, build_parser, main
from shiftdyn.numerics import lc_to_json

from conftest import coeff_sub, periodic_reference, tensor_of


def _dump_json(obj) -> str:
    """The text that cli._dump_json writes for obj, piece by piece."""
    pieces = []
    cli._dump_json(obj, pieces.append)
    return "".join(pieces)


def _csv_text(header, rows) -> str:
    """The text that cli._csv_text writes for the table, piece by piece."""
    pieces = []
    cli._csv_text(header, rows, pieces.append)
    return "".join(pieces)


def _column(xs) -> np.ndarray:
    return np.array(xs, dtype=np.float64)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def theta_op_spec(tmp_path):
    return write_json(
        tmp_path / "theta_op.json",
        {"direction": "backward", "weights": {"family": "theta_composite", "nu": math.pi, "alpha": 0.0, "p": 1}},
    )


@pytest.fixture
def bargmann_op_spec(tmp_path):
    return write_json(
        tmp_path / "barg_op.json",
        {"direction": "backward", "weights": {"family": "bargmann_composite", "p": 1}},
    )


# the default pair theta(pi, 0, 0) (x) bargmann(0) as a tensor operator file
_THETA_SPEC = {"family": "theta_composite", "nu": math.pi, "alpha": 0.0, "p": 0}
_BARGMANN_SPEC = {"family": "bargmann_composite", "p": 0}
_PAIR_SPEC = {"left": {"direction": "backward", "weights": _THETA_SPEC},
              "right": {"direction": "backward", "weights": _BARGMANN_SPEC}}


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_weights_csv(tmp_path):
    spec = write_json(tmp_path / "w.json", {"family": "bargmann_raw"})
    out = tmp_path / "weights.csv"
    rc = main(["weights", "--spec", spec, "--range", "0:20", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["index", "logweight"]
    indices = [int(r[0]) for r in rows]
    assert indices == list(range(0, 20))
    assert (tmp_path / "weights.csv.manifest.json").exists()
    manifest = json.loads((tmp_path / "weights.csv.manifest.json").read_text())
    assert manifest["seed"] == 0
    assert "timestamp_utc" in manifest


def test_weights_json_format(tmp_path):
    spec = write_json(tmp_path / "w.json", {"family": "block_pattern", "role": "omega"})
    out = tmp_path / "weights.json"
    rc = main(["weights", "--spec", spec, "--range", "1:6", "--format", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    got = [v for _, v in data["rows"]]
    ln2 = math.log(2.0)
    assert got == [ln2, -ln2, -ln2, ln2, ln2]


def test_weights_invalid_nu_exits_2(tmp_path, capsys):
    spec = write_json(tmp_path / "w.json", {"family": "theta_raw", "nu": -1.0})
    rc = main(["weights", "--spec", spec, "--range", "0:5"])
    assert rc == 2
    assert "nu" in capsys.readouterr().err


def test_basis_eval_stdout(capsys):
    rc = main(["basis", "eval", "--basis", "bargmann", "-m", "2", "-z", "1,0"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["logmag"] + 0.5 * math.log(2.0)) <= 1e-12
    assert obj["phase"] == 0.0


def test_basis_eval_theta(tmp_path):
    out = tmp_path / "b.json"
    rc = main(
        ["basis", "eval", "--basis", "theta", "--nu", str(math.pi), "--alpha", "0.0",
         "-m", "0", "-z", "0,0", "--out", str(out)]
    )
    assert rc == 0
    obj = json.loads(out.read_text())
    assert abs(obj["logmag"] - 0.25 * math.log(2.0)) <= 1e-12


def test_op_apply_power_matrix(tmp_path, theta_op_spec):
    vec = write_json(tmp_path / "v.json", {"p": 1, "entries": [[3, 0.0, 0.0]]})
    out = tmp_path / "applied.json"
    rc = main(["op", "apply", "--op", theta_op_spec, "--vec", vec, "--out", str(out)])
    assert rc == 0
    applied = json.loads(out.read_text())
    assert applied["entries"][0][0] == 2

    out2 = tmp_path / "powered.json"
    rc = main(["op", "power", "--op", theta_op_spec, "--vec", vec, "-k", "3", "--out", str(out2)])
    assert rc == 0
    assert json.loads(out2.read_text())["entries"] == []  # annihilated

    out3 = tmp_path / "matrix.csv"
    rc = main(["op", "matrix", "--op", theta_op_spec, "-N", "6", "--out", str(out3)])
    assert rc == 0
    header, rows = read_csv(out3)
    assert header == ["row", "col", "logmag"]
    cols = [int(r[1]) for r in rows]
    assert cols == sorted(cols)


def _pair_file(tmp_path, left_path, right_path):
    """The tensor operator file of two one-axis operator files."""
    left, right = (json.loads(Path(path).read_text()) for path in (left_path, right_path))
    return write_json(tmp_path / "pair.json", {"left": left, "right": right})


def test_tensor_apply_and_inner(tmp_path, theta_op_spec, bargmann_op_spec):
    pair = _pair_file(tmp_path, theta_op_spec, bargmann_op_spec)
    vec = write_json(tmp_path / "w.json", {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0]]})
    out = tmp_path / "tensor_applied.json"
    rc = main(["op", "apply", "--op", pair, "--vec", vec, "--out", str(out)])
    assert rc == 0
    applied = json.loads(out.read_text())
    assert applied["entries"][0][:2] == [1, 2]

    vec2 = write_json(tmp_path / "w2.json", {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0]]})
    rc = main(["inner", "--vec", vec, "--vec2", vec2, "--out", str(tmp_path / "ip.json")])
    assert rc == 0
    ip = json.loads((tmp_path / "ip.json").read_text())
    assert ip["logmag"] == 0.0


def test_criterion_report(tmp_path):
    spec = write_json(tmp_path / "w.json", {"family": "bargmann_raw"})
    out = tmp_path / "report.json"
    rc = main(["criterion", "--weights", spec, "-N", "500", "--threshold", "50", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "diverges_to_infinity"
    assert len(report["partial_log_products"]) == 500


def test_criterion_tensor_pair(tmp_path):
    a = write_json(tmp_path / "a.json", {"family": "block_pattern", "role": "omega"})
    b = write_json(tmp_path / "b.json", {"family": "block_pattern", "role": "varpi"})
    out = tmp_path / "report.json"
    rc = main(["criterion", "--weights", a, "--weights2", b, "-N", "1000", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "bounded_above_by"
    assert report["bound"] == 0.0


def test_eigen_zero_case(tmp_path):
    out = tmp_path / "eigen.json"
    rc = main(["eigen", "--lambda", "0,0", "--mu", "0,0", "--tail", "-60", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["residual_log"] == "-inf"
    assert result["vector"]["entries"] == [[0, 0, 0.0, 0.0]]
    assert (tmp_path / "eigen.json.series.csv").exists()


def _assert_written_rectangle(vector, a, b, spec):
    """The artifact's vector is the reference tensor_of(a, b): the full truncation rectangle in index order."""
    assert vector == json.loads(json.dumps(tensor_of(a, b).to_json_dict()))
    keys = [(m, n) for m, n, _logmag, _phase in vector["entries"]]
    p = 0  # the default pair's offsets
    assert len(keys) == (spec.trunc_m - p + 1) * (spec.trunc_n - p + 1)
    assert keys == sorted(keys)


def test_eigen_generic(tmp_path):
    out = tmp_path / "eigen.json"
    rc = main(["eigen", "--lambda", "0.5,0.1", "--mu", "0.3,-0.2", "--tail", "-60", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["residual_rel_log"] <= -55.0
    assert result["eigen_spec"]["tail_log_bound"] <= -60.0
    a, b, spec = eigenvector_build(default_tensor_shift(), 0.5 + 0.1j, 0.3 - 0.2j, -60.0)
    assert result["eigen_spec"] == json.loads(json.dumps(spec.to_json_dict()))
    _assert_written_rectangle(result["vector"], a, b, spec)


def test_eigen_uncertifiable_exits_3(tmp_path, capsys):
    flat = {"direction": "backward", "weights": {"family": "table", "table": [1.0] * 50}}
    pair = write_json(tmp_path / "flat_pair.json", {"left": flat, "right": flat})
    rc = main(
        ["eigen", "--lambda", "0.9,0", "--mu", "0.9,0", "--tail", "-40",
         "--op", pair, "--out", str(tmp_path / "x.json")]
    )
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


_RIGHT_INVERSE_PAIR = {"left": {"direction": "right_inverse", "weights": _THETA_SPEC},
                       "right": {"direction": "right_inverse", "weights": _BARGMANN_SPEC}}


@pytest.mark.parametrize("op", [{"direction": "backward", "weights": _BARGMANN_SPEC}, _RIGHT_INVERSE_PAIR],
                         ids=["one-axis", "right-inverse-pair"])
@pytest.mark.parametrize("argv", [["eigen", "--lambda=0.5,0", "--mu=0.3,0"], ["periodic", "--q", "3"]],
                         ids=["eigen", "periodic"])
def test_eigen_and_periodic_name_a_wrong_shaped_op_file(tmp_path, capsys, argv, op):
    path = write_json(tmp_path / "op.json", op)
    out = tmp_path / "x.json"
    assert main([*argv, "--op", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--op" in err and path in err, err
    assert not out.exists()


def test_periodic(tmp_path):
    out = tmp_path / "periodic.json"
    rc = main(["periodic", "--q", "4", "--tail", "-60", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["residual_q_rel_log"] <= -55.0
    assert result["residual_1_rel_log"] >= -5.0
    header, rows = read_csv(tmp_path / "periodic.json.series.csv")
    assert header == ["k", "log_norm"]
    assert len(rows) == 9
    _assert_written_rectangle(result["vector"], *periodic_point_from_eigen(default_tensor_shift(), 4, -60.0))


def test_hypercyclic(tmp_path):
    targets = write_json(
        tmp_path / "targets.json",
        {"targets": [
            {"p": 0, "entries": [[0, 0.0, 0.0]]},
            {"p": 0, "entries": [[0, 0.0, 0.0], [1, 0.0, 0.0]]},
        ]},
    )
    out = tmp_path / "hyper.json"
    rc = main(["hypercyclic", "--targets", targets, "--eps", "1e-6", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert len(result["schedule"]) == 2
    for _, err in result["replay_error_logs"]:
        assert err == "-inf" or err <= math.log(1e-6)


def test_hypercyclic_writes_the_build_replay_and_applies_no_power(tmp_path, monkeypatch):
    # the command writes the errors the build returns: it applies no power of its own to psi
    def refuse(*args):
        raise AssertionError("the command applied a power")

    monkeypatch.setattr(cli, "apply_power", refuse)
    rng = random.Random(23)
    targets = [CoeffVector((0,), {(m,): LogComplex(rng.uniform(-1.0, 1.0), rng.uniform(-3.0, 3.0))
                                  for m in rng.sample(range(4), 2)}) for _ in range(12)]
    path = write_json(tmp_path / "t.json", {"targets": [y.to_json_dict() for y in targets]})
    out = tmp_path / "hyper.json"
    assert main(["hypercyclic", "--targets", path, "--eps", "1e-9", "--out", str(out)]) == 0
    _, schedule, errors = dynamics.hypercyclic_vector_build(bargmann_backward_shift(0), targets, 1e-9)
    want = json.loads(_dump_json({"r": list(zip(schedule, errors))}))["r"]
    assert json.loads(out.read_text())["replay_error_logs"] == want


def _log_weights_mp(spec, top):
    """log a(0..top) of a theta or Bargmann composite spec, from its closed form in mpmath; 0 below p+1."""
    p = spec["p"]
    if spec["family"] == "bargmann_composite":
        def log_a(i):
            return mpmath.log(i) / 2 + mpmath.loggamma(i) - mpmath.loggamma(i - p)
    else:
        s = mpmath.pi / spec["nu"] + 2 * mpmath.mpf(spec["alpha"])
        r = 2 * mpmath.pi / spec["nu"]

        def log_a(i):
            return s + r * (i - 1) + 2 * sum(s + r * (i - 1 - j) for j in range(1, p + 1))
    return [log_a(i) if i > p else mpmath.mpf(0) for i in range(top + 1)]


def test_tensor_hypercyclic_replays_within_eps_in_mpmath(tmp_path):
    rng = random.Random(14)
    grid = [(m, n) for m in range(4) for n in range(4)]
    targets = [
        {"p1": 0, "p2": 0,
         "entries": [[m, n, rng.uniform(-1.0, 1.0), rng.uniform(-3.0, 3.0)] for m, n in rng.sample(grid, 2)]}
        for _ in range(16)
    ]
    eps = 1e-6
    pair = write_json(tmp_path / "pair.json", _PAIR_SPEC)
    out = tmp_path / "hyper.json"
    path = write_json(tmp_path / "targets.json", {"targets": targets})
    rc = main(["hypercyclic", "--op", pair, "--targets", path, "--eps", repr(eps), "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    schedule, psi = result["schedule"], result["psi"]
    assert len(schedule) == 16
    assert (psi["p1"], psi["p2"]) == (0, 0)
    assert all(e == "-inf" or e <= math.log(eps) for _, e in result["replay_error_logs"])
    # exact replay of the written psi: T^n moves (m1, m2) to (m1 - n, m2 - n),
    # times a1(m1-n+1..m1) a2(m2-n+1..m2)
    top = max(max(m1, m2) for m1, m2, *_ in psi["entries"])
    with mpmath.workdps(50):
        cums = [list(itertools.accumulate(_log_weights_mp(spec, top))) for spec in (_THETA_SPEC, _BARGMANN_SPEC)]
        for n, y in zip(schedule, targets):
            vals = collections.defaultdict(mpmath.mpc)
            for m1, m2, logmag, phase in psi["entries"]:
                if min(m1, m2) >= n:
                    span = sum(cum[m] - cum[m - n] for cum, m in zip(cums, (m1, m2)))
                    vals[(m1 - n, m2 - n)] += mpmath.exp(logmag + span) * mpmath.expj(phase)
            for m1, m2, logmag, phase in y["entries"]:
                vals[(m1, m2)] -= mpmath.exp(logmag) * mpmath.expj(phase)
            err = mpmath.sqrt(mpmath.fsum(abs(v) ** 2 for v in vals.values()))
            assert err <= eps, (n, err)


def test_tensor_density_probe_errors_fall_as_q_doubles(tmp_path):
    pair = write_json(tmp_path / "pair.json", _PAIR_SPEC)
    out = tmp_path / "probe.json"
    assert main(["density-probe", "--op", pair, "--count", "4", "--seed", "3", "--out", str(out)]) == 0
    samples = json.loads(out.read_text())["samples"]
    assert len(samples) == 4
    for sample in samples:
        target = sample["target"]
        assert (target["p1"], target["p2"]) == (0, 0)
        # one support per axis, of 1 to 4 indices in p..p+7, and the target on their product
        keys = [(m, n) for m, n, *_ in target["entries"]]
        rows, cols = sorted({m for m, _ in keys}), sorted({n for _, n in keys})
        assert keys == [(m, n) for m in rows for n in cols]
        assert all(1 <= len(support) <= 4 and set(support) <= set(range(8)) for support in (rows, cols))
        q0 = min(rows[-1], cols[-1]) + 1  # the least q with T^q y = 0
        assert [q for q, _ in sample["q_and_error_log"]] == [q0, 2 * q0, 4 * q0]
        errs = [e for _, e in sample["q_and_error_log"]]
        assert errs[0] > errs[1] > errs[2]
    _assert_reference_errors(shift_operator_from_json(_PAIR_SPEC), json.loads(out.read_text()))


def test_op_commands_take_a_tensor_operator_file(tmp_path, theta_op_spec, bargmann_op_spec):
    # one reader for every --op: the tensor file acts as the library's left (x) right does
    pair = _pair_file(tmp_path, theta_op_spec, bargmann_op_spec)
    left, right = (shift_operator_from_json(json.loads(Path(path).read_text()))
                   for path in (theta_op_spec, bargmann_op_spec))
    v = {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0], [6, 4, 1.0, -0.5]]}
    vec = write_json(tmp_path / "w.json", v)
    for action, k_args, k in (("apply", [], 1), ("power", ["-k", "2"], 2)):
        by_op = tmp_path / f"op_{action}.json"
        assert main(["op", action, "--op", pair, "--vec", vec, *k_args, "--out", str(by_op)]) == 0
        assert json.loads(by_op.read_text())["entries"]
        by_library = apply_power(tensor_operator(left, right), CoeffVector.from_json_dict(v), k)
        assert by_op.read_bytes() == _dump_json(by_library.to_json_dict()).encode()


@pytest.mark.parametrize("p", [0, 2])
@pytest.mark.parametrize("argv", [["eigen", "--lambda=0.5,0.1", "--mu=0.3,-0.2"], ["periodic", "--q", "3"]],
                         ids=["eigen", "periodic"])
def test_eigen_and_periodic_op_file_matches_the_default_pair(tmp_path, argv, p):
    # --nu/--alpha/--p parametrise only the default pair; its file builds the same artifacts
    pair = write_json(tmp_path / "pair.json", {side: {**op, "weights": {**op["weights"], "p": p}}
                                                for side, op in _PAIR_SPEC.items()})
    by_op, by_default = tmp_path / "op" / "out.json", tmp_path / "default" / "out.json"
    assert main([*argv, "--tail=-40", "--op", pair, "--out", str(by_op)]) == 0
    assert main([*argv, "--tail=-40", "--p", str(p), "--out", str(by_default)]) == 0
    for suffix in ("", ".series.csv"):
        name = "out.json" + suffix
        assert (by_op.parent / name).read_bytes() == (by_default.parent / name).read_bytes()


def test_inner_of_one_axis_vectors(tmp_path, capsys):
    u = {"p": 1, "entries": [[2, 0.5, 0.25], [4, -1.0, 1.0]]}
    v = {"p": 1, "entries": [[2, -0.5, 1.5], [4, 0.0, -0.5], [7, 1.0, 0.0]]}
    assert main(["inner", "--vec", write_json(tmp_path / "u.json", u),
                 "--vec2", write_json(tmp_path / "v.json", v)]) == 0
    expected = coeff_inner(CoeffVector.from_json_dict(u), CoeffVector.from_json_dict(v))
    assert capsys.readouterr().out == _dump_json(lc_to_json(expected))


@pytest.mark.parametrize("v2", [{"p": 2, "entries": [[2, 0.0, 0.0]]},
                                {"p1": 1, "p2": 1, "entries": [[2, 2, 0.0, 0.0]]}],
                         ids=["other-offset", "other-axis-count"])
def test_inner_of_vectors_in_different_spaces_exits_2(tmp_path, capsys, v2):
    u = write_json(tmp_path / "u.json", {"p": 1, "entries": [[2, 0.0, 0.0]]})
    out = tmp_path / "ip.json"
    assert main(["inner", "--vec", u, "--vec2", write_json(tmp_path / "v.json", v2), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "offsets differ" in err and "Traceback" not in err
    assert not out.exists()


def test_counterexample_defaults(tmp_path):
    # spec'd flow: defaults (N=1e4) must already show diverging factors
    out = tmp_path / "counter.json"
    rc = main(["counterexample", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["omega"]["verdict"] == "diverges_to_infinity"
    assert result["varpi"]["verdict"] == "diverges_to_infinity"
    assert result["product"]["verdict"] == "bounded_above_by"
    assert all(v == 0.0 for v in result["product"]["partial_log_products"])
    header, rows = read_csv(tmp_path / "counter.json.series.csv")
    assert header == ["i", "omega_partial", "varpi_partial", "product_partial"]
    assert len(rows) == 10000


def test_counterexample_high_threshold(tmp_path):
    # the 100*ln2 threshold is first crossed around position 2*10^4
    out = tmp_path / "counter.json"
    rc = main(
        ["counterexample", "-N", "25000", "--threshold", str(100 * math.log(2.0)),
         "--out", str(out)]
    )
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["omega"]["verdict"] == "diverges_to_infinity"
    assert result["varpi"]["verdict"] == "diverges_to_infinity"
    assert result["product"]["verdict"] == "bounded_above_by"


def _assert_reference_errors(op, result: dict) -> None:
    # each written error is ||x - y|| of the approximant built term by term and added with coeff_add
    for sample in result["samples"]:
        y = CoeffVector.from_json_dict(sample["target"])
        for q, err in sample["q_and_error_log"]:
            x = periodic_reference(op, y, q, result["tail_tol_log"])
            assert err.hex() == coeff_norm_log(coeff_sub(x, y)).hex()


def test_density_probe(tmp_path):
    out = tmp_path / "probe.json"
    rc = main(["density-probe", "--count", "3", "--seed", "7", "--tail", "-40", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["seed"] == 7
    assert len(result["samples"]) == 3
    for sample in result["samples"]:
        errs = [e for _, e in sample["q_and_error_log"]]
        assert errs[0] > errs[1] > errs[2]
    _assert_reference_errors(bargmann_backward_shift(0), result)


def test_density_probe_needs_a_sample(tmp_path, capsys):
    out = tmp_path / "probe.json"
    for count in ("0", "-3"):
        assert main(["density-probe", "--count", count, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--count must be >= 1" in err
        assert "Traceback" not in err
    assert not out.exists()


def test_density_probe_count_is_bounded(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert main(["density-probe", "--count", "10001", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "at most 10000" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["weights", "--spec", str(tmp_path / "nope.json"), "--range", "0:5"])
    assert rc == 2


def test_bad_log_level_env(monkeypatch, capsys):
    monkeypatch.setenv("SHIFTDYN_LOG_LEVEL", "chatty")
    rc = main(["counterexample", "-N", "10"])
    assert rc == 2
    assert "SHIFTDYN_LOG_LEVEL" in capsys.readouterr().err


def test_debug_log_level_accepted(monkeypatch, tmp_path):
    monkeypatch.setenv("SHIFTDYN_LOG_LEVEL", "debug")
    spec = write_json(tmp_path / "w.json", {"family": "bargmann_raw"})
    assert main(["weights", "--spec", spec, "--range", "0:3", "--out", str(tmp_path / "w.csv")]) == 0


@pytest.mark.parametrize("level, logged", [("info", True), ("DEBUG", True), ("error", False)])
def test_log_line_and_manifest_timestamp_in_a_fresh_interpreter(tmp_path, level, logged):
    import datetime
    import os
    import subprocess

    import shiftdyn

    src = str(Path(shiftdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               SHIFTDYN_LOG_LEVEL=level)
    out = tmp_path / "sub" / "c.json"
    start = datetime.datetime.now(datetime.timezone.utc)
    proc = subprocess.run([sys.executable, "-m", "shiftdyn.cli", "counterexample", "-N", "10", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    end = datetime.datetime.now(datetime.timezone.utc)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (f"INFO wrote {out}\n" if logged else "")
    text = json.loads(out.with_name("c.json.manifest.json").read_text())["timestamp_utc"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00", text)
    stamp = datetime.datetime.fromisoformat(text)
    assert stamp.utcoffset() == datetime.timedelta(0)
    assert start <= stamp <= end


def test_console_script_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    import shiftdyn

    # the child imports the package the suite imports, with or without PYTHONPATH set
    src = str(Path(shiftdyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "shiftdyn.cli", "basis", "eval", "--basis", "bargmann",
         "-m", "0", "-z", "1,0"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["logmag"] == 0.0


def test_negative_complex_values_parse_like_the_equals_form(tmp_path):
    spaced = tmp_path / "spaced.json"
    joined = tmp_path / "joined.json"
    assert main(["eigen", "--lambda", "-2,0.5", "--mu", "1,0", "--out", str(spaced)]) == 0
    assert main(["eigen", "--lambda=-2,0.5", "--mu", "1,0", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert (tmp_path / "spaced.json.series.csv").read_bytes() == (
        tmp_path / "joined.json.series.csv"
    ).read_bytes()
    config = [
        json.loads((tmp_path / f"{name}.json.manifest.json").read_text())["config"]
        for name in ("spaced", "joined")
    ]
    assert config[0]["lam"] == config[1]["lam"] == "-2,0.5"
    assert main(["basis", "eval", "--basis", "bargmann", "-m", "1", "-z", "-1,0",
                 "--out", str(tmp_path / "b.json")]) == 0
    assert json.loads((tmp_path / "b.json").read_text())["phase"] != 0.0


def test_main_returns_argparse_exit_codes(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    assert main(["eigen", "--help"]) == 0
    assert main(["eigen", "--lambda"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_periodic_nonpositive_q_exits_2(capsys):
    for q in ("0", "-3"):
        assert main(["periodic", "--q", q]) == 2
        err = capsys.readouterr().err
        assert "q_order must be >= 1" in err
        assert "Traceback" not in err


def test_non_finite_tail_exits_2(capsys):
    for tail in ("nan", "-inf", "inf"):
        assert main(["eigen", "--lambda", "0.5,0", "--mu", "0.3,0", "--tail", tail]) == 2
        assert main(["periodic", "--q", "4", "--tail", tail]) == 2
        assert main(["density-probe", "--count", "1", "--tail", tail]) == 2
    assert "tail_tol_log must be finite" in capsys.readouterr().err


def test_non_negative_tail_exits_2(capsys):
    for tail in ("0", "5", "50"):
        assert main(["eigen", "--lambda", "0.5,0", "--mu", "0.3,0", "--tail", tail]) == 2
        assert main(["periodic", "--q", "4", "--tail", tail]) == 2
        assert main(["density-probe", "--count", "1", "--tail", tail]) == 2
    err = capsys.readouterr().err
    assert "tail_tol_log must be finite and < 0" in err
    assert "Traceback" not in err


def test_eigen_beyond_the_entry_budget_exits_3(tmp_path, capsys):
    out = tmp_path / "eigen.json"
    assert main(["eigen", "--lambda=100,0", "--mu=100,0", "--out", str(out)]) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def weight_reads(monkeypatch):
    """The index of every `log_weight` call, in call order."""
    reads = []
    log_weight = WeightSequence.log_weight

    def counting(self, i):
        reads.append(i)
        return log_weight(self, i)

    monkeypatch.setattr(WeightSequence, "log_weight", counting)
    return reads


def test_hopeless_periodic_build_exits_3_before_reading_a_weight(tmp_path, capsys, weight_reads):
    out = tmp_path / "periodic.json"
    # each axis needs 2q + 1 terms, so the least rectangle is far past the budget of 400,000 entries
    assert main(["periodic", "--q", str(2**40), "--out", str(out)]) == 3
    assert "within 400000 entries" in capsys.readouterr().err
    assert weight_reads == []
    assert not out.exists()
    assert main(["periodic", "--q", "2", "--out", str(out)]) == 0
    assert weight_reads  # the count sees the reads of a build that runs


@pytest.mark.parametrize("argv", [["eigen", "--lambda=1,0", "--mu=1,0"], ["periodic", "--q", "2"]],
                         ids=["eigen", "periodic"])
def test_a_ratio_that_rounds_to_1_ends_the_build_at_once(tmp_path, capsys, weight_reads, argv):
    out = tmp_path / "x.json"
    # every theta weight at nu = 1e300 rounds to 1, so no term ratio of |lambda| = 1 rounds below 1
    assert main([*argv, "--nu=1e300", "--out", str(out)]) == 3
    assert "within 400000 entries" in capsys.readouterr().err
    assert 0 < len(weight_reads) < 100
    assert not out.exists()


@pytest.mark.parametrize("argv", [["eigen", "--lambda=0.5,0.1", "--mu=0.3,-0.2"], ["periodic", "--q", "5"]],
                         ids=["eigen", "periodic"])
def test_eigen_and_periodic_read_every_number_off_the_factors(tmp_path, monkeypatch, argv):
    # after the build, no operator action, inner product or norm runs on the factors
    def refuse(*args, **kwargs):
        raise AssertionError("an operator action or inner product after the build")

    for module in (dynamics, cli):
        for name in ("apply_power", "coeff_inner", "coeff_norm_log"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("argv", [["eigen", "--lambda=0.5,0.1", "--mu=0.3,-0.2"],
                                  ["eigen", "--lambda=2,0", "--mu=1,0", "--p", "2"], ["periodic", "--q", "5"]],
                         ids=["eigen", "eigen-p2", "periodic"])
def test_eigen_and_periodic_evaluate_each_weight_once(tmp_path, monkeypatch, argv):
    # term logs, tail bounds and ratios read one table per sequence, so no (sequence, index) repeats
    evaluations, sequences = collections.Counter(), []  # the sequences are held, so no id is reused
    log_weight = WeightSequence.log_weight

    def counting(self, i):
        sequences.append(self)
        evaluations[id(self), i] += 1
        return log_weight(self, i)

    monkeypatch.setattr(WeightSequence, "log_weight", counting)
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert len({key[0] for key in evaluations}) == 2  # both axes
    assert set(evaluations.values()) == {1}


@pytest.mark.parametrize("scale", ["1e-170", "1e-200"])
def test_eigen_residual_stays_finite_where_the_eigenvalue_product_underflows(tmp_path, scale):
    out = tmp_path / "eigen.json"
    assert main(["eigen", f"--lambda={scale},0", f"--mu={scale},0", "--tail=-60", "--out", str(out)]) == 0
    residual = json.loads(out.read_text())["residual_log"]
    assert isinstance(residual, float) and math.isfinite(residual)  # "-inf" would claim an exact eigenvector
    assert residual <= -60.0


@pytest.mark.parametrize(
    "argv, name",
    [
        (["eigen", "--lambda", "0.5,0", "--mu", "0.3,0", "--alpha", "nan"], "alpha"),
        (["eigen", "--lambda", "0.5,0", "--mu", "0.3,0", "--alpha", "inf"], "alpha"),
        (["periodic", "--q", "3", "--nu", "inf"], "nu"),
        (["weights", "--spec", "{table}", "--range", "1:3"], "table weights"),
        (["criterion", "--weights", "{bargmann}", "-N", "50", "--threshold", "nan"], "threshold"),
        (["counterexample", "-N", "50", "--threshold", "-inf"], "threshold"),
        (["basis", "eval", "--basis", "bargmann", "-m", "2", "-z", "nan,0"], "z"),
        (["basis", "eval", "--basis", "theta", "-m", "0", "-z", "0,inf"], "z"),
        (["hypercyclic", "--targets", "{targets}", "--eps", "inf"], "eps"),
        # finite parameters whose theta prefactor pi/nu + 2*alpha or ratio 2*pi/nu is not
        (["criterion", "--weights", "{theta_alpha}"], "alpha"),
        (["weights", "--spec", "{theta_nu}", "--range", "1:3"], "nu"),
        (["eigen", "--lambda=0.5,0", "--mu=0.5,0", "--alpha", "1e308"], "alpha"),
    ],
)
def test_non_finite_parameters_exit_2(tmp_path, capsys, argv, name):
    specs = {
        "{theta_alpha}": write_json(tmp_path / "ta.json", {**_THETA_SPEC, "nu": 1.0, "alpha": 1e308, "p": 1}),
        "{theta_nu}": write_json(tmp_path / "tn.json", {**_THETA_SPEC, "nu": 1e-310}),
        "{table}": write_json(tmp_path / "t.json", {"family": "table", "table": ["a"]}),
        "{bargmann}": write_json(tmp_path / "b.json", {"family": "bargmann_raw"}),
        "{targets}": write_json(tmp_path / "y.json", {"targets": [{"p": 0, "entries": [[0, 0.0, 0.0]]}]}),
    }
    out = tmp_path / "out.json"
    assert main([specs.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name} must be" in err
    assert "Traceback" not in err
    assert not out.exists()


_OP_APPLY = ["op", "apply", "--op", "{op}", "--vec", "{v}"]


def _vec(*entries, p=1):
    return {"{v}": {"p": p, "entries": list(entries)}}


# every number read from a file is a JSON int or float, never a bool, and never a string but
# a logmag's "-inf"; each such input exits 2 with an error that names the file
_WEIGHTS_0_3 = ["weights", "--spec", "{v}", "--range", "0:3"]
_NOT_NUMBERS = [
    pytest.param(_WEIGHTS_0_3, {"{v}": {"family": "theta_raw", "nu": True}}, id="bool-nu"),
    pytest.param(_WEIGHTS_0_3, {"{v}": {"family": "theta_composite", "nu": "3.0"}}, id="string-nu"),
    pytest.param(_WEIGHTS_0_3, {"{v}": {"family": "theta_raw", "nu": 3.0, "alpha": False}}, id="bool-alpha"),
    pytest.param(_WEIGHTS_0_3, {"{v}": {"family": "theta_composite", "nu": 3.0, "alpha": "0"}}, id="string-alpha"),
    pytest.param(_OP_APPLY, _vec([1, True, "0.1"]), id="bool-logmag-string-phase"),
    pytest.param(_OP_APPLY, _vec([1, 0.5, "0.1"]), id="string-phase"),
    pytest.param(_OP_APPLY, _vec([1, 0.5, False]), id="bool-phase"),
    pytest.param(_OP_APPLY, _vec([1, "0.5", 0.0]), id="string-logmag"),
    pytest.param(_OP_APPLY, _vec([1, "-Infinity", 0.0]), id="string-logmag-other-than-minus-inf"),
]
_NOT_NUMBER_IDS = {param.id for param in _NOT_NUMBERS}


@pytest.mark.parametrize(
    "argv, files",
    [
        *_NOT_NUMBERS,
        pytest.param(_OP_APPLY, _vec(p=None), id="vector-p-null"),
        pytest.param(_OP_APPLY, {"{v}": [[1, 0.0, 0.0]]}, id="vector-is-a-list"),
        pytest.param(["hypercyclic", "--targets", "{v}"], {"{v}": {"targets": 5}},
                     id="targets-not-a-list"),
        pytest.param(["hypercyclic", "--targets", "{v}"], {"{v}": [{"p": 0, "entries": [[0, 0.0, 0.0]]}]},
                     id="targets-bare-list"),
        pytest.param(["op", "apply", "--op", "{dir}", "--vec", "{v}"], _vec(),
                     id="operator-is-a-directory"),
        pytest.param(_OP_APPLY, _vec([3, math.nan, 0.0]), id="nan-logmag"),
        pytest.param(_OP_APPLY, _vec([3, 0.0, math.nan]), id="nan-phase"),
        pytest.param(_OP_APPLY, _vec([3, 0.0, math.inf]), id="infinite-phase"),
        pytest.param(_OP_APPLY, _vec([3, math.inf, 0.0]), id="infinite-logmag"),
        pytest.param(_OP_APPLY, _vec([3, 10**400, 0.0]), id="logmag-beyond-float"),
        pytest.param(_OP_APPLY, _vec(p=1.5), id="non-integral-p"),
        pytest.param(["weights", "--spec", "{v}", "--range", "2:4"],
                     {"{v}": {"family": "bargmann_composite", "p": 1.9}}, id="non-integral-weight-p"),
        pytest.param(["weights", "--spec", "{v}", "--range", "1:2"],
                     {"{v}": {"family": "table", "table": [1.0], "start": 1.5}}, id="non-integral-start"),
        pytest.param(["op", "apply", "--op", "{pair}", "--vec", "{v}"],
                     {"{v}": {"p1": 1.5, "p2": 1, "entries": []}}, id="non-integral-p1"),
        pytest.param(_OP_APPLY, _vec([2.5, 0.0, 0.0]), id="non-integral-index"),
        pytest.param(_OP_APPLY, _vec([10**400, 0.0, 0.0]), id="huge-index-bargmann"),
        pytest.param(["op", "apply", "--op", "{theta}", "--vec", "{v}"], _vec([10**400, 0.0, 0.0]),
                     id="huge-index-theta"),
        pytest.param(["weights", "--spec", "{v}", "--range", "18446744073709551616:18446744073709551618"],
                     {"{v}": {"family": "bargmann_composite", "p": 2}}, id="range-beyond-2**53"),
        pytest.param(["op", "matrix", "--op", "{op}", "-N", str(2**53)], {}, id="matrix-size-beyond-2**53"),
        # integers the library would turn into floats
        pytest.param(["basis", "eval", "--basis", "bargmann", "-m", str(10**400), "-z", "2,1"], {},
                     id="basis-index-beyond-float"),
        pytest.param(["periodic", "--q", str(10**400)], {}, id="periodic-q-beyond-float"),
        # every --op reads both operator shapes; a command defined for one axis refuses two
        pytest.param(["op", "matrix", "--op", "{v}", "-N", "5"], {"{v}": _PAIR_SPEC},
                     id="tensor-operator-to-op-matrix"),
        pytest.param(["eigen", "--op", "{op}", "--lambda=0.5,0", "--mu=0.3,0"], {},
                     id="one-axis-operator-to-eigen"),
        # widths below 2**53 but above the index limit: refused before an 8 TiB array is asked for
        pytest.param(["weights", "--spec", "{v}", "--range", f"0:{2**40}"],
                     {"{v}": {"family": "bargmann_raw"}}, id="range-above-the-index-limit"),
        pytest.param(["op", "matrix", "--op", "{op}", "-N", str(2**40)], {},
                     id="matrix-size-above-the-index-limit"),
        pytest.param(["criterion", "--weights", "{v}", "-N", str(2**40)],
                     {"{v}": {"family": "bargmann_raw"}}, id="horizon-above-the-index-limit"),
        pytest.param(["counterexample", "-N", str(2**40)], {}, id="counterexample-above-the-index-limit"),
        # a power reads its spans from a weight table or, far above it, termwise; both are capped
        # at the same index limit
        pytest.param(["op", "power", "--op", "{op}", "--vec", "{v}", "-k", str(2**40)], _vec([2**52, 0.0, 0.0]),
                     id="backward-power-above-the-index-limit"),
        pytest.param(["op", "power", "--op", "{ri}", "--vec", "{v}", "-k", str(2**40)],
                     {"{ri}": {"direction": "right_inverse", "weights": {"family": "bargmann_composite", "p": 1}},
                      **_vec([2, 0.0, 0.0])}, id="right-inverse-power-above-the-index-limit"),
        # an order is an index: an integer of magnitude below 2**53
        pytest.param(["weights", "--spec", "{v}", "--range", "1:3"],
                     {"{v}": {"family": "theta_composite", "nu": 3.14, "p": 2**53}},
                     id="theta-order-beyond-2**53"),
        pytest.param(["weights", "--spec", "{v}", "--range", "1:3"],
                     {"{v}": {"family": "bargmann_composite", "p": 2**53}},
                     id="bargmann-order-beyond-2**53"),
        pytest.param(["weights", "--spec", "{missing}", "--range", "0:3"], {}, id="missing-file"),
        pytest.param(["weights", "--spec", "{v}", "--range", "0:3"], {"{v}": "{not json"},
                     id="invalid-json"),
        pytest.param(_OP_APPLY, {"{v}": "[" * 100_000 + "]" * 100_000}, id="nesting-too-deep"),
        # one reader takes both vector shapes; the axis count must still match the command
        pytest.param(_OP_APPLY, {"{v}": {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0]]}},
                     id="two-axis-vector-to-op-apply"),
        pytest.param(["op", "apply", "--op", "{pair}", "--vec", "{v}"],
                     _vec([2, 0.0, 0.0]), id="one-axis-vector-to-tensor-apply"),
        pytest.param(_OP_APPLY, _vec([2, 3, 0.0, 0.0]), id="one-axis-entry-with-four-fields"),
        pytest.param(["hypercyclic", "--targets", "{v}"],
                     {"{v}": {"targets": [{"p1": 0, "p2": 0, "entries": [[1, 1, 0.0, 0.0]]}]}},
                     id="two-axis-hypercyclic-target"),
    ],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, request, theta_op_spec, bargmann_op_spec, argv, files):
    paths = {"{op}": bargmann_op_spec, "{theta}": theta_op_spec, "{dir}": str(tmp_path),
             "{missing}": str(tmp_path / "missing.json"),
             "{pair}": _pair_file(tmp_path, bargmann_op_spec, bargmann_op_spec)}
    for i, (name, obj) in enumerate(files.items()):
        path = tmp_path / f"input{i}.json"
        if isinstance(obj, str):
            path.write_text(obj, encoding="utf-8")
        else:
            write_json(path, obj)
        paths[name] = str(path)
    out = tmp_path / "out.json"
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shiftdyn:")
    assert "Traceback" not in err
    assert not out.exists()
    if request.node.callspec.id in _NOT_NUMBER_IDS | {"targets-bare-list"}:
        assert f"{paths['{v}']}: " in err


def test_a_power_at_a_far_index_reads_only_its_span(tmp_path, capsys, bargmann_op_spec, weight_reads):
    top = 2**52
    vec = write_json(tmp_path / "v.json", {"p": 1, "entries": [[top, 0.5, 0.25]]})
    out = tmp_path / "out.json"
    power = ["op", "power", "--op", bargmann_op_spec, "--vec", vec, "--out", str(out)]
    # a span of 2**40 weights is refused before any is read
    assert main([*power, "-k", str(2**40)]) == 2
    assert "above the limit of" in capsys.readouterr().err
    assert weight_reads == [] and not out.exists()
    # the gap below a span of 2 is longer than the span, so its two weights are read termwise
    code, peak = _traced_peak(main, [*power, "-k", "2"])
    assert code == 0
    assert weight_reads == [top - 1, top]
    assert peak < 30 * 2**20
    acc = 0.0
    for j in (top - 1, top):
        acc += BargmannActionWeights(1).log_weight(j)
    assert json.loads(out.read_text())["entries"] == [[top - 2, 0.5 + acc, 0.25]]


_OVERFLOW_OP = {"weights": {"family": "theta_composite", "nu": 1e-300}}


@pytest.mark.parametrize(
    "argv, files, message",
    [
        # log w(m) = pi/nu + (2 pi/nu) m is finite at m = 0 only
        (["weights", "--spec", "{w}", "--range", "0:3"], {"{w}": {"family": "theta_raw", "nu": 4e-308}},
         "theta_raw log weight 1 overflows the float range"),
        # both terms of the closed form are +inf, so it is NaN, which numpy must not warn of
        (["weights", "--spec", "{w}", "--range", f"{2**52 + 1}:{2**52 + 3}"],
         {"{w}": {"family": "theta_composite", "nu": 1e-300, "p": 2**52}},
         f"theta_composite log weight {2**52 + 1} overflows the float range"),
        # every weight is finite; their sum passes the largest float at the 7,565th
        (["op", "power", "--op", "{op}", "--vec", "{v}", "-k", "50000"],
         {"{op}": _OVERFLOW_OP, "{v}": {"p": 0, "entries": [[50000, 0.0, 0.0]]}},
         "theta_composite log-weight span 1..50000 overflows the float range at index 7565"),
        (["op", "power", "--op", "{op}", "--vec", "{v}", "-k", "50000"],
         {"{op}": {**_OVERFLOW_OP, "direction": "right_inverse"}, "{v}": {"p": 0, "entries": [[0, 0.0, 0.0]]}},
         "theta_composite log-weight span 1..50000 overflows the float range at index 7565"),
        # every weight and span is finite; the coefficient it moves leaves the float range
        (["op", "apply", "--op", "{op}", "--vec", "{v}"],
         {"{op}": _OVERFLOW_OP, "{v}": {"p": 0, "entries": [[2000000, 1.7e308, 0.5]]}},
         "the coefficient at (1999999,) has log-magnitude inf: not a float"),
        (["op", "apply", "--op", "{op}", "--vec", "{v}"],
         {"{op}": {"left": _OVERFLOW_OP, "right": _OVERFLOW_OP},
          "{v}": {"p1": 0, "p2": 0, "entries": [[2000000, 2000000, 1.7e308, 0.5]]}},
         "the coefficient at (1999999, 1999999) has log-magnitude inf: not a float"),
        (["op", "apply", "--op", "{op}", "--vec", "{v}"],
         {"{op}": {**_OVERFLOW_OP, "direction": "right_inverse"},
          "{v}": {"p": 0, "entries": [[2000000, -1.7e308, 0.5]]}},
         "the coefficient at (2000001,) has log-magnitude -inf: not a float"),
    ],
    ids=["weight", "weight-inf-minus-inf", "backward-span", "right-inverse-span",
         "backward-entry", "tensor-entry", "right-inverse-entry"],
)
def test_weights_and_spans_that_overflow_are_numeric_failures(tmp_path, capsys, argv, files, message):
    paths = {name: write_json(tmp_path / f"input{i}.json", obj) for i, (name, obj) in enumerate(files.items())}
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would end main with a traceback
        assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == f"shiftdyn: numeric failure: {message}\n"
    assert not out.exists()


def test_an_order_of_any_size_below_2_53_takes_one_evaluation(tmp_path, capsys):
    # the theta action weight has one closed form at every order, and an order is an index
    spec = write_json(tmp_path / "w.json", {"family": "theta_composite", "nu": 3.14, "p": 30_000_000})
    assert main(["weights", "--spec", spec, "--range", "30000001:30000003"]) == 0
    assert capsys.readouterr().out.count("\n") == 3
    out = tmp_path / "eigen.json"
    eigen = ["eigen", "--lambda=0.5,0.1", "--mu=0.4,-0.3", "--out", str(out)]
    assert main([*eigen, "--p", "1001"]) == 0
    assert json.loads(out.read_text())["vector"]["p1"] == 1001
    out.unlink()
    assert main([*eigen, "--p", str(2**53)]) == 2
    assert "p must be an integer of magnitude below 2**53" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["{dir}", "", "{file}/out.json"], ids=["directory", "empty", "below-a-file"])
def test_an_unwritable_out_path_exits_2(tmp_path, capsys, out):
    (tmp_path / "file").write_text("x", encoding="utf-8")
    out = out.replace("{dir}", str(tmp_path)).replace("{file}", str(tmp_path / "file"))
    assert main(["basis", "eval", "--basis", "bargmann", "-m", "2", "-z", "0.5,0", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"shiftdyn: invalid input: cannot write {Path(out)}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, blocked",
    [(["basis", "eval", "--basis", "bargmann", "-m", "2", "-z", "0.5,0"], ".manifest.json"),
     (["eigen", "--lambda=0.5,0.1", "--mu=0.3,0"], ".series.csv"),
     (["eigen", "--lambda=0.5,0.1", "--mu=0.3,0"], ".manifest.json")],
    ids=["manifest", "series", "manifest-after-series"],
)
def test_a_failed_write_leaves_no_output(tmp_path, capsys, argv, blocked):
    out = tmp_path / "d" / "x.json"
    (tmp_path / "d" / f"x.json{blocked}").mkdir(parents=True)
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"shiftdyn: invalid input: cannot write {out}{blocked}: ")
    assert "Traceback" not in err
    assert sorted(path.name for path in out.parent.iterdir()) == [f"x.json{blocked}"]


@pytest.mark.parametrize("failing", ["", ".series.csv", ".manifest.json"], ids=["result", "series", "manifest"])
def test_a_write_that_fails_in_mid_stream_leaves_no_output(tmp_path, capsys, monkeypatch, failing):
    # counterexample writes its result and series in many pieces; the file named fails at its second,
    # as on a full disk, after the files before it were written whole
    out = tmp_path / "d" / "c.json"
    write_text, pieces = cli._write_text, collections.Counter()

    def full_disk(path, text, *, fh):
        pieces[path] += 1
        if str(path) == f"{out}{failing}" and pieces[path] == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_text(path, text, fh=fh)

    monkeypatch.setattr(cli, "_write_text", full_disk)
    assert main(["counterexample", "-N", "20000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"shiftdyn: invalid input: cannot write {out}{failing}: No space left on device\n"
    assert pieces[out] >= 2 and list(out.parent.iterdir()) == []


def test_a_nan_in_the_last_chunk_leaves_no_output(tmp_path, monkeypatch):
    # JSON cannot hold NaN: the criterion's result file is begun, and removed when the last chunk raises
    report = salas_scan(BargmannActionWeights(0), 3 * cli._CHUNK)
    report.partial_log_products[-1] = math.nan
    monkeypatch.setattr(cli, "salas_scan", lambda *args: report)
    spec = write_json(tmp_path / "spec.json", _BARGMANN_SPEC)
    out = tmp_path / "d" / "c.json"
    with pytest.raises(ValueError):
        main(["criterion", "--weights", spec, "-N", str(3 * cli._CHUNK), "--out", str(out)])
    assert list(out.parent.iterdir()) == []


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_the_written_rectangle_is_the_reference_outer_product(data):
    # the phases are drawn past pi, so that their sums wrap
    def factor(p):
        n = data.draw(st.integers(1, 6))
        terms = st.tuples(st.floats(-800.0, 800.0), st.floats(-3.2, 3.2))
        return CoeffVector((p,), {(p + i,): LogComplex(*data.draw(terms)) for i in range(n)})

    a, b = factor(data.draw(st.integers(0, 3))), factor(data.draw(st.integers(0, 3)))
    assert _dump_json(cli._rank_one_json(a, b)) == _dump_json(tensor_of(a, b).to_json_dict())


@pytest.mark.parametrize("logmag, key", [(1e308, (2, 4)), (-1e308, (2, 4))], ids=["above", "below"])
def test_a_rectangle_entry_beyond_the_float_range_exits_3(tmp_path, capsys, monkeypatch, logmag, key):
    # la + lb leaves the float range only at the extreme pair, which the error names
    a = CoeffVector((1,), {(1,): LogComplex(-0.5 * logmag, 0.1), (2,): LogComplex(0.9 * logmag, 3.0)})
    b = CoeffVector((3,), {(3,): LogComplex(0.9 * logmag, -3.0), (4,): LogComplex(0.95 * logmag, 1.0)})
    extreme = max if logmag > 0 else min
    assert key == (extreme(a.entries, key=lambda k: a.entries[k].logmag)[0],
                   extreme(b.entries, key=lambda k: b.entries[k].logmag)[0])
    with pytest.raises(OverflowNotRepresentable, match=re.escape(f"the coefficient at {key} has log-magnitude")):
        cli._rank_one_json(a, b)
    spec = dynamics.EigenSpec(0.5, 0.3, 2, 4, -60.0)
    monkeypatch.setattr(cli, "eigenvector_build", lambda *args: (a, b, spec))
    out = tmp_path / "eigen.json"
    assert main(["eigen", "--lambda=0.5,0", "--mu=0.3,0", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"shiftdyn: numeric failure: the coefficient at {key} has log-magnitude")
    assert not out.exists()


def test_integral_json_floats_keep_their_meaning(tmp_path, capsys):
    outs = []
    for p in (2, 2.0):
        spec = write_json(tmp_path / "w.json", {"family": "bargmann_composite", "p": p})
        assert main(["weights", "--spec", spec, "--range", "3:6"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=4)
    ),
    max_leaves=12,
)
# vector-shaped values, so that some examples are valid and reach the operator
_ENTRY = st.one_of(
    st.tuples(st.integers(0, 40), st.floats(-50.0, 50.0), st.floats(-4.0, 4.0)),
    st.tuples(st.integers(0, 40), st.floats(), st.floats()),
    st.lists(_JSON, min_size=3, max_size=3),
)
_VECTOR_LIKE = st.fixed_dictionaries(
    {"p": st.just(0) | _JSON, "entries": st.lists(_ENTRY, max_size=3) | _JSON}
)


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vec=_JSON | _VECTOR_LIKE)
def test_any_json_vector_exits_0_or_2(tmp_path, vec):
    op = write_json(tmp_path / "op.json", {"weights": {"family": "bargmann_composite", "p": 0}})
    path = write_json(tmp_path / "vec.json", vec)
    out = str(tmp_path / "out.json")
    assert main(["op", "apply", "--op", op, "--vec", path, "--out", out]) in (0, 2)


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["hypercyclic", "--targets", "{targets}"], "--eps", "-1e-6"),
        (["eigen", "--lambda", "0.5,0", "--mu", "0.3,0"], "--nu", "-inf"),
    ],
)
def test_negative_values_after_a_space_reach_the_library(tmp_path, capsys, argv, option, value):
    targets = write_json(tmp_path / "t.json", {"targets": [{"p": 0, "entries": [[0, 0.0, 0.0]]}]})
    argv = [targets if a == "{targets}" else a for a in argv]
    assert main(argv + [option, value]) == 2
    spaced = capsys.readouterr().err
    assert main(argv + [f"{option}={value}"]) == 2
    assert spaced == capsys.readouterr().err
    assert "must be" in spaced


def test_tensor_inner_beyond_float_range_is_a_numeric_failure(tmp_path, capsys):
    entries = [[1, 1, 1e308, 0.0], [2, 2, 1e308, 0.0]]  # each product's logmag overflows
    vec = write_json(tmp_path / "w.json", {"p1": 1, "p2": 1, "entries": entries})
    out = tmp_path / "ip.json"
    assert main(["inner", "--vec", vec, "--vec2", vec, "--out", str(out)]) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


def test_tensor_inner_requires_vec2(tmp_path, capsys):
    vec = write_json(tmp_path / "w.json", {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0]]})
    argv = ["inner", "--vec", vec]
    assert main(argv) == 2
    assert "--vec2" in capsys.readouterr().err


def _readme_argvs() -> list[list[str]]:
    """The argv of every `shiftdyn ...` line of README's bash blocks, its optional [...] parts dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("shiftdyn ")]
    return [_join_dash_values(shlex.split(re.sub(r"\[[^]]*\]", "", line))[1:]) for line in lines]


def test_readme_cli_examples_parse(capsys):
    argvs = _readme_argvs()
    assert len(argvs) >= 12
    parser = build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {argv}\n{capsys.readouterr().err}")


# the words of every leaf command
_LEAF_PATHS = [["weights"], ["basis", "eval"], ["op", "apply"], ["op", "power"], ["op", "matrix"], ["inner"],
               ["criterion"], ["eigen"], ["periodic"], ["hypercyclic"], ["counterexample"], ["density-probe"]]


def _parse_outcome(parser, argv):
    """(stdout, stderr, exit code, parsed options) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    code = options = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            options = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, options


def test_a_parser_built_for_argv_reads_it_as_the_whole_tree_does():
    argvs = [[], ["--help"], ["--version"], ["bogus"], ["basis"], ["op"], ["op", "bogus"], ["op", "-h"]]
    for path in _LEAF_PATHS:
        argvs += [path + ["-h"], path, path + ["-N", "x"]]  # most leaves miss a required option
    for argv in _readme_argvs():  # parsed; then an unknown option and an extra word, which print the top usage
        argvs += [argv, argv + ["--bogus"], argv + ["extra"]]
    whole = build_parser()
    for argv in argvs:
        outcome = _parse_outcome(build_parser(argv), argv)
        assert outcome == _parse_outcome(whole, argv), argv
        assert outcome[2] in (None, 0, 2)
    assert _parse_outcome(whole, ["eigen"])[1].endswith("required: --lambda, --mu\n")
    assert "{weights,basis,op,inner," in _parse_outcome(whole, ["inner", "--vec", "v", "--vec2", "w", "x"])[1]


def test_a_leaf_argv_builds_only_the_parsers_on_its_path(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for path in _LEAF_PATHS:
        built.clear()
        build_parser(path + ["--out", "x.json"])
        assert built == ["shiftdyn"] + ["shiftdyn " + " ".join(path[: i + 1]) for i in range(len(path))]
    built.clear()
    build_parser(["op", "bogus"])
    assert built == ["shiftdyn", "shiftdyn op", "shiftdyn op apply", "shiftdyn op power", "shiftdyn op matrix"]
    for argv in ([], ["--help"], ["bogus"]):
        built.clear()
        build_parser(argv)
        assert len(built) == 1 + 2 + len(_LEAF_PATHS)  # the top level, the two groups and every leaf


def _rows_of(table: _Rows):
    """The rows of a _Rows, as tuples of Python ints and floats."""
    return zip(*(column.tolist() if isinstance(column, np.ndarray) else list(column) for column in table))


def _reference_jsonable(obj):
    """Infinite floats as strings, tuples, arrays and the rows of a _Rows as lists: the values JSON can hold."""
    if isinstance(obj, _Rows):
        obj = list(_rows_of(obj))
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, float):
        if obj == float("-inf"):
            return "-inf"
        if obj == float("inf"):
            return "inf"
        return obj
    if isinstance(obj, dict):
        return {k: _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    return obj


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"


def _reference_json(obj) -> str:
    return _compact(_reference_jsonable(obj))


def _reference_csv(header, rows) -> str:
    if isinstance(rows, _Rows):
        rows = _rows_of(rows)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _assert_same(got: str, want: str) -> None:
    """got == want, reporting where they first differ: pytest's own diff of two long texts takes minutes."""
    if got != want:
        pos = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        near = slice(max(pos - 40, 0), pos + 40)
        pytest.fail(f"texts differ at line {want.count(chr(10), 0, pos) + 1}: {got[near]!r} against {want[near]!r}")


_EDGE_FLOATS = st.sampled_from([math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308])
_FLOAT = st.floats(allow_nan=False) | _EDGE_FLOATS
_NUMBER = _FLOAT | _FLOAT.map(np.float64) | st.integers() | st.booleans()
_TEXT = st.text(st.sampled_from('[]{}",:\\\n aé∑😀'), max_size=6) | st.text(max_size=6)
_ROWS = st.lists(st.lists(_FLOAT | st.integers(), min_size=1, max_size=4), min_size=1, max_size=6)
_ARTIFACT = st.recursive(
    _NUMBER | _TEXT | st.none() | _ROWS | st.lists(_FLOAT, max_size=8) | st.lists(_FLOAT, max_size=8).map(_column)
    | st.lists(_FLOAT, max_size=8).map(lambda xs: _Rows((range(-3, len(xs) - 3), _column(xs), -_column(xs)))),
    lambda children: (
        st.lists(children, max_size=5)
        | st.tuples(children, children)
        | st.dictionaries(_TEXT, children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, database=None)
@given(obj=_ARTIFACT)
def test_json_artifacts_match_the_compact_dump_byte_for_byte(obj):
    # a value goes to the C encoder whole; one that holds an array, a _Rows or a non-finite float
    # goes per item; every path writes the bytes of the compact, sorted json.dumps, where an
    # array or a _Rows at any depth is a list of numbers, never of the strings of their reprs
    assert _dump_json(obj) == _reference_json(obj)


@settings(max_examples=200, deadline=None, database=None)
@given(obj=_ARTIFACT, data=st.data())
def test_nan_fails_json_artifacts_as_before(obj, data):
    nan = data.draw(st.sampled_from([math.nan, np.float64("nan")]))
    where = data.draw(st.sampled_from(["item", "cell", "value"]))
    bad = {"item": [obj, nan], "cell": [[1.0, 2], [3, nan]], "value": {"a": obj, "b": nan}}[where]
    for dump in (_dump_json, _reference_json):
        with pytest.raises(ValueError):
            dump(bad)


# a header and rows as wide as it
_TABLES = st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(st.text(max_size=4), min_size=width, max_size=width),
    st.lists(st.lists(_FLOAT | st.integers() | st.booleans() | _TEXT, min_size=width, max_size=width), max_size=8),
))


@settings(max_examples=200, deadline=None, database=None)
@given(table=_TABLES)
def test_csv_artifacts_match_the_row_formatter(table):
    header, rows = table
    expected = _reference_csv(header, rows)
    assert _csv_text(header, rows) == expected
    assert _csv_text(header, iter(rows)) == expected  # rows may come from a generator or zip



# argv of the four bulk commands: widths of at most 2,000, or values that each command must
# refuse before it allocates anything
_BAD_INTS = [0, -1, -7, 2**40, 2**53, 2**63, -(2**63)]
_NON_NUMBERS = ["inf", "-inf", "nan", "abc", "", "1.5", "1e3", "0x10", "2**40"]
_INT_TOKEN = st.integers(1, 2000).map(str) | st.sampled_from([*map(str, _BAD_INTS), *_NON_NUMBERS])
_FLOAT_TOKEN = st.floats(-1e3, 1e3).map(repr) | st.sampled_from(["inf", "-inf", "nan", "1e400", *_NON_NUMBERS])
# weight specs, each with the offset p of its backward shift
_BULK_SPECS = [
    ({"family": "theta_raw", "nu": 2.0}, 0),
    ({"family": "bargmann_composite", "p": 1}, 1),
    ({"family": "block_pattern", "role": "varpi"}, 0),
    ({"family": "table", "table": [0.5, 2.0, 3.0] * 7, "start": 1}, 0),
]


def _width(lo: str, hi: str) -> int | None:
    """hi - lo; None where either is no integer, and the command must exit 2."""
    try:
        return int(hi) - int(lo)
    except ValueError:
        return None


@st.composite
def _range_text(draw):
    """`lo:hi` of at most 2,000 indices, reversed and empty ones included; or bad bounds or text."""
    lo = draw(st.integers(-10, 60) | st.integers(2**40 - 10, 2**40) | st.sampled_from(_BAD_INTS))
    kind = draw(st.sampled_from(["width", "width", "tokens", "malformed"]))
    if kind == "width":
        return f"{lo}:{lo + draw(st.integers(-5, 2000))}"
    if kind == "tokens":
        return f"{draw(_INT_TOKEN)}:{draw(_INT_TOKEN)}"
    return draw(st.sampled_from([str(lo), f"{lo}:{lo + 1}:{lo + 2}", f"{lo},{lo + 1}", ":"]))


@st.composite
def _bulk_argv(draw):
    """(argv, the artifact suffix that holds the rows, their JSON key or None for CSV lines, the
    row count an exit 0 must write: one per requested index)."""
    i = draw(st.integers(0, len(_BULK_SPECS) - 1))
    fmt = draw(st.sampled_from(["csv", "json"]))
    command = draw(st.sampled_from(["weights", "criterion", "counterexample", "op matrix"]))
    if command == "weights":
        text = draw(_range_text())
        argv = ["weights", "--spec", f"spec{i}.json", f"--range={text}", "--format", fmt]
        return argv, "", "rows" if fmt == "json" else None, _width(*text.partition(":")[::2])
    n = draw(_INT_TOKEN)
    if command == "op matrix":  # columns p..N, each with its one weight
        argv = ["op", "matrix", "--op", f"op{i}.json", f"-N={n}", "--format", fmt]
        return argv, "", "triplets" if fmt == "json" else None, _width(_BULK_SPECS[i][1], n)
    threshold = f"--threshold={draw(_FLOAT_TOKEN)}"
    if command == "criterion":
        argv = ["criterion", "--weights", f"spec{i}.json", f"-N={n}", threshold]
        return argv, "", "partial_log_products", _width(0, n)
    return ["counterexample", f"-N={n}", threshold], ".series.csv", None, _width(0, n)


@pytest.fixture(scope="module")
def bulk_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("bulk")
    for i, (spec, _) in enumerate(_BULK_SPECS):
        write_json(files / f"spec{i}.json", spec)
        write_json(files / f"op{i}.json", {"direction": "backward", "weights": spec})
    return files


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_bulk_argv())
def test_bulk_command_argv_exits_0_or_2(bulk_files, capsys, case):
    argv, suffix, key, expected = case
    argv = [str(bulk_files / a) if a.endswith(".json") else a for a in argv]
    out = bulk_files / "out.txt"
    for stale in bulk_files.glob("out.txt*"):
        stale.unlink()
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        text = Path(f"{out}{suffix}").read_text(encoding="utf-8")
        rows = json.loads(text)[key] if key else text.splitlines()[1:]
        assert len(rows) == expected, argv


def _counterexample_as_first_written(n: int, threshold: float = 30.0):
    """The result dict and series rows of `counterexample`, from the reports' arrays, each float
    formatted where it is written: the reference for the columns formatted once."""
    omega, varpi = BlockPatternWeights(role="omega"), BlockPatternWeights(role="varpi")
    reports = {"omega": salas_scan(omega, n, threshold), "varpi": salas_scan(varpi, n, threshold),
               "product": tensor_salas_scan(omega, varpi, n, threshold)}
    result = {k: r.to_json_dict(include_series=n <= 100_000) for k, r in reports.items()}
    m = min(n, 100_000)
    return result, zip(range(1, m + 1), *(r.partial_log_products[:m].tolist() for r in reports.values()))


def test_counterexample_artifacts_keep_their_bytes(tmp_path):
    header = ["i", "omega_partial", "varpi_partial", "product_partial"]
    for n in (2000, 20_000):  # 20,000 rows cross the writers' chunks
        out = tmp_path / f"c{n}.json"
        assert main(["counterexample", "-N", str(n), "--out", str(out)]) == 0
        result, rows = _counterexample_as_first_written(n)
        _assert_same(out.read_text(encoding="utf-8"), _reference_json(result))
        _assert_same((tmp_path / f"c{n}.json.series.csv").read_text(encoding="utf-8"), _reference_csv(header, rows))


@pytest.mark.parametrize("weights, n", [(["omega"], 100_000), (["varpi"], 60_000), (["omega", "varpi"], 100_000)])
def test_block_pattern_criterion_artifacts_keep_their_bytes(tmp_path, weights, n):
    # repetitive partials (omega's 100,000 hold 1,365 distinct values; the pair's are all 0.0)
    # are formatted once per distinct value, and written as json.dumps writes them
    specs = [write_json(tmp_path / f"{role}.json", {"family": "block_pattern", "role": role}) for role in weights]
    out = tmp_path / "c.json"
    options = ["--weights", specs[0], *(["--weights2", specs[1]] if len(specs) > 1 else [])]
    assert main(["criterion", *options, "-N", str(n), "--out", str(out)]) == 0
    ws = [BlockPatternWeights(role=role) for role in weights]
    report = salas_scan(*ws, n) if len(ws) == 1 else tensor_salas_scan(*ws, n)
    _assert_same(out.read_text(encoding="utf-8"), _reference_json(report.to_json_dict()))


@settings(max_examples=100, deadline=None, database=None)
@given(obj=_ARTIFACT, xs=st.lists(_FLOAT, max_size=8))
def test_formatted_columns_match_their_floats(obj, xs):
    # a float64 array is written as the list of its floats, infinities included, at any depth
    for wrap in (lambda c: {"a": obj, "col": c}, lambda c: [obj, [c]]):
        assert _dump_json(wrap(_column(xs))) == _reference_json(wrap(xs))
    assert _csv_text(["c"], _Rows((_column(xs),))) == _reference_csv(["c"], zip(xs))


def test_csv_rows_keep_the_bytes_of_joining_their_strs():
    col = ["1.5", "-0.0", "0.0", "1.5", "1e-300"]
    rows = [(2**63, math.inf, col[0]), (-(2**70), -math.inf, col[1]), (0, math.nan, col[2]),
            (True, -0.0, col[3]), (10**30, 5e-324, col[4]), (-1, 1.7976931348623157e308, "a,b")]
    expected = "\n".join(["i,x,c", *(",".join(map(str, row)) for row in rows), ""])
    assert _csv_text(["i", "x", "c"], rows) == expected
    assert _csv_text(["i", "x", "c"], zip(*zip(*rows))) == expected


def test_formatted_columns_keep_the_non_finite_rule():
    xs = [1.5, math.inf, -0.0, 0.0, 1.5, -math.inf]
    col = _column(xs)
    assert _dump_json({"col": col}) == _reference_json({"col": xs})
    assert json.loads(_dump_json({"col": col}))["col"][1::4] == ["inf", "-inf"]
    assert _csv_text(["c"], _Rows((col,))) == "c\n1.5\ninf\n-0.0\n0.0\n1.5\n-inf\n"
    assert _dump_json(_Rows((range(6), col))) == _reference_json(list(zip(range(6), xs)))
    for bad in ({"col": _column([1.0, math.nan])}, _Rows((range(2), _column([1.0, math.nan])))):
        with pytest.raises(ValueError):
            _dump_json(bad)
    assert _csv_text(["c"], _Rows((_column([math.nan]),))) == "c\nnan\n"  # CSV writes every float's repr


def _long_lists(n: int) -> list[list]:
    """Lists of n numbers: distinct floats, repeated floats (some at the 1,024-value sample's
    threshold of 512 distinct ones), zeros of both signs, and ints mixed with floats."""
    rng = random.Random(n)
    return [
        [rng.uniform(-1e3, 1e3) for _ in range(n)],
        [rng.choice([0.5, -1.25, 1e-300, 3.0, 0.0]) for _ in range(n)],
        [float(i % 512) for i in range(n)],
        [float(i % 513) / 3 for i in range(n)],
        [(-0.0, 0.0)[i % 3 == 0] for i in range(n)],
        [i if i % 2 else i / 7 for i in range(n)],
    ]


_LENGTHS = [cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1, 1023, 1024, 1025, 20_000]


@pytest.mark.parametrize("n", _LENGTHS)
def test_long_lists_keep_their_bytes(n):
    # at and around a chunk's length and the repetition sample's, in every way a list is written
    for k, xs in enumerate(_long_lists(n)):
        for obj in (xs, {"a": {"b": xs}}):
            _assert_same(_dump_json(obj), _reference_json(obj))
        if k < 2:  # an encoded list and a repetitive one, sent per item by an inf in a later chunk
            ys = [*xs[:-1], math.inf]
            _assert_same(_dump_json([[ys, 1]]), _reference_json([[ys, 1]]))
        with pytest.raises(ValueError):
            _dump_json({"a": [*xs[1:], math.nan]})
        if all(type(x) is float for x in xs):
            _assert_same(_dump_json({"col": _column(xs)}), _reference_json({"col": xs}))
            table = _Rows((range(n), _column(xs), _column(xs[::-1])))
            _assert_same(_dump_json({"rows": table}), _reference_json({"rows": table}))
            _assert_same(_csv_text(["i", "x", "y"], table), _reference_csv(["i", "x", "y"], table))
        if k == 1:
            _assert_same(_dump_json([_column([*xs, -math.inf])]), _reference_json([[*xs, -math.inf]]))
        rows = list(zip(range(n), xs, reversed(xs)))
        _assert_same(_dump_json({"rows": rows}), _reference_json({"rows": rows}))
        _assert_same(_csv_text(["i", "x", "y"], rows), _reference_csv(["i", "x", "y"], rows))
        _assert_same(_csv_text(["i", "x", "y"], iter(rows)), _reference_csv(["i", "x", "y"], rows))
        if k == 0:
            rows[-1] = (n, math.inf, -0.0)
            _assert_same(_dump_json(rows), _reference_json(rows))


@pytest.fixture
def encoder_calls(monkeypatch):
    """The lengths of the lists that the writer hands to the C encoder."""
    calls = []
    encode = cli._ENCODE

    def counting(obj):
        if isinstance(obj, (list, tuple)):
            calls.append(len(obj))
        return encode(obj)

    monkeypatch.setattr(cli, "_ENCODE", counting)
    return calls


def test_repetitive_float_lists_are_formatted_per_distinct_value(monkeypatch):
    # an array chunk whose values repeat is formatted once per distinct bit pattern, -0.0 apart from 0.0
    reprs = []
    monkeypatch.setattr(cli, "repr", lambda x: reprs.append(x) or repr(x), raising=False)
    n = 3 * cli._CHUNK
    for values, expected in [([0.5, -0.0, 0.0], 3 * 3), ([1e-300], 3), (range(n), n), ([0.0] * 2 + [1.0], 3 * 2)]:
        xs = _column([values[i % len(values)] for i in range(n)])
        reprs.clear()
        text = _dump_json(xs)
        _assert_same(text, _reference_json(xs.tolist()))
        assert len(reprs) == expected, values
        reprs.clear()
        assert _csv_text(["x"], _Rows((xs,))) == _reference_csv(["x"], zip(xs.tolist()))
        assert len(reprs) == expected


def test_short_values_take_one_encoder_call(encoder_calls):
    for n in (1, 1025, 100_000):
        encoder_calls.clear()
        _dump_json({"a": [i / 7 for i in range(n)], "b": [[1, 2.5]] * 3})  # Python lists: the encoder writes each whole
        assert encoder_calls == [n, 3]


def _traced_peak(f, *args):
    """f(*args) and the peak of the memory it allocated, above what was live before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [["criterion", "--weights", "{spec}", "-N", "1000000"],
                                  ["eigen", "--lambda=50,0", "--mu=50,0"]], ids=["criterion", "eigen"])
def test_commands_stream_their_artifacts_in_bounded_memory(tmp_path, argv):
    # the artifacts are written piece by piece: a command's peak stays within a few MiB of what its
    # handler holds (its arrays or factors), while the text it writes is several times that margin
    argv = [a.replace("{spec}", write_json(tmp_path / "spec.json", _BARGMANN_SPEC)) for a in argv]
    args = build_parser(argv).parse_args(argv)
    _, held = _traced_peak(args.func, args)
    out = tmp_path / "out.json"
    code, peak = _traced_peak(main, [*argv, "--out", str(out)])
    assert code == 0
    written = sum(path.stat().st_size for path in tmp_path.glob("out.json*") if "manifest" not in path.name)
    assert written > 6 * 2**20
    assert peak - held <= min(4 * 2**20, written / 2), (peak, held, written)


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "eval", "--basis", "theta", "-m", "3", "-z", "1e300,1e300"],
        ["basis", "eval", "--basis", "theta", "-m", "3", "-z", "1,1", "--alpha", "1e300"],
        ["eigen", "--lambda=1,0", "--mu=1,0", "--nu=1e300"],
        ["periodic", "--q", "4", "--nu=1e300"],
        ["eigen", "--lambda=1,0", "--mu=1,0", "--nu=1e300", "--alpha=-1e300"],
    ],
)
def test_values_beyond_float_range_are_numeric_failures(tmp_path, capsys, argv):
    # a theta value whose log or phase overflows, and weights whose ratio to |lambda| rounds to 1
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_scan_whose_partials_overflow_is_a_numeric_failure(tmp_path, capsys):
    spec = write_json(tmp_path / "raw.json", {"family": "theta_raw", "nu": 1e-300})
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would end main with a traceback
        assert main(["criterion", "--weights", spec, "-N", "10000", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "shiftdyn: numeric failure: partial log-product 7564 of 10000 overflows the float range\n"
    assert not out.exists()


# argv of the leaf commands that build no array.  Every option takes a value inside a bound that
# keeps the case cheap, a non-finite or malformed token, or a bad integer within that bound; the
# basis eval, eigen and periodic options are all valid but for at most one such token, so most
# cases evaluate or build.
_BAD_INDICES = [*(str(b) for b in _BAD_INTS if b <= 10_000), *_NON_NUMBERS]


_LEAF_OPS = [
    {"direction": "backward", "weights": {"family": "bargmann_composite", "p": 1}},
    {"direction": "adjoint_forward", "weights": {"family": "theta_composite", "nu": 3.0, "p": 1}},
    {"direction": "right_inverse", "weights": {"family": "bargmann_composite", "p": 1}},
    {"direction": "backward", "weights": {"family": "table", "table": [0.5, 2.0, 3.0] * 5, "start": 2}},
]
# a tensor operator file, of offsets (1, 1)
_LEAF_OPS.append({"left": _LEAF_OPS[0], "right": {"direction": "backward", "weights": {**_THETA_SPEC, "p": 1}}})
# eigen and periodic --op: the default pair, one axis, factors whose directions differ, a right-inverse pair
_EIGEN_OPS = [_PAIR_SPEC, _LEAF_OPS[0], {"left": _LEAF_OPS[0], "right": _LEAF_OPS[2]},
              {"left": _LEAF_OPS[2], "right": _LEAF_OPS[2]}]
_LEAF_VECTORS = [
    {"p": 1, "entries": [[3, 0.0, 0.0], [9, -2.0, 1.5]]},
    {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0], [6, 1, 1.0, -0.5]]},
]
_INDEX = st.integers(0, 10_000).map(str) | st.sampled_from(_BAD_INDICES)  # -k
_LEAF_COMMANDS = ["basis eval", "op apply", "op power", "inner", "eigen", "periodic"]
_EIGEN_REAL = st.floats(-7.0, 7.0).map(repr)
_BAD_REALS = ["inf", "-inf", "nan", "1e400", "abc", "", "0x10", "2**40"]
_BAD_COMPLEX = st.sampled_from(["1", "1,2,3", ",", "1;2"]) | st.builds(
    "{},{}".format, st.sampled_from(_BAD_REALS), _EIGEN_REAL)
# eigen and periodic options, as (a valid value, a malformed one); --op draws an index into _EIGEN_OPS
_PAIR_OPTIONS = {
    "--lambda": (st.builds("{},{}".format, _EIGEN_REAL, _EIGEN_REAL), _BAD_COMPLEX),  # |lambda| <= 10
    "--mu": (st.builds("{},{}".format, _EIGEN_REAL, _EIGEN_REAL), _BAD_COMPLEX),
    "--q": (st.integers(1, 16).map(str), st.sampled_from(["0", "-1", "-7", *_NON_NUMBERS])),
    "--tail": (st.floats(-200.0, -0.5).map(repr), st.sampled_from(["0", "10", *_BAD_REALS])),
    "--p": (st.integers(0, 3).map(str), st.sampled_from(["-1", "1.5", str(2**53)])),
    "--nu": (st.floats(0.1, 10.0).map(repr), st.sampled_from(["0", "-1.0", *_BAD_REALS])),
    "--alpha": (st.floats(-2.0, 2.0).map(repr), st.sampled_from(_BAD_REALS)),
    "--op": (st.sampled_from([None, 0]), st.integers(1, len(_EIGEN_OPS) - 1)),
}
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# basis eval options, likewise
_BASIS_OPTIONS = {
    "-m": (st.integers(0, 10_000).map(str), st.sampled_from(_BAD_INDICES)),
    "-z": (st.builds("{},{}".format, _FINITE, _FINITE), _BAD_COMPLEX),
    "--nu": _PAIR_OPTIONS["--nu"],
    "--alpha": _PAIR_OPTIONS["--alpha"],
}


@st.composite
def _leaf_argv(draw):
    command = draw(st.sampled_from(_LEAF_COMMANDS))
    op = f"op{draw(st.integers(0, len(_LEAF_OPS) - 1))}.json"
    vec, vec2 = (f"vec{draw(st.integers(0, len(_LEAF_VECTORS) - 1))}.json" for _ in range(2))
    argv = command.split()
    if command == "basis eval":
        argv += ["--basis", draw(st.sampled_from(["theta", "bargmann"]))]
        argv += [f"{name}={value}" for name, value in _options(draw, _BASIS_OPTIONS, list(_BASIS_OPTIONS)).items()]
    elif command.startswith("op"):
        argv += ["--op", op, "--vec", vec]
    elif command == "inner":
        argv += ["--vec", vec, "--vec2", vec2]
    elif command in ("eigen", "periodic"):
        argv += _pair_options(draw, command)
    if command.endswith("power"):
        argv += [f"-k={draw(_INDEX)}"]
    return argv


def _options(draw, table: dict, names: list[str]) -> dict:
    """A value for each named option of table, all valid but at most one malformed token."""
    broken = draw(st.none() | st.sampled_from(names))
    values = {}
    for name in names:
        good, bad = table[name]
        values[name] = draw(bad if name == broken else good)
    return values


def _pair_options(draw, command: str) -> list[str]:
    """eigen/periodic options, all valid but at most one malformed token, so most cases build."""
    names = [n for n in _PAIR_OPTIONS if n not in (("--q",) if command == "eigen" else ("--lambda", "--mu"))]
    values = _options(draw, _PAIR_OPTIONS, names)
    eigen_op = values.pop("--op")
    argv = [f"{name}={value}" for name, value in values.items()]
    return argv if eigen_op is None else [*argv, "--op", f"eigen_op{eigen_op}.json"]


@pytest.fixture(scope="module")
def leaf_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("leaf")
    for i, op in enumerate(_LEAF_OPS):
        write_json(files / f"op{i}.json", op)
    for i, op in enumerate(_EIGEN_OPS):
        write_json(files / f"eigen_op{i}.json", op)
    for i, vec in enumerate(_LEAF_VECTORS):
        write_json(files / f"vec{i}.json", vec)
    return files


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_leaf_argv())
def test_leaf_command_argv_exits_0_2_or_3(leaf_files, capsys, argv):
    argv = [str(leaf_files / a) if a.endswith(".json") else a for a in argv]
    start = time.perf_counter()
    code = main([*argv, "--out", str(leaf_files / "out.json")])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert elapsed < 10.0, argv


@pytest.mark.parametrize("command", ["eigen", "periodic", "basis eval"])
def test_leaf_argv_reach_eigen_and_periodic_builds(leaf_files, capsys, command):
    # the fuzz above checks builds and evaluations, not only parsing: it draws argv that exit 0
    def exits_0(argv):
        if argv[: len(command.split())] != command.split():
            return False
        code = main([*(str(leaf_files / a) if a.endswith(".json") else a for a in argv),
                     "--out", str(leaf_files / "built.json")])
        capsys.readouterr()
        return code == 0

    find(_leaf_argv(), exits_0, settings=settings(max_examples=300, deadline=None, database=None,
                                                  phases=[Phase.generate]))  # the first such argv, unshrunk


# argv of hypercyclic and density-probe, at a bounded cost: at most 8 targets of at most 3 entries,
# --count at most 4 and eps in [1e-9, 1e-1], or a token that must be refused.  --op is drawn from
# operator files of one axis and of two, of two whose factors' directions differ, and malformed
# ones; each file is given with the offsets of its operator (None where it must be refused).
_ORBIT_OPS = [
    (_LEAF_OPS[0], (1,)),
    (_LEAF_OPS[2], (1,)),  # a right inverse
    (_LEAF_OPS[3], (0,)),  # a finite table
    (_PAIR_SPEC, (0, 0)),
    (_LEAF_OPS[4], (1, 1)),
    ({"left": _LEAF_OPS[0], "right": _LEAF_OPS[2]}, None),
    ({"left": _LEAF_OPS[2], "right": _LEAF_OPS[0]}, None),
    ({"left": _PAIR_SPEC, "right": _LEAF_OPS[0]}, None),
    ({"left": _LEAF_OPS[0]}, None),
    ({"direction": "sideways", "weights": _BARGMANN_SPEC}, None),
    ({"weights": {"family": "nope"}}, None),
    ([_LEAF_OPS[0]], None),
    ("backward", None),
]


def _mostly(good, bad):
    """good three times in four, else bad: most cases then reach the build."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else good)


_EPS = _mostly(st.floats(1e-9, 1e-1).map(repr),
               st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1e-6", "abc"]))
_COUNT = _mostly(st.integers(1, 4).map(str), st.sampled_from(["0", "-1", "nan", "1e3", ""]))
_SEED = _mostly(st.integers(-(2**70), 2**70).map(str), st.sampled_from(["nan", "1.5"]))
_TAIL = _mostly(st.floats(-80.0, -1.0).map(repr), st.sampled_from(["inf", "-inf", "nan", "0", "5", "abc"]))


@st.composite
def _orbit_targets(draw, offsets):
    """Targets of the operator's offsets, or of any offsets."""
    offsets = draw(_mostly(st.just(offsets), st.sampled_from([(0,), (1,), (0, 0), (1, 1)])))
    keys = st.tuples(*(st.integers(p, p + 5) for p in offsets))
    entry = st.builds(lambda key, logmag, phase: [*key, logmag, phase], keys, st.floats(-3, 3), st.floats(-3, 3))
    entries = st.lists(entry, max_size=3, unique_by=lambda e: tuple(e[:-2]))
    names = ("p",) if len(offsets) == 1 else ("p1", "p2")
    vectors = st.lists(entries.map(lambda es: {**dict(zip(names, offsets)), "entries": es}), max_size=8)
    return {"targets": draw(_mostly(vectors.filter(bool), vectors))}


@st.composite
def _orbit_argv(draw):
    i = draw(_mostly(st.sampled_from([0, 2, 3, 4]), st.integers(0, len(_ORBIT_OPS) - 1)))
    argv = ["--op", f"orbit_op{i}.json"]
    if draw(st.booleans()):
        targets = draw(_orbit_targets(_ORBIT_OPS[i][1] or (0,)))
        return ["hypercyclic", *argv, "--targets", "targets.json", f"--eps={draw(_EPS)}"], targets
    argv += [f"--count={draw(_COUNT)}", f"--seed={draw(_SEED)}", f"--tail={draw(_TAIL)}"]
    return ["density-probe", *argv], None


@pytest.fixture(scope="module")
def orbit_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("orbit")
    for i, (op, _) in enumerate(_ORBIT_OPS):
        write_json(files / f"orbit_op{i}.json", op)
    return files


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_orbit_argv())
def test_orbit_command_argv_exits_0_2_or_3(orbit_files, capsys, case):
    argv, targets = case
    if targets is not None:
        write_json(orbit_files / "targets.json", targets)
    argv = [str(orbit_files / a) if a.endswith(".json") else a for a in argv]
    start = time.perf_counter()
    code = main([*argv, "--out", str(orbit_files / "out.json")])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert elapsed < 10.0, argv


def test_every_json_artifact_is_the_compact_dump_of_its_parse(tmp_path, bargmann_op_spec):
    vec = write_json(tmp_path / "v.json", {"p": 1, "entries": [[2, 0.5, 0.25], [4, -1.0, 3.0]]})
    apart = write_json(tmp_path / "w.json", {"p": 1, "entries": [[3, 0.0, 0.0]]})  # <vec, apart> = 0
    omega = write_json(tmp_path / "s.json", {"family": "block_pattern", "role": "omega"})
    targets = write_json(tmp_path / "t.json", {"targets": [{"p": 0, "entries": [[m, 0.1, 0.2]]} for m in (2, 0)]})
    commands = [
        ["weights", "--spec", omega, "--range", "1:50", "--format", "json"],
        ["basis", "eval", "--basis", "theta", "-m", "3", "-z", "0.5,-1"],
        ["op", "apply", "--op", bargmann_op_spec, "--vec", vec],
        ["op", "power", "--op", bargmann_op_spec, "--vec", vec, "-k", "2"],
        ["op", "matrix", "--op", bargmann_op_spec, "-N", "6", "--format", "json"],
        ["inner", "--vec", vec, "--vec2", apart],
        ["criterion", "--weights", omega, "-N", "3000"],  # repetitive partials: a column of reprs
        ["eigen", "--lambda=0.5,0.1", "--mu=0.3,-0.2"],
        ["periodic", "--q", "3"],
        ["hypercyclic", "--targets", targets],
        ["counterexample", "-N", "2000"],
        ["density-probe", "--count", "2"],
    ]
    leaves = {(a[0], a[1]) if a[0] in cli._GROUPS else (None, a[0]) for a in commands}
    assert leaves == {(group, name) for group, name, *_ in cli._LEAVES}
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}.json"
        assert main([*argv, "--out", str(out)]) == 0, argv
        for path in (out, Path(f"{out}.manifest.json")):
            text = path.read_text(encoding="utf-8")
            assert text == _compact(json.loads(text)), (argv, path.name)
    assert json.loads((tmp_path / "out5.json").read_text(encoding="utf-8"))["logmag"] == "-inf"


def test_an_unread_nan_option_is_echoed_in_the_manifest(tmp_path):
    # the Bargmann basis reads neither --nu nor --alpha; the manifest still records what was given
    out = tmp_path / "b.json"
    assert main(["basis", "eval", "--basis", "bargmann", "-m", "2", "-z", "1,0", "--alpha", "nan",
                 "--out", str(out)]) == 0
    assert json.loads((tmp_path / "b.json.manifest.json").read_text())["config"]["alpha"] == "nan"
