"""Command-line interface: artifacts, manifests, exit codes."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftdyn.cli import main


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


def test_tensor_apply_and_inner(tmp_path, theta_op_spec, bargmann_op_spec):
    vec = write_json(tmp_path / "w.json", {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0]]})
    out = tmp_path / "tensor_applied.json"
    rc = main(
        ["tensor", "apply", "--left", theta_op_spec, "--right", bargmann_op_spec,
         "--vec", vec, "--out", str(out)]
    )
    assert rc == 0
    applied = json.loads(out.read_text())
    assert applied["entries"][0][:2] == [1, 2]

    vec2 = write_json(tmp_path / "w2.json", {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0]]})
    rc = main(
        ["tensor", "inner", "--left", theta_op_spec, "--right", bargmann_op_spec,
         "--vec", vec, "--vec2", vec2, "--out", str(tmp_path / "ip.json")]
    )
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


def test_eigen_generic(tmp_path):
    out = tmp_path / "eigen.json"
    rc = main(["eigen", "--lambda", "0.5,0.1", "--mu", "0.3,-0.2", "--tail", "-60", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["residual_rel_log"] <= -55.0
    assert result["eigen_spec"]["tail_log_bound"] <= -60.0


def test_eigen_uncertifiable_exits_3(tmp_path, capsys):
    flat = write_json(
        tmp_path / "flat.json",
        {"direction": "backward", "weights": {"family": "table", "table": [1.0] * 50}},
    )
    rc = main(
        ["eigen", "--lambda", "0.9,0", "--mu", "0.9,0", "--tail", "-40",
         "--left", flat, "--right", flat, "--out", str(tmp_path / "x.json")]
    )
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


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
    ],
)
def test_non_finite_parameters_exit_2(tmp_path, capsys, argv, name):
    specs = {
        "{table}": write_json(tmp_path / "t.json", {"family": "table", "table": ["a"]}),
        "{bargmann}": write_json(tmp_path / "b.json", {"family": "bargmann_raw"}),
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


@pytest.mark.parametrize(
    "argv, files",
    [
        pytest.param(_OP_APPLY, _vec(p=None), id="vector-p-null"),
        pytest.param(_OP_APPLY, {"{v}": [[1, 0.0, 0.0]]}, id="vector-is-a-list"),
        pytest.param(["hypercyclic", "--targets", "{v}"], {"{v}": {"targets": 5}},
                     id="targets-not-a-list"),
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
        pytest.param(["tensor", "apply", "--left", "{op}", "--right", "{op}", "--vec", "{v}"],
                     {"{v}": {"p1": 1.5, "p2": 1, "entries": []}}, id="non-integral-p1"),
        pytest.param(_OP_APPLY, _vec([2.5, 0.0, 0.0]), id="non-integral-index"),
        pytest.param(_OP_APPLY, _vec([10**400, 0.0, 0.0]), id="huge-index-bargmann"),
        pytest.param(["op", "apply", "--op", "{theta}", "--vec", "{v}"], _vec([10**400, 0.0, 0.0]),
                     id="huge-index-theta"),
        pytest.param(["weights", "--spec", "{missing}", "--range", "0:3"], {}, id="missing-file"),
        pytest.param(["weights", "--spec", "{v}", "--range", "0:3"], {"{v}": "{not json"},
                     id="invalid-json"),
        pytest.param(_OP_APPLY, {"{v}": "[" * 100_000 + "]" * 100_000}, id="nesting-too-deep"),
        # one reader takes both vector shapes; the axis count must still match the command
        pytest.param(_OP_APPLY, {"{v}": {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0]]}},
                     id="two-axis-vector-to-op-apply"),
        pytest.param(["tensor", "apply", "--left", "{op}", "--right", "{op}", "--vec", "{v}"],
                     _vec([2, 0.0, 0.0]), id="one-axis-vector-to-tensor-apply"),
        pytest.param(["tensor", "inner", "--left", "{op}", "--right", "{op}", "--vec", "{v}",
                      "--vec2", "{v}"], _vec([2, 0.0, 0.0]), id="one-axis-vector-to-tensor-inner"),
        pytest.param(_OP_APPLY, _vec([2, 3, 0.0, 0.0]), id="one-axis-entry-with-four-fields"),
        pytest.param(["hypercyclic", "--targets", "{v}"],
                     {"{v}": {"targets": [{"p1": 0, "p2": 0, "entries": [[1, 1, 0.0, 0.0]]}]}},
                     id="two-axis-hypercyclic-target"),
    ],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, theta_op_spec, bargmann_op_spec, argv, files):
    paths = {"{op}": bargmann_op_spec, "{theta}": theta_op_spec, "{dir}": str(tmp_path),
             "{missing}": str(tmp_path / "missing.json")}
    for name, obj in files.items():
        path = tmp_path / "input.json"
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


def test_tensor_inner_beyond_float_range_is_a_numeric_failure(tmp_path, capsys, bargmann_op_spec):
    entries = [[1, 1, 1e308, 0.0], [2, 2, 1e308, 0.0]]  # each product's logmag overflows
    vec = write_json(tmp_path / "w.json", {"p1": 1, "p2": 1, "entries": entries})
    out = tmp_path / "ip.json"
    assert main(["tensor", "inner", "--left", bargmann_op_spec, "--right", bargmann_op_spec,
                 "--vec", vec, "--vec2", vec, "--out", str(out)]) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


def test_tensor_inner_requires_vec2(tmp_path, capsys, theta_op_spec, bargmann_op_spec):
    vec = write_json(tmp_path / "w.json", {"p1": 1, "p2": 1, "entries": [[2, 3, 0.0, 0.0]]})
    argv = ["tensor", "inner", "--left", theta_op_spec, "--right", bargmann_op_spec, "--vec", vec]
    assert main(argv) == 2
    assert "--vec2" in capsys.readouterr().err
