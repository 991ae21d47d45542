"""Command-line front end.

Every command echoes its configuration into a manifest JSON written
alongside the result artifact (<out>.manifest.json); the manifest carries
the seed, package version, timestamp and wall time.  Result files are
byte-reproducible for a fixed config and seed; only the manifest's
timestamp/wall-time fields vary between runs.

Exit codes: 0 success, 2 validation/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import logging
import math
import os
import random
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .basis import (
    CoeffVector,
    bargmann_basis_eval,
    coeff_inner,
    coeff_norm_log,
    coeff_sub,
    theta_basis_eval,
)
from .criteria import salas_scan, tensor_salas_scan
from .dynamics import (
    eigen_residual_log,
    eigenvector_build,
    hypercyclic_vector_build,
    orbit,
    periodic_from_target,
    periodic_point_from_eigen,
    periodic_residual_numeric_log,
)
from .errors import (
    OverflowNotRepresentable,
    ScheduleOverflow,
    ShiftDynError,
    TailNotCertifiable,
    ValidationError,
)
from .numerics import LogComplex, lc_to_json
from .shift_ops import ShiftOperator, apply, apply_power, matrix_triplets, shift_operator_from_json
from .tensor_ops import TensorOperator, TensorVector, tensor_apply, tensor_power_apply
from .weights import (
    BargmannActionWeights,
    BlockPatternWeights,
    ThetaActionWeights,
    ThetaParams,
    weight_sequence_from_json,
)

log = logging.getLogger("shiftdyn")

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_NUMERIC = 3


def _setup_logging() -> None:
    level_name = os.environ.get("SHIFTDYN_LOG_LEVEL", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ValidationError(f"SHIFTDYN_LOG_LEVEL must be one of {sorted(levels)}")
    logging.basicConfig(stream=sys.stderr, level=levels[level_name], format="%(levelname)s %(message)s")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _jsonable(obj):
    """Map non-finite floats to strings so artifacts stay strict JSON."""
    if isinstance(obj, float):
        if obj == float("-inf"):
            return "-inf"
        if obj == float("inf"):
            return "inf"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _manifest(args) -> dict:
    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command") and not k.startswith("_") and not callable(v)
    }
    return {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", 0),
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": time.monotonic() - args._t0,
    }


def _emit(args, result: dict | str, series: tuple[list[str], list] | None = None) -> None:
    """Write the result (and optional series CSV) plus the run manifest.

    A dict is written as JSON; a str (a CSV table) is written as given.
    """
    text = result if isinstance(result, str) else _dump_json(result)
    if args.out is None:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    _write_text(out, text)
    if series is not None:
        header, rows = series
        _write_text(out.with_suffix(out.suffix + ".series.csv"), _csv_text(header, rows))
    _write_text(out.with_suffix(out.suffix + ".manifest.json"), _dump_json(_manifest(args)))
    log.info("wrote %s", out)


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except Exception:
        raise ValidationError(f"expected 're,im', got {text!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except Exception:
        raise ValidationError(f"expected 'lo:hi', got {text!r}") from None
    if hi <= lo:
        raise ValidationError(f"empty range {text!r}")
    return lo, hi


def _default_pair(args) -> TensorOperator:
    left = (
        shift_operator_from_json(_load_json(args.left))
        if args.left
        else ShiftOperator(ThetaActionWeights(ThetaParams(nu=args.nu, alpha=args.alpha, p=args.p)))
    )
    right = (
        shift_operator_from_json(_load_json(args.right))
        if args.right
        else ShiftOperator(BargmannActionWeights(p=args.p))
    )
    return TensorOperator(left, right)


def _cmd_weights(args) -> int:
    w = weight_sequence_from_json(_load_json(args.spec))
    lo, hi = _parse_range(args.range)
    rows = [(i, w.log_weight(i)) for i in range(lo, hi)]
    if args.format == "csv":
        _emit(args, _csv_text(["index", "logweight"], rows))
    else:
        _emit(args, {"family": w.family, "rows": [[i, v] for i, v in rows]})
    return _EXIT_OK


def _cmd_basis_eval(args) -> int:
    z = _parse_complex(args.z)
    if args.basis == "bargmann":
        val = bargmann_basis_eval(args.m, z)
    else:
        val = theta_basis_eval(args.m, z, ThetaParams(nu=args.nu, alpha=args.alpha))
    _emit(args, lc_to_json(val))
    return _EXIT_OK


def _cmd_op(args) -> int:
    op = shift_operator_from_json(_load_json(args.op))
    if args.action == "matrix":
        triplets = matrix_triplets(op, args.n)
        if args.format == "csv":
            _emit(args, _csv_text(["row", "col", "logmag"], triplets))
        else:
            _emit(args, {"triplets": [[r, c, v] for r, c, v in triplets]})
        return _EXIT_OK
    vec = CoeffVector.from_json_dict(_load_json(args.vec))
    if args.action == "apply":
        result = apply(op, vec)
    else:
        result = apply_power(op, vec, args.k)
    _emit(args, result.to_json_dict())
    return _EXIT_OK


def _cmd_tensor(args) -> int:
    op = TensorOperator(
        shift_operator_from_json(_load_json(args.left)),
        shift_operator_from_json(_load_json(args.right)),
    )
    w = TensorVector.from_json_dict(_load_json(args.vec))
    if args.action == "inner":
        if args.vec2 is None:
            raise ValidationError("inner requires --vec2")
        w2 = TensorVector.from_json_dict(_load_json(args.vec2))
        _emit(args, lc_to_json(coeff_inner(w, w2)))
        return _EXIT_OK
    if args.action == "apply":
        result = tensor_apply(op, w)
    else:
        result = tensor_power_apply(op, w, args.k)
    _emit(args, result.to_json_dict())
    return _EXIT_OK


def _cmd_criterion(args) -> int:
    w1 = weight_sequence_from_json(_load_json(args.weights))
    if args.weights2:
        w2 = weight_sequence_from_json(_load_json(args.weights2))
        report = tensor_salas_scan(w1, w2, args.n, args.threshold)
    else:
        report = salas_scan(w1, args.n, args.threshold)
    _emit(args, report.to_json_dict(include_series=True))
    return _EXIT_OK


def _cmd_eigen(args) -> int:
    op = _default_pair(args)
    lam = _parse_complex(args.lam)
    mu = _parse_complex(args.mu)
    g, spec = eigenvector_build(op, lam, mu, args.tail)
    gnorm = coeff_norm_log(g)
    residual = eigen_residual_log(g, lam, mu, q=1)
    result = {
        "eigen_spec": spec.to_json_dict(),
        "gnorm_log": gnorm,
        "residual_log": residual,
        "residual_rel_log": residual - gnorm,
        "tail_tol_log": args.tail,
        "vector": g.to_json_dict(),
    }
    trace = orbit(op, g, 8, keep_vectors=False)
    series = (["k", "log_norm"], [(s.k, s.log_norm) for s in trace.steps])
    _emit(args, result, series)
    return _EXIT_OK


def _cmd_periodic(args) -> int:
    op = _default_pair(args)
    g = periodic_point_from_eigen(op, args.q, args.tail)  # validates q before pi/q
    lam = cmath.exp(1j * math.pi / args.q)
    gnorm = coeff_norm_log(g)
    res_q = eigen_residual_log(g, lam, lam, q=args.q)
    res_1 = periodic_residual_numeric_log(op, g, 1) if args.q > 1 else res_q
    result = {
        "q": args.q,
        "tail_tol_log": args.tail,
        "gnorm_log": gnorm,
        "residual_q_rel_log": res_q - gnorm,
        "residual_1_rel_log": res_1 - gnorm,
        "vector": g.to_json_dict(),
    }
    trace = orbit(op, g, 2 * args.q, keep_vectors=False)
    series = (["k", "log_norm"], [(s.k, s.log_norm) for s in trace.steps])
    _emit(args, result, series)
    return _EXIT_OK


def _op_or_default(args) -> ShiftOperator:
    """The --op operator JSON, or the Bargmann backward shift of order 0."""
    if args.op:
        return shift_operator_from_json(_load_json(args.op))
    return ShiftOperator(BargmannActionWeights(p=0))


def _cmd_hypercyclic(args) -> int:
    op = _op_or_default(args)
    payload = _load_json(args.targets)
    target_dicts = payload["targets"] if isinstance(payload, dict) else payload
    targets = [CoeffVector.from_json_dict(d) for d in target_dicts]
    psi, schedule = hypercyclic_vector_build(op, targets, args.eps)
    replay = []
    for n, y in zip(schedule, targets):
        err = coeff_norm_log(coeff_sub(apply_power(op, psi, n), y))
        replay.append((n, err))
    result = {
        "eps": args.eps,
        "schedule": schedule,
        "replay_error_logs": [[n, e] for n, e in replay],
        "psi": psi.to_json_dict(),
    }
    series = (["k", "replay_error_log"], replay)
    _emit(args, result, series)
    return _EXIT_OK


def _cmd_counterexample(args) -> int:
    omega = BlockPatternWeights(role="omega")
    varpi = BlockPatternWeights(role="varpi")
    r_omega = salas_scan(omega, args.n, args.threshold)
    r_varpi = salas_scan(varpi, args.n, args.threshold)
    r_prod = tensor_salas_scan(omega, varpi, args.n, args.threshold)
    include = args.n <= 100_000  # keep huge-horizon artifacts bounded
    result = {
        "omega": r_omega.to_json_dict(include_series=include),
        "varpi": r_varpi.to_json_dict(include_series=include),
        "product": r_prod.to_json_dict(include_series=include),
    }
    rows = [
        (i + 1, float(r_omega.partial_log_products[i]), float(r_varpi.partial_log_products[i]),
         float(r_prod.partial_log_products[i]))
        for i in range(min(args.n, 100_000))
    ]
    series = (["i", "omega_partial", "varpi_partial", "product_partial"], rows)
    _emit(args, result, series)
    return _EXIT_OK


def _cmd_density_probe(args) -> int:
    op = _op_or_default(args)
    rng = random.Random(args.seed)
    p = op.offset_p
    samples = []
    rows = []
    for s in range(args.count):
        support = sorted(rng.sample(range(p, p + 8), rng.randint(1, 4)))
        entries = {
            m: LogComplex(rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))
            for m in support
        }
        y = CoeffVector(p, entries)
        q0 = max(support) - p + 1
        errs = []
        for mult in (1, 2, 4):
            q = q0 * mult
            x = periodic_from_target(op, y, q, args.tail)
            err = coeff_norm_log(coeff_sub(x, y))
            errs.append([q, err])
            rows.append((s, q, err))
        samples.append({"target": y.to_json_dict(), "q_and_error_log": errs})
    result = {"seed": args.seed, "tail_tol_log": args.tail, "samples": samples}
    series = (["sample", "q", "approx_error_log"], rows)
    _emit(args, result, series)
    return _EXIT_OK


# options whose value may start with '-' without being a plain negative number
_DASH_VALUE_OPTIONS = ("--lambda", "--mu", "-z", "--range", "--tail", "--alpha", "--threshold")
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _join_dash_values(argv) -> list[str]:
    """Rewrite `--lambda -2,0.5` as `--lambda=-2,0.5`.

    argparse reads a token such as `-2,0.5` as an option string, not as the
    value of the option before it.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _DASH_VALUE_OPTIONS and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftdyn",
        description="Weighted backward shifts, tensor products, and chaos diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"shiftdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")

    p = sub.add_parser("weights", help="evaluate a weight sequence over an index range")
    p.add_argument("--spec", required=True)
    p.add_argument("--range", required=True, help="lo:hi (hi exclusive)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_out(p)
    p.set_defaults(func=_cmd_weights)

    p_basis = sub.add_parser("basis", help="basis function evaluation")
    sub_basis = p_basis.add_subparsers(dest="basis_action", required=True)
    p = sub_basis.add_parser("eval")
    p.add_argument("--basis", choices=("theta", "bargmann"), required=True)
    p.add_argument("--nu", type=float, default=math.pi)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-z", required=True, help="re,im")
    add_out(p)
    p.set_defaults(func=_cmd_basis_eval)

    p_op = sub.add_parser("op", help="single-space operator actions")
    sub_op = p_op.add_subparsers(dest="action", required=True)
    for action in ("apply", "power", "matrix"):
        p = sub_op.add_parser(action)
        p.add_argument("--op", required=True)
        if action != "matrix":
            p.add_argument("--vec", required=True)
        if action == "power":
            p.add_argument("-k", type=int, required=True)
        if action == "matrix":
            p.add_argument("-N", dest="n", type=int, required=True)
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        add_out(p)
        p.set_defaults(func=_cmd_op, action=action)

    p_tensor = sub.add_parser("tensor", help="tensor operator actions")
    sub_tensor = p_tensor.add_subparsers(dest="action", required=True)
    for action in ("apply", "power", "inner"):
        p = sub_tensor.add_parser(action)
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.add_argument("--vec", required=True)
        if action == "power":
            p.add_argument("-k", type=int, required=True)
        if action == "inner":
            p.add_argument("--vec2", default=None)
        add_out(p)
        p.set_defaults(func=_cmd_tensor, action=action)

    p = sub.add_parser("criterion", help="Salas partial-product scan")
    p.add_argument("--weights", required=True)
    p.add_argument("--weights2", default=None)
    p.add_argument("-N", dest="n", type=int, default=10_000)
    p.add_argument("--threshold", type=float, default=100.0)
    add_out(p)
    p.set_defaults(func=_cmd_criterion)

    def add_pair(p):
        p.add_argument("--left", default=None, help="left operator JSON (default: theta)")
        p.add_argument("--right", default=None, help="right operator JSON (default: bargmann)")
        p.add_argument("--nu", type=float, default=math.pi)
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--p", type=int, default=0)

    p = sub.add_parser("eigen", help="build a truncated tensor eigenvector")
    p.add_argument("--lambda", dest="lam", required=True, help="re,im")
    p.add_argument("--mu", required=True, help="re,im")
    p.add_argument("--tail", type=float, default=-60.0)
    add_pair(p)
    add_out(p)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("periodic", help="build a truncated q-periodic point")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--tail", type=float, default=-60.0)
    add_pair(p)
    add_out(p)
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("hypercyclic", help="build a vector whose orbit visits targets")
    p.add_argument("--targets", required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--op", default=None, help="operator JSON (default: bargmann p=0)")
    add_out(p)
    p.set_defaults(func=_cmd_hypercyclic)

    p = sub.add_parser("counterexample", help="block-pattern tensor counterexample scans")
    p.add_argument("-N", dest="n", type=int, default=10_000)
    # block-pattern swings reach ~sqrt(N/2)*ln2; 30 nats is crossed by N=1e4
    p.add_argument("--threshold", type=float, default=30.0)
    add_out(p)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("density-probe", help="periodic approximation of random targets")
    p.add_argument("--op", default=None)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail", type=float, default=-40.0)
    add_out(p)
    p.set_defaults(func=_cmd_density_probe)

    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
    except ValidationError as exc:
        print(f"shiftdyn: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    parser = build_parser()
    try:
        args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # --help, --version, or a usage error already printed
        return exc.code if isinstance(exc.code, int) else _EXIT_VALIDATION
    args._t0 = time.monotonic()
    try:
        return args.func(args)
    except (TailNotCertifiable, ScheduleOverflow, OverflowNotRepresentable) as exc:
        print(f"shiftdyn: numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except (ValidationError, ValueError, KeyError) as exc:
        print(f"shiftdyn: invalid input: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"shiftdyn: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except ShiftDynError as exc:
        print(f"shiftdyn: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
