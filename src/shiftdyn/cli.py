"""Command-line front end.

Every command echoes its configuration into a manifest JSON written
alongside the result artifact (<out>.manifest.json); the manifest carries
the seed, package version, timestamp and wall time.  Result files are
byte-reproducible for a fixed config and seed; only the manifest's
timestamp/wall-time fields vary between runs.

Each leaf command has one handler, which returns its result (a dict for
JSON, a str for CSV) and an optional series table.  Every input file is
read by `_read`, so a missing or malformed file is a validation error.

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
    EIGEN_SERIES_STEPS,
    eigenvector_build,
    hypercyclic_vector_build,
    periodic_from_target,
    periodic_point_from_eigen,
    periodic_residual_numeric_log,
    rank_one_log_norms,
    rank_one_residual_log,
)
from .errors import ShiftDynError, ValidationError
from .numerics import LogComplex, lc_to_json
from .shift_ops import ShiftOperator, apply_power, matrix_triplets, shift_operator_from_json
from .tensor_ops import TensorOperator
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


def _read(path: str, parse):
    """parse(json.load(path)); an unreadable or malformed file is a ValidationError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from None
    except TypeError as exc:
        raise ValidationError(f"{path}: wrong JSON type: {exc}") from None
    except (ValueError, OverflowError, RecursionError) as exc:  # ValidationError included
        raise ValidationError(f"{path}: {exc}") from None


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
        if k != "command" and not k.startswith("_") and not callable(v)
    }
    return {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", 0),
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": time.monotonic() - args._t0,
    }


def _emit(args, result: dict | str, series: tuple[list[str], list] | None) -> None:
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


def _operator(path: str | None, default_weights=None) -> ShiftOperator:
    """The operator JSON at path, or the backward shift of default_weights()."""
    if path:
        return _read(path, shift_operator_from_json)
    return ShiftOperator(default_weights())


def _pair(args) -> TensorOperator:
    """--left (x) --right; a side not given is the theta or Bargmann shift of order --p."""
    left = _operator(args.left, lambda: ThetaActionWeights(ThetaParams(args.nu, args.alpha, args.p)))
    return TensorOperator(left, _operator(args.right, lambda: BargmannActionWeights(p=args.p)))


def _targets(payload) -> list[CoeffVector]:
    """Hypercyclic targets: {"targets": [vector, ...]} or the bare list."""
    vectors = payload["targets"] if isinstance(payload, dict) else payload
    return [CoeffVector.from_json_dict(v) for v in vectors]


def _orbit_result(args, g, log_norms: list[float], result: dict):
    """result with the vector g and the tail target, and g's orbit log-norms as the series."""
    result.update(tail_tol_log=args.tail, vector=g.to_json_dict())
    return result, (["k", "log_norm"], list(enumerate(log_norms)))


def _cmd_weights(args):
    w = _read(args.spec, weight_sequence_from_json)
    lo, hi = _parse_range(args.range)
    rows = [(i, w.log_weight(i)) for i in range(lo, hi)]
    if args.format == "csv":
        return _csv_text(["index", "logweight"], rows), None
    return {"family": w.family, "rows": [[i, v] for i, v in rows]}, None


def _cmd_basis_eval(args):
    z = _parse_complex(args.z)
    if args.basis == "bargmann":
        return lc_to_json(bargmann_basis_eval(args.m, z)), None
    return lc_to_json(theta_basis_eval(args.m, z, ThetaParams(nu=args.nu, alpha=args.alpha))), None


def _cmd_power(args):
    """`op` and `tensor` apply (k = 1) and power; only the operator loader differs."""
    op = _pair(args) if args.command == "tensor" else _operator(args.op)
    v = _read(args.vec, CoeffVector.from_json_dict)
    return apply_power(op, v, getattr(args, "k", 1)).to_json_dict(), None


def _cmd_op_matrix(args):
    triplets = matrix_triplets(_operator(args.op), args.n)
    if args.format == "csv":
        return _csv_text(["row", "col", "logmag"], triplets), None
    return {"triplets": [[r, c, v] for r, c, v in triplets]}, None


def _cmd_tensor_inner(args):
    _pair(args)  # checks the operator files, which the inner product does not use
    w, w2 = (_read(path, CoeffVector.from_json_dict) for path in (args.vec, args.vec2))
    if len(w.offsets) != 2:
        raise ValidationError(f"{args.vec}: a tensor vector has two axes, got {len(w.offsets)}")
    return lc_to_json(coeff_inner(w, w2)), None


def _cmd_criterion(args):
    w1 = _read(args.weights, weight_sequence_from_json)
    if args.weights2:
        w2 = _read(args.weights2, weight_sequence_from_json)
        report = tensor_salas_scan(w1, w2, args.n, args.threshold)
    else:
        report = salas_scan(w1, args.n, args.threshold)
    return report.to_json_dict(include_series=True), None


def _cmd_eigen(args):
    op = _pair(args)
    lam = _parse_complex(args.lam)
    mu = _parse_complex(args.mu)
    g, spec = eigenvector_build(op, lam, mu, args.tail)
    log_norms = rank_one_log_norms(op, g, EIGEN_SERIES_STEPS)
    residual = rank_one_residual_log(g, lam, mu, q=1)
    result = {
        "eigen_spec": spec.to_json_dict(),
        "gnorm_log": log_norms[0],
        "residual_log": residual,
        "residual_rel_log": residual - log_norms[0],
    }
    return _orbit_result(args, g, log_norms, result)


def _cmd_periodic(args):
    op = _pair(args)
    g = periodic_point_from_eigen(op, args.q, args.tail)  # validates q before pi/q
    lam = cmath.exp(1j * math.pi / args.q)
    log_norms = rank_one_log_norms(op, g, 2 * args.q)
    gnorm = log_norms[0]
    res_q = rank_one_residual_log(g, lam, lam, q=args.q)
    res_1 = periodic_residual_numeric_log(op, g, 1) if args.q > 1 else res_q
    result = {
        "q": args.q,
        "gnorm_log": gnorm,
        "residual_q_rel_log": res_q - gnorm,
        "residual_1_rel_log": res_1 - gnorm,
    }
    return _orbit_result(args, g, log_norms, result)


def _cmd_hypercyclic(args):
    op = _operator(args.op, lambda: BargmannActionWeights(p=0))
    targets = _read(args.targets, _targets)
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
    return result, (["k", "replay_error_log"], replay)


def _cmd_counterexample(args):
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
    return result, (["i", "omega_partial", "varpi_partial", "product_partial"], rows)


def _cmd_density_probe(args):
    op = _operator(args.op, lambda: BargmannActionWeights(p=0))
    rng = random.Random(args.seed)
    p = op.offset_p
    samples = []
    rows = []
    for s in range(args.count):
        support = sorted(rng.sample(range(p, p + 8), rng.randint(1, 4)))
        entries = {
            (m,): LogComplex(rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))
            for m in support
        }
        y = CoeffVector(op.offsets, entries)
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
    return result, (["sample", "q", "approx_error_log"], rows)


_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _join_dash_values(argv) -> list[str]:
    """Rewrite `--lambda -2,0.5` as `--lambda=-2,0.5`, after any option.

    argparse reads a token such as `-2,0.5` or `-1e-6` as an option string,
    not as the value of the option before it.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1].startswith("-") and "=" not in out[-1] and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


# options of the leaf commands, as (flags..., add_argument keywords)
_REQUIRED = {"required": True}
_OP = ("--op", _REQUIRED)
_VEC = ("--vec", _REQUIRED)
_K = ("-k", {"type": int, "required": True})
_N = ("-N", {"dest": "n", "type": int, "default": 10_000})
_FORMAT = ("--format", {"choices": ("csv", "json"), "default": "csv"})
_NU = ("--nu", {"type": float, "default": math.pi})
_ALPHA = ("--alpha", {"type": float, "default": 0.0})
_TAIL = ("--tail", {"type": float, "default": -60.0})
_TENSOR = (("--left", _REQUIRED), ("--right", _REQUIRED), _VEC)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftdyn",
        description="Weighted backward shifts, tensor products, and chaos diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"shiftdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # options several commands share, declared once as parent parsers
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (stdout if omitted)")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--left", default=None, help="left operator JSON (default: theta)")
    pair.add_argument("--right", default=None, help="right operator JSON (default: bargmann)")
    for flag, kwargs in (_NU, _ALPHA, ("--p", {"type": int, "default": 0})):
        pair.add_argument(flag, **kwargs)

    def leaf(group, name, func, help, *options, parents=()):
        p = group.add_parser(name, parents=[*parents, out], help=help)
        for *flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)

    def group(name, dest, help):
        return sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

    leaf(sub, "weights", _cmd_weights, "evaluate a weight sequence over an index range",
         ("--spec", _REQUIRED),
         ("--range", {"required": True, "help": "lo:hi (hi exclusive)"}),
         _FORMAT)
    leaf(group("basis", "basis_action", "basis function evaluation"), "eval", _cmd_basis_eval,
         "evaluate one basis function at z",
         ("--basis", {"choices": ("theta", "bargmann"), "required": True}),
         _NU, _ALPHA,
         ("-m", {"type": int, "required": True}),
         ("-z", {"required": True, "help": "re,im"}))
    ops = group("op", "action", "single-space operator actions")
    leaf(ops, "apply", _cmd_power, "apply the operator once", _OP, _VEC)
    leaf(ops, "power", _cmd_power, "apply the operator k times", _OP, _VEC, _K)
    leaf(ops, "matrix", _cmd_op_matrix, "the truncated matrix as (row, col, logmag) triplets",
         _OP,
         ("-N", {"dest": "n", "type": int, "required": True}),
         _FORMAT)
    tensors = group("tensor", "action", "tensor operator actions")
    leaf(tensors, "apply", _cmd_power, "apply left (x) right once", *_TENSOR)
    leaf(tensors, "power", _cmd_power, "apply left (x) right k times", *_TENSOR, _K)
    leaf(tensors, "inner", _cmd_tensor_inner, "inner product of --vec and --vec2",
         *_TENSOR, ("--vec2", _REQUIRED))
    leaf(sub, "criterion", _cmd_criterion, "Salas partial-product scan",
         ("--weights", _REQUIRED),
         ("--weights2", {"default": None}),
         _N,
         ("--threshold", {"type": float, "default": 100.0}))
    leaf(sub, "eigen", _cmd_eigen, "build a truncated tensor eigenvector",
         ("--lambda", {"dest": "lam", "required": True, "help": "re,im"}),
         ("--mu", {"required": True, "help": "re,im"}),
         _TAIL, parents=[pair])
    leaf(sub, "periodic", _cmd_periodic, "build a truncated q-periodic point",
         ("--q", {"type": int, "required": True}),
         _TAIL, parents=[pair])
    leaf(sub, "hypercyclic", _cmd_hypercyclic, "build a vector whose orbit visits targets",
         ("--targets", _REQUIRED),
         ("--eps", {"type": float, "default": 1e-6}),
         ("--op", {"default": None, "help": "operator JSON (default: bargmann p=0)"}))
    leaf(sub, "counterexample", _cmd_counterexample, "block-pattern tensor counterexample scans",
         _N,
         # block-pattern swings reach ~sqrt(N/2)*ln2; 30 nats is crossed by N=1e4
         ("--threshold", {"type": float, "default": 30.0}))
    leaf(sub, "density-probe", _cmd_density_probe, "periodic approximation of random targets",
         ("--op", {"default": None}),
         ("--count", {"type": int, "default": 5}),
         ("--seed", {"type": int, "default": 0}),
         ("--tail", {"type": float, "default": -40.0}))
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        try:
            args = build_parser().parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
        except SystemExit as exc:  # --help, --version, or a usage error already printed
            return exc.code if isinstance(exc.code, int) else _EXIT_VALIDATION
        args._t0 = time.monotonic()
        _emit(args, *args.func(args))
        return _EXIT_OK
    except ValidationError as exc:
        print(f"shiftdyn: invalid input: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except ShiftDynError as exc:
        print(f"shiftdyn: numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
