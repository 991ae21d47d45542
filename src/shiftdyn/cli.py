"""Command-line front end.

Every command echoes its configuration into a manifest JSON written
alongside the result artifact (<out>.manifest.json); the manifest carries
the seed, package version, timestamp and wall time.  Result files are
byte-reproducible for a fixed config and seed; only the manifest's
timestamp/wall-time fields vary between runs.

Each leaf command has one handler, which returns its result (a dict for
JSON, a str for CSV) and an optional series table.  Every input file is
read by `_read`, so a missing or malformed file is a validation error.

Every operator is named by `--op` (one axis or two) and read by `_operator`.
`op` requires it; `eigen`/`periodic` default to theta(--nu, --alpha, --p) (x)
bargmann(--p), and `hypercyclic`/`density-probe` to bargmann(0).

Exit codes: 0 success, 2 validation/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import math
import os
import random
import re
import sys
import time
from collections.abc import Iterable
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__, bargmann_backward_shift, default_tensor_shift
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
from .numerics import LogComplex, int_parse, lc_to_json
from .shift_ops import (
    Direction,
    ShiftOperator,
    apply_power,
    matrix_triplets,
    nilpotence_index,
    shift_operator_from_json,
)
from .tensor_ops import tensor_of
from .weights import (
    BlockPatternWeights,
    ThetaParams,
    check_index_count,
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


_IND = "  "  # the indent=2 step
_SCALARS = frozenset({str, int, float, bool, type(None)})
_NUMBERS = _SCALARS - {str}  # no bracket in their text
_ROWS = frozenset({list, tuple})


@functools.cache
def _encoder(level: int):
    """The C encoder with `indent=2`'s item separator at indent level `level`, as a function."""
    return json.JSONEncoder(separators=(",\n" + _IND * level, ": "), allow_nan=False).encode


def _flat(items, depth: int) -> str | None:
    """A list of scalars, or of non-empty rows of numbers, in one encoder call.

    Rows are encoded at the cells' indent; one `replace` then breaks the row
    boundaries `],<indent>[`, which no number contains.  None where an item is
    another container, or a float is not finite, so the caller goes per item.
    """
    kinds = set(map(type, items))
    i0, i1, i2 = (_IND * (depth + k) for k in range(3))
    try:
        if kinds <= _SCALARS:
            text = _encoder(depth + 1)(items)
            return f"[\n{i1}{text[1:-1]}\n{i0}]"
        if kinds <= _ROWS and all(items) and set(map(type, itertools.chain.from_iterable(items))) <= _NUMBERS:
            text = _encoder(depth + 2)(items).replace(f"],\n{i2}[", f"\n{i1}],\n{i1}[\n{i2}")
            return f"[\n{i1}[\n{i2}{text[2:-2]}\n{i1}]\n{i0}]"
    except ValueError:  # a non-finite float
        pass
    return None


class _Reprs(tuple):
    """A float column as its reprs, for a JSON list and the CSV cells alike: each distinct value
    formatted once (block-pattern partials repeat), each zero by itself (0.0 == -0.0)."""

    def __new__(cls, values: list[float]):
        table = {v: repr(v) for v in set(values)}
        return super().__new__(cls, [table[v] if v else repr(v) for v in values])


def _json_pieces(obj, depth: int, out: list) -> None:
    """Append the pieces of obj as `json.dumps(indent=2, sort_keys=True)` writes it at depth."""
    if isinstance(obj, _Reprs) and obj:
        text = (",\n" + _IND * (depth + 1)).join(obj)
        if "n" in text:  # inf and nan are the only float reprs with an "n"; they take the floats' rule
            _json_pieces(list(map(float, obj)), depth, out)
        else:
            out.append(f"[\n{_IND * (depth + 1)}{text}\n{_IND * depth}]")
    elif isinstance(obj, dict) and obj:
        ind = "\n" + _IND * (depth + 1)
        sep = "{" + ind
        for key, value in sorted(obj.items()):
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _json_pieces(value, depth + 1, out)
            sep = "," + ind
        out.append("\n" + _IND * depth + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        text = _flat(obj, depth)
        if text is not None:
            out.append(text)
            return
        ind = "\n" + _IND * (depth + 1)
        sep = "[" + ind
        for item in obj:
            out.append(sep)
            _json_pieces(item, depth + 1, out)
            sep = "," + ind
        out.append("\n" + _IND * depth + "]")
    elif isinstance(obj, float) and math.isinf(obj):
        out.append('"inf"' if obj > 0 else '"-inf"')
    else:  # a scalar or an empty container
        out.append(_encoder(0)(obj))


def _dump_json(obj) -> str:
    """obj as `json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)` writes it, plus a newline.

    Dict keys are str.  An infinite float is written as the string "inf" or
    "-inf"; NaN raises ValueError.  Lists of scalars and of numeric rows go
    through the C encoder in one call each (`_flat`), byte for byte the same.
    """
    out: list[str] = []
    _json_pieces(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _csv_text(header: list[str], rows) -> str:
    """Comma-separated lines; cells are Python scalars, and str(float) is repr(float)."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    lines.append("")
    return "\n".join(lines)


def _manifest(args) -> dict:
    config = {  # an option the command does not read may be NaN, which JSON cannot hold: "nan"
        k: (str(v) if isinstance(v, Path) or (isinstance(v, float) and math.isnan(v)) else v)
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


def _emit(args, result: dict | str, series: tuple[list[str], Iterable] | None) -> None:
    """Write the result (and optional series CSV) plus the run manifest.

    A dict is written as JSON; a str (a CSV table) is written as given.
    """
    text = result if isinstance(result, str) else _dump_json(result)
    if args.out is None:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    _write_text(out, text)
    del text  # not held while the series CSV is formed, which lowers the peak memory
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
    int_parse(lo, "range start")
    int_parse(hi, "range end")
    if hi <= lo:
        raise ValidationError(f"empty range {text!r}")
    return lo, hi


def _operator(path: str | None, default=None) -> ShiftOperator:
    """The operator JSON at path, of one axis or two, or default() when no path is given."""
    if path:
        return _read(path, shift_operator_from_json)
    return default()


def _pair_operator(args) -> ShiftOperator:
    """The backward tensor operator of `eigen` and `periodic`: --op, or the default pair."""
    op = _operator(args.op, lambda: default_tensor_shift(args.p, args.nu, args.alpha))
    if len(op.weights) != 2 or op.direction is not Direction.BACKWARD:
        raise ValidationError(
            f"--op {args.op}: needs two axes and the backward direction;"
            f" it has {len(op.weights)} and {op.direction.value}"
        )
    return op


def _targets(payload) -> list[CoeffVector]:
    """Hypercyclic targets: {"targets": [vector, ...]} or the bare list."""
    vectors = payload["targets"] if isinstance(payload, dict) else payload
    return [CoeffVector.from_json_dict(v) for v in vectors]


def _orbit_result(args, a, b, log_norms: list[float], result: dict):
    """result with the vector g = a (x) b and the tail target, and g's orbit log-norms as the series."""
    result.update(tail_tol_log=args.tail, vector=tensor_of(a, b).to_json_dict())
    return result, (["k", "log_norm"], list(enumerate(log_norms)))


def _cmd_weights(args):
    w = _read(args.spec, weight_sequence_from_json)
    lo, hi = _parse_range(args.range)
    check_index_count(hi - lo, "--range")
    rows = zip(range(lo, hi), w.log_weights(range(lo, hi)).tolist())
    if args.format == "csv":
        return _csv_text(["index", "logweight"], rows), None
    return {"family": w.family, "rows": list(rows)}, None


def _cmd_basis_eval(args):
    z = _parse_complex(args.z)
    if args.basis == "bargmann":
        return lc_to_json(bargmann_basis_eval(args.m, z)), None
    return lc_to_json(theta_basis_eval(args.m, z, ThetaParams(nu=args.nu, alpha=args.alpha))), None


def _cmd_power(args):
    """`op apply` (k = 1) and `op power`."""
    op = _operator(args.op)
    v = _read(args.vec, CoeffVector.from_json_dict)
    return apply_power(op, v, getattr(args, "k", 1)).to_json_dict(), None


def _cmd_op_matrix(args):
    triplets = matrix_triplets(_operator(args.op), int_parse(args.n, "-N"))
    if args.format == "csv":
        return _csv_text(["row", "col", "logmag"], triplets), None
    return {"triplets": triplets}, None


def _cmd_inner(args):
    """<vec, vec2>, for vectors of one axis or two; their offsets must match."""
    u, v = (_read(path, CoeffVector.from_json_dict) for path in (args.vec, args.vec2))
    return lc_to_json(coeff_inner(u, v)), None


def _cmd_criterion(args):
    w1 = _read(args.weights, weight_sequence_from_json)
    if args.weights2:
        w2 = _read(args.weights2, weight_sequence_from_json)
        report = tensor_salas_scan(w1, w2, args.n, args.threshold)
    else:
        report = salas_scan(w1, args.n, args.threshold)
    return report.to_json_dict(include_series=True), None


def _cmd_eigen(args):
    op = _pair_operator(args)
    lam = _parse_complex(args.lam)
    mu = _parse_complex(args.mu)
    a, b, spec = eigenvector_build(op, lam, mu, args.tail)
    log_norms = rank_one_log_norms(op, a, b, EIGEN_SERIES_STEPS)
    residual = rank_one_residual_log(a, b, lam, mu, q=1)
    result = {
        "eigen_spec": spec.to_json_dict(),
        "gnorm_log": log_norms[0],
        "residual_log": residual,
        "residual_rel_log": residual - log_norms[0],
    }
    return _orbit_result(args, a, b, log_norms, result)


def _cmd_periodic(args):
    op = _pair_operator(args)
    a, b, spec = periodic_point_from_eigen(op, args.q, args.tail)
    log_norms = rank_one_log_norms(op, a, b, 2 * args.q)
    gnorm = log_norms[0]
    res_q = rank_one_residual_log(a, b, spec.lam, spec.mu, q=args.q)
    res_1 = periodic_residual_numeric_log(op, a, b, 1) if args.q > 1 else res_q
    result = {
        "q": args.q,
        "gnorm_log": gnorm,
        "residual_q_rel_log": res_q - gnorm,
        "residual_1_rel_log": res_1 - gnorm,
    }
    return _orbit_result(args, a, b, log_norms, result)


def _cmd_hypercyclic(args):
    op = _operator(args.op, bargmann_backward_shift)
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
    reports = {
        "omega": salas_scan(omega, args.n, args.threshold),
        "varpi": salas_scan(varpi, args.n, args.threshold),
        "product": tensor_salas_scan(omega, varpi, args.n, args.threshold),
    }
    m = min(args.n, 100_000)  # keep huge-horizon artifacts bounded
    columns = {k: _Reprs(r.partial_log_products[:m].tolist()) for k, r in reports.items()}
    result = {k: r.to_json_dict(include_series=False) for k, r in reports.items()}
    if args.n <= m:
        for k, column in columns.items():
            result[k]["partial_log_products"] = column
    rows = zip(range(1, m + 1), *columns.values())
    return result, (["i", "omega_partial", "varpi_partial", "product_partial"], rows)


def _cmd_density_probe(args):
    if not 1 <= args.count <= 10_000:  # time and artifact size grow with the count
        raise ValidationError(f"--count must be >= 1 and at most 10000, got {args.count}")
    op = _operator(args.op, bargmann_backward_shift)
    rng = random.Random(args.seed)
    samples = []
    rows = []
    for s in range(args.count):
        supports = [sorted(rng.sample(range(p, p + 8), rng.randint(1, 4))) for p in op.offsets]
        entries = {
            key: LogComplex(rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))
            for key in itertools.product(*supports)
        }
        y = CoeffVector(op.offsets, entries)
        q0 = nilpotence_index(op, y)
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
_OP = ("--op", {"required": True, "help": "operator JSON, one axis or two"})
_BARGMANN_OP = ("--op", {"default": None, "help": "operator JSON, one axis or two (default: bargmann p=0)"})
_VEC = ("--vec", _REQUIRED)
_K = ("-k", {"type": int, "required": True})
_N = ("-N", {"dest": "n", "type": int, "default": 10_000})
_FORMAT = ("--format", {"choices": ("csv", "json"), "default": "csv"})
_NU = ("--nu", {"type": float, "default": math.pi})
_ALPHA = ("--alpha", {"type": float, "default": 0.0})
_TAIL = ("--tail", {"type": float, "default": -60.0})


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
    pair.add_argument("--op", default=None,
                      help="backward tensor operator JSON (default: theta(--nu, --alpha, --p) (x) bargmann(--p))")
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
    ops = group("op", "action", "operator actions, one axis or two")
    leaf(ops, "apply", _cmd_power, "apply the operator once", _OP, _VEC)
    leaf(ops, "power", _cmd_power, "apply the operator k times", _OP, _VEC, _K)
    leaf(ops, "matrix", _cmd_op_matrix, "the truncated matrix as (row, col, logmag) triplets",
         _OP,
         ("-N", {"dest": "n", "type": int, "required": True}),
         _FORMAT)
    leaf(sub, "inner", _cmd_inner, "inner product of --vec and --vec2, one axis or two",
         _VEC, ("--vec2", _REQUIRED))
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
         _BARGMANN_OP)
    leaf(sub, "counterexample", _cmd_counterexample, "block-pattern tensor counterexample scans",
         _N,
         # block-pattern swings reach ~sqrt(N/2)*ln2; 30 nats is crossed by N=1e4
         ("--threshold", {"type": float, "default": 30.0}))
    leaf(sub, "density-probe", _cmd_density_probe, "periodic approximation of random targets",
         _BARGMANN_OP,
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
