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
import contextlib
import itertools
import json
import math
import os
import random
import re
import sys
import time
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__, bargmann_backward_shift, default_tensor_shift
from .basis import (
    CoeffVector,
    bargmann_basis_eval,
    coeff_inner,
    norm_log,
    theta_basis_eval,
)
from .criteria import salas_scan, tensor_salas_scan
from .dynamics import (
    EIGEN_SERIES_STEPS,
    eigenvector_build,
    hypercyclic_vector_build,
    periodic_from_target,
    periodic_point_from_eigen,
    rank_one_defect_log,
    rank_one_log_norms,
    rank_one_residual_log,
)
from .errors import OverflowNotRepresentable, ShiftDynError, ValidationError
from .numerics import LogComplex, int_parse, lc_to_json, wrap_phase
from .shift_ops import (
    Direction,
    ShiftOperator,
    apply_power,
    matrix_triplets,
    nilpotence_index,
    shift_operator_from_json,
)
from .weights import (
    BlockPatternWeights,
    ThetaParams,
    check_index_count,
    weight_sequence_from_json,
)

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_NUMERIC = 3


def _info_enabled() -> bool:
    """Whether SHIFTDYN_LOG_LEVEL asks for a stderr line per result written: info and debug do, error
    (the default) does not; any other value is a ValidationError."""
    level = os.environ.get("SHIFTDYN_LOG_LEVEL", "error").lower()
    if level not in ("error", "info", "debug"):
        raise ValidationError("SHIFTDYN_LOG_LEVEL must be one of ['debug', 'error', 'info']")
    return level != "error"


def _utc_now() -> str:
    """The current UTC time in ISO 8601, as `datetime.now(timezone.utc).isoformat()` writes it."""
    us = time.time_ns() // 1000
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(us // 1_000_000))
    return f"{stamp}.{us % 1_000_000:06d}+00:00" if us % 1_000_000 else f"{stamp}+00:00"


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


_ENCODE = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",", ":")).encode
_CHUNK = 8192  # CSV rows per join
_SAMPLE = 1024  # a longer float list with at most _SAMPLE // 2 distinct values here is written as _Reprs
_SLICE = 1 << 20  # characters per file write


class _Reprs:
    """A float column as its reprs, for a JSON list and the CSV cells alike: each distinct value
    formatted once (block-pattern partials repeat), each zero one of two shared strings (0.0 == -0.0).
    It is no list, so the C encoder refuses it rather than write its reprs as strings."""

    def __init__(self, values: list[float]):
        table = {v: repr(v) for v in set(values)}
        self.reprs = [table[v] if v else ("0.0", "-0.0")[math.copysign(1.0, v) < 0] for v in values]

    def __iter__(self):
        return iter(self.reprs)


def _json_pieces(obj, out: list) -> None:
    """Append the pieces of `_dump_json(obj)`: dicts are walked here, every other value goes to the
    C encoder whole, and a list holding a _Reprs or a non-finite float, which it refuses, goes per item.
    A float list of more than _SAMPLE items, at most _SAMPLE // 2 distinct among its first _SAMPLE,
    is written as a _Reprs."""
    if isinstance(obj, dict) and obj:
        sep = "{"
        for key, value in sorted(obj.items()):
            out.append(f"{sep}{encode_basestring_ascii(key)}:")
            _json_pieces(value, out)
            sep = ","
        out.append("}")
        return
    if (isinstance(obj, (list, tuple)) and len(obj) > _SAMPLE and set(map(type, obj)) == {float}
            and len(set(obj[:_SAMPLE])) <= _SAMPLE // 2):
        obj = _Reprs(obj)
    if isinstance(obj, _Reprs):
        text = ",".join(obj.reprs)
        if "n" not in text:  # inf and nan are the only float reprs with an "n"; they take the floats' rule
            out += ("[", text, "]")
            return
        obj = list(map(float, obj.reprs))
    try:
        out.append(_ENCODE(obj))
    except (TypeError, ValueError):  # a _Reprs or a non-finite float
        if isinstance(obj, float) and math.isinf(obj):
            out.append('"inf"' if obj > 0 else '"-inf"')
        elif isinstance(obj, (list, tuple)):
            sep = "["
            for item in obj:
                out.append(sep)
                _json_pieces(item, out)
                sep = ","
            out.append("]")
        else:  # NaN, or a value JSON cannot hold
            raise


def _dump_json(obj) -> str:
    """obj as `json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":"))` writes it,
    plus a newline, with each infinite float as the string "inf" or "-inf"; NaN raises ValueError."""
    out: list[str] = []
    _json_pieces(obj, out)
    out.append("\n")
    return "".join(out)


def _write_text(path: Path, text: str) -> None:
    """text to path in UTF-8, in slices of _SLICE characters, so no bytes copy of the whole is made;
    a path that cannot be written is a ValidationError naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(0, len(text), _SLICE):
                fh.write(text[k:k + _SLICE])
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _csv_text(header: list[str], rows) -> str:
    """Comma-separated lines, each row as wide as the header, joined _CHUNK rows at a time; cells are
    Python scalars, and format(cell, "") is str(cell), which is repr for a float."""
    line = ",".join(["{}"] * len(header)).format
    rows = iter(rows)
    pieces = [",".join(header)]
    while chunk := list(itertools.islice(rows, _CHUNK)):
        pieces.append("\n".join(itertools.starmap(line, chunk)))
    pieces.append("")
    return "\n".join(pieces)


def _manifest(args) -> dict:
    config = {  # an option the command does not read may be NaN, which JSON cannot hold: "nan"
        k: ("nan" if isinstance(v, float) and math.isnan(v) else v)
        for k, v in sorted(vars(args).items())
        if k != "command" and not k.startswith("_") and not callable(v)
    }
    return {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", 0),
        "version": __version__,
        "timestamp_utc": _utc_now(),
        "wall_time_s": time.monotonic() - args._t0,
    }


def _emit(args, result: dict | str, series: tuple[list[str], Iterable] | None) -> None:
    """Write the result (and optional series CSV) plus the run manifest.

    A dict is written as JSON; a str (a CSV table) is written as given.  When
    a file cannot be written, those already written are removed, so a failed
    command leaves no output behind.
    """
    text = result if isinstance(result, str) else _dump_json(result)
    if args.out is None:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    written: list[Path] = []
    try:
        _write_text(out, text)
        written.append(out)
        del text  # not held while the series CSV is formed, which lowers the peak memory
        if series is not None:
            header, rows = series
            path = out.with_suffix(out.suffix + ".series.csv")
            _write_text(path, _csv_text(header, rows))
            written.append(path)
        _write_text(out.with_suffix(out.suffix + ".manifest.json"), _dump_json(_manifest(args)))
    except BaseException:  # a later file cannot be written: remove those already written, so none is left
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    if args._info:
        print(f"INFO wrote {out}", file=sys.stderr)


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


def _rank_one_json(a: CoeffVector, b: CoeffVector) -> dict:
    """The dense rectangle g = a (x) b of a builder's two factors (each holds its axis's offset), as
    its `CoeffVector.to_json_dict()` reads, formed row by row: entry (m, n) is
    [m, n, la + lb, wrap_phase(pa + pb)], `lc_mul`'s sums.

    Float addition is monotone, so the extreme sums bound every other: a log-magnitude outside the
    float range is found from them, and raises `OverflowNotRepresentable` naming its (m, n).
    """
    rows_a, rows_b = ([(key[0], c.logmag, c.phase) for key, c in sorted(v.entries.items())] for v in (a, b))
    for pick in (max, min):
        (m, la, _), (n, lb, _) = (pick(rows, key=lambda row: row[1]) for rows in (rows_a, rows_b))
        if not -math.inf < la + lb < math.inf:
            raise OverflowNotRepresentable(f"the coefficient at {(m, n)} has log-magnitude {la + lb}: not a float")
    entries = [[m, n, la + lb, wrap_phase(pa + pb)] for m, la, pa in rows_a for n, lb, pb in rows_b]
    return {"p1": a.offsets[0], "p2": b.offsets[0], "entries": entries}


def _orbit_result(args, a, b, log_norms: list[float], result: dict):
    """result with the vector g = a (x) b and the tail target, and g's orbit log-norms as the series."""
    result.update(tail_tol_log=args.tail, vector=_rank_one_json(a, b))
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
    log_norms = rank_one_log_norms(a, b, lam, mu, EIGEN_SERIES_STEPS)
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
    log_norms = rank_one_log_norms(a, b, spec.lam, spec.mu, 2 * args.q)
    gnorm = log_norms[0]
    res_q = rank_one_residual_log(a, b, spec.lam, spec.mu, q=args.q)
    res_1 = rank_one_defect_log(a, b, spec.lam, spec.mu, 1) if args.q > 1 else res_q
    result = {
        "q": args.q,
        "gnorm_log": gnorm,
        "residual_q_rel_log": res_q - gnorm,
        "residual_1_rel_log": res_1 - gnorm,
    }
    return _orbit_result(args, a, b, log_norms, result)


def _cmd_hypercyclic(args):
    op = _operator(args.op, bargmann_backward_shift)
    targets = _read(args.targets, lambda obj: [CoeffVector.from_json_dict(v) for v in obj["targets"]])
    psi, schedule, errors = hypercyclic_vector_build(op, targets, args.eps)
    replay = list(zip(schedule, errors))
    result = {"eps": args.eps, "schedule": schedule, "replay_error_logs": replay, "psi": psi.to_json_dict()}
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
            x = periodic_from_target(op, y, q, args.tail).entries
            # x is y and its pushed terms on disjoint keys, so x - y is x without y's keys
            err = norm_log(x[key].logmag for key in sorted(x.keys() - y.entries.keys()))
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
_OUT = ("--out", {"default": None, "help": "output path (stdout if omitted)"})
_OP = ("--op", {"required": True, "help": "operator JSON, one axis or two"})
_BARGMANN_OP = ("--op", {"default": None, "help": "operator JSON, one axis or two (default: bargmann p=0)"})
_VEC = ("--vec", _REQUIRED)
_K = ("-k", {"type": int, "required": True})
_N = ("-N", {"dest": "n", "type": int, "default": 10_000})
_FORMAT = ("--format", {"choices": ("csv", "json"), "default": "csv"})
_NU = ("--nu", {"type": float, "default": math.pi})
_ALPHA = ("--alpha", {"type": float, "default": 0.0})
_TAIL = ("--tail", {"type": float, "default": -60.0})
_PAIR = (("--op", {"default": None,  # the operator of eigen and periodic
                   "help": "backward tensor operator JSON (default: theta(--nu, --alpha, --p) (x) bargmann(--p))"}),
         _NU, _ALPHA, ("--p", {"type": int, "default": 0}))
_GROUPS = {"basis": ("basis_action", "basis function evaluation"),  # the command groups, as name: (dest, help)
           "op": ("action", "operator actions, one axis or two")}

# the leaf commands, as (group or None, name, handler, help, options), in the order of the help
_LEAVES = (
    (None, "weights", _cmd_weights, "evaluate a weight sequence over an index range",
     (_OUT, ("--spec", _REQUIRED), ("--range", {"required": True, "help": "lo:hi (hi exclusive)"}), _FORMAT)),
    ("basis", "eval", _cmd_basis_eval, "evaluate one basis function at z",
     (_OUT, ("--basis", {"choices": ("theta", "bargmann"), "required": True}), _NU, _ALPHA,
      ("-m", {"type": int, "required": True}), ("-z", {"required": True, "help": "re,im"}))),
    ("op", "apply", _cmd_power, "apply the operator once", (_OUT, _OP, _VEC)),
    ("op", "power", _cmd_power, "apply the operator k times", (_OUT, _OP, _VEC, _K)),
    ("op", "matrix", _cmd_op_matrix, "the truncated matrix as (row, col, logmag) triplets",
     (_OUT, _OP, ("-N", {"dest": "n", "type": int, "required": True}), _FORMAT)),
    (None, "inner", _cmd_inner, "inner product of --vec and --vec2, one axis or two",
     (_OUT, _VEC, ("--vec2", _REQUIRED))),
    (None, "criterion", _cmd_criterion, "Salas partial-product scan",
     (_OUT, ("--weights", _REQUIRED), ("--weights2", {"default": None}), _N,
      ("--threshold", {"type": float, "default": 100.0}))),
    (None, "eigen", _cmd_eigen, "build a truncated tensor eigenvector",
     (*_PAIR, _OUT, ("--lambda", {"dest": "lam", "required": True, "help": "re,im"}),
      ("--mu", {"required": True, "help": "re,im"}), _TAIL)),
    (None, "periodic", _cmd_periodic, "build a truncated q-periodic point",
     (*_PAIR, _OUT, ("--q", {"type": int, "required": True}), _TAIL)),
    (None, "hypercyclic", _cmd_hypercyclic, "build a vector whose orbit visits targets",
     (_OUT, ("--targets", _REQUIRED), ("--eps", {"type": float, "default": 1e-6}), _BARGMANN_OP)),
    # block-pattern swings reach ~sqrt(N/2)*ln2; 30 nats is crossed by N=1e4
    (None, "counterexample", _cmd_counterexample, "block-pattern tensor counterexample scans",
     (_OUT, _N, ("--threshold", {"type": float, "default": 30.0}))),
    (None, "density-probe", _cmd_density_probe, "periodic approximation of random targets",
     (_OUT, _BARGMANN_OP, ("--count", {"type": int, "default": 5}), ("--seed", {"type": int, "default": 0}),
      ("--tail", {"type": float, "default": -40.0}))),
)


def _subcommands(parser, dest: str, names: Iterable[str], every: bool):
    """parser's required subcommand slot, whose usage lists every name even where not every one gets a parser."""
    metavar = None if every else "{" + ",".join(dict.fromkeys(names)) + "}"
    return parser.add_subparsers(dest=dest, required=True, metavar=metavar)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv, built only along the path its words (`eigen`, `op power`) name.

    The words are the tokens before the first that starts with "-", at most two.  Where they name
    no leaf, every leaf below the deepest group they name is built: the `op` group for `op bogus`,
    the whole tree for `bogus`, `--help` or no argv.  Help, usage and errors read as the whole tree's.
    """
    words = tuple(itertools.takewhile(lambda tok: not tok.startswith("-"), argv))
    named = [leaf for leaf in _LEAVES if leaf[:2] == words[:2] or (leaf[0] is None and leaf[1:2] == words[:1])]
    leaves = named or [leaf for leaf in _LEAVES if (leaf[0],) == words[:1]] or _LEAVES
    parser = argparse.ArgumentParser(
        prog="shiftdyn", description="Weighted backward shifts, tensor products, and chaos diagnostics.")
    parser.add_argument("--version", action="version", version=f"shiftdyn {__version__}")
    top = _subcommands(parser, "command", [group or name for group, name, *_ in _LEAVES], leaves is _LEAVES)
    subs = {None: top}
    for group, name, func, help, options in leaves:
        if group not in subs:
            dest, group_help = _GROUPS[group]
            names = [n for g, n, *_ in _LEAVES if g == group]
            subs[group] = _subcommands(top.add_parser(group, help=group_help), dest, names, not named)
        p = subs[group].add_parser(name, help=help)
        for *flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        info = _info_enabled()
        try:
            argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
            args = build_parser(argv).parse_args(argv)
        except SystemExit as exc:  # --help, --version, or a usage error already printed
            return exc.code if isinstance(exc.code, int) else _EXIT_VALIDATION
        args._t0, args._info = time.monotonic(), info
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
