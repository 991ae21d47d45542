"""Per-layer spans and counts around shiftdyn's public functions.

`Tracer.install()` wraps, from outside the package, every public function
and method defined in the layer modules, and rebinds each wrapped function
under every name that holds it in any shiftdyn module (`from .numerics
import lc_add` leaves a second binding in the importing module).  A span
opens when control enters a layer from another layer, or enters one of the
CLI's parse, serialize and write helpers; a layer's self time is its span
time minus the time of the spans opened inside it.  Calls within one layer
open no span, but every call is counted.

Tracing costs time per call, so end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "dynamics", "tensor_ops", "shift_ops", "basis", "criteria", "weights", "numerics")

# CLI helpers whose time is reported apart from the rest of the CLI layer
CLI_PARTS = {
    "build_parser": "parse",
    "parse_args": "parse",
    "_dump_json": "serialize",
    "_csv_text": "serialize",
    "_write_text": "write",
}

COUNTS = (
    "cli.bytes_written",
    "dynamics.eigen_entries",
    "dynamics.schedule_probes",
    "tensor_ops.entries_in",
    "shift_ops.span_terms",
    "basis.calls",
    "criteria.scan_terms",
    "weights.scalar_calls",
    "weights.bulk_indices",
    "numerics.lc_add_calls",
    "numerics.lc_mul_calls",
)


def _arg(fn, name: str):
    """Reads one argument of a call to fn, defaults applied."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer, part, child seconds, function name]
        self.self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.counts: Counter[str] = Counter()

    def _wrap(self, fn, layer: str, part: str, name: str, hook=None, on_enter=None):
        stack, self_s, perf = self.stack, self.self_s, time.perf_counter
        key = (layer, part)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer and parent[1] == part:
                result = fn(*args, **kwargs)
            else:
                if on_enter is not None:
                    on_enter(args, kwargs)
                frame = [layer, part, 0.0, name]
                stack.append(frame)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    self_s[key] += dt - frame[2]
                    if stack:
                        stack[-1][2] += dt
            if hook is not None:
                hook(args, kwargs, result, parent)
            return result

        return wrapper

    def _hooks(self, mods) -> tuple[dict, dict]:
        """Count hooks by (layer, name), and span-entry hooks by layer."""
        c = self.counts
        tensor_vector = mods["tensor_ops"].TensorVector

        def count(metric):
            def hook(args, kwargs, result, parent):
                c[metric] += 1
            return hook

        def bytes_written(args, kwargs, result, parent):
            path, text = args
            if not str(path).endswith(".manifest.json"):  # manifests carry a wall time
                c["cli.bytes_written"] += len(text.encode("utf-8"))

        power_v = _arg(mods["shift_ops"].apply_power, "v")
        power_k = _arg(mods["shift_ops"].apply_power, "k")

        def apply_power(args, kwargs, result, parent):
            c["shift_ops.span_terms"] += power_k(args, kwargs) * len(power_v(args, kwargs).entries)
            if parent is not None and parent[3] == "hypercyclic_vector_build":
                c["dynamics.schedule_probes"] += 1

        def horizon(fn):
            read = _arg(fn, "n_horizon")

            def hook(args, kwargs, result, parent):
                c["criteria.scan_terms"] += read(args, kwargs)
            return hook

        bulk = _arg(mods["weights"].WeightSequence.log_weights, "indices")

        def log_weights(args, kwargs, result, parent):
            c["weights.bulk_indices"] += len(bulk(args, kwargs))

        def eigen_entries(args, kwargs, result, parent):
            g = result[0] if isinstance(result, tuple) else result
            c["dynamics.eigen_entries"] += len(g.entries)

        def tensor_in(args, kwargs):
            c["tensor_ops.entries_in"] += sum(
                len(a.entries) for a in (*args, *kwargs.values()) if isinstance(a, tensor_vector)
            )

        def basis_in(args, kwargs):
            c["basis.calls"] += 1

        hooks = {
            ("cli", "_write_text"): bytes_written,
            ("numerics", "lc_add"): count("numerics.lc_add_calls"),
            ("numerics", "lc_mul"): count("numerics.lc_mul_calls"),
            ("weights", "log_weight"): count("weights.scalar_calls"),
            ("weights", "log_weights"): log_weights,
            ("shift_ops", "apply_power"): apply_power,
            ("criteria", "salas_scan"): horizon(mods["criteria"].salas_scan),
            ("criteria", "tensor_salas_scan"): horizon(mods["criteria"].tensor_salas_scan),
            ("dynamics", "eigenvector_build"): eigen_entries,
            ("dynamics", "periodic_point_from_eigen"): eigen_entries,
        }
        return hooks, {"tensor_ops": tensor_in, "basis": basis_in}

    def install(self) -> None:
        mods = {layer: sys.modules[f"shiftdyn.{layer}"] for layer in LAYERS}
        hooks, entries = self._hooks(mods)
        wrapped = {}
        for layer, mod in mods.items():
            on_enter = entries.get(layer)
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not name.startswith("_") or (layer == "cli" and name in CLI_PARTS)):
                    part = CLI_PARTS.get(name, "other") if layer == "cli" else "self"
                    wrapped[obj] = self._wrap(obj, layer, part, name, hooks.get((layer, name)), on_enter)
                elif inspect.isclass(obj) and not name.startswith("_"):
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        hook = hooks.get((layer, attr))
                        label = f"{name}.{attr}"
                        if isinstance(val, (classmethod, staticmethod)):
                            fn = self._wrap(val.__func__, layer, "self", label, hook, on_enter)
                            setattr(obj, attr, type(val)(fn))
                        elif inspect.isfunction(val):
                            setattr(obj, attr, self._wrap(val, layer, "self", label, hook, on_enter))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "shiftdyn" or mod_name.startswith("shiftdyn."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, name, wrapped[obj])
        parse_args = argparse.ArgumentParser.parse_args
        argparse.ArgumentParser.parse_args = self._wrap(parse_args, "cli", "parse", "parse_args")

    def report(self) -> dict:
        """Per-layer metrics: self seconds, and the counts named in COUNTS."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for (layer, _), seconds in self.self_s.items():
            out[f"{layer}.self_s"] += seconds
        for part in ("parse", "serialize", "write"):
            out[f"cli.{part}_s"] = self.self_s.get(("cli", part), 0.0)
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        return out
