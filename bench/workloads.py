"""The three workloads: seeded inputs and a fixed command list each.

A workload is built from its seed alone.  The seed draws values (phases of
eigenvalues, target coefficients, weight parameters that leave the cost
unchanged); the quantities that set a command's cost (magnitudes |lambda|
and |mu|, orders p, tails, horizons, target supports, powers k) are fixed
per workload, so runs at different seeds measure the same amount of work
and their spread is run-to-run noise.  Drawing target supports from the
seed moved the hypercyclic work by +-15% between seeds; with fixed supports
it moves by about 1%.

Every command writes through --out under out/ and reads its inputs from
in/, both relative to the pass directory.  `check` holds what the output
checks need to know about the command, beside its argv.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("tensor_eigen", "scan_series", "single_orbit")

# (|lambda|, |mu|, p, tail, negative real part of lambda, of mu)
EIGEN_PAIRS = [
    (0.01, 4.0, 0, -60.0, False, False),  # asymmetric: tiny theta axis, long bargmann axis
    (4.5, 0.02, 1, -40.0, True, False),  # asymmetric the other way
    (2.0, 1.0, 0, -60.0, True, False),
    (0.5, 0.3, 1, -60.0, False, True),
    (3.0, 2.5, 2, -40.0, True, True),
    (1.0, 2.0, 1, -60.0, False, False),
    (0.05, 0.1, 0, -40.0, False, True),
    (5.0, 1.5, 2, -60.0, True, False),
]
# (q, p, tail)
PERIODIC = [(2, 0, -60.0), (3, 1, -40.0), (5, 2, -60.0), (8, 0, -40.0), (12, 1, -60.0), (16, 2, -40.0)]


def _polar(rng: random.Random, r: float, negative_real: bool) -> tuple[float, float]:
    """A complex number of modulus r with a seeded phase, as (re, im)."""
    if negative_real:
        phi = rng.uniform(math.pi / 2 + 0.15, math.pi - 0.05) * rng.choice((-1.0, 1.0))
    else:
        phi = rng.uniform(-math.pi / 2 + 0.15, math.pi / 2 - 0.15)
    return r * math.cos(phi), r * math.sin(phi)


def _complex_arg(z: tuple[float, float]) -> str:
    # written as --lambda=re,im: argparse reads "-2,0.5" after a space as an option
    return f"{z[0]!r},{z[1]!r}"


def tensor_eigen(rng: random.Random) -> tuple[dict, list]:
    commands = []
    for i, (rl, rm, p, tail, neg_l, neg_m) in enumerate(EIGEN_PAIRS):
        lam = _polar(rng, rl, neg_l)
        mu = _polar(rng, rm, neg_m)
        out = f"out/eigen{i}.json"
        commands.append({
            "argv": ["eigen", f"--lambda={_complex_arg(lam)}", f"--mu={_complex_arg(mu)}",
                     f"--tail={tail!r}", "--p", str(p), "--out", out],
            "check": {"kind": "eigen", "out": out, "lam": lam, "mu": mu, "p": p, "tail": tail},
        })
    for q, p, tail in PERIODIC:
        out = f"out/periodic_q{q}.json"
        commands.append({
            "argv": ["periodic", "--q", str(q), "--p", str(p), f"--tail={tail!r}", "--out", out],
            "check": {"kind": "periodic", "out": out, "q": q, "p": p, "tail": tail},
        })
    return {}, commands


def _theta_spec(rng: random.Random, p: int) -> dict:
    # alpha >= 0 keeps every composite theta weight positive
    return {"family": "theta_composite", "nu": rng.uniform(2.5, 4.5), "alpha": rng.uniform(0.0, 0.5), "p": p}


def scan_series(rng: random.Random) -> tuple[dict, list]:
    specs = {
        "in/theta_p1.json": _theta_spec(rng, 1),
        "in/theta_p4.json": _theta_spec(rng, 4),
        "in/theta_p10.json": _theta_spec(rng, 10),
        "in/bargmann_p0.json": {"family": "bargmann_composite", "p": 0},
        "in/bargmann_p2.json": {"family": "bargmann_composite", "p": 2},
        "in/omega.json": {"family": "block_pattern", "role": "omega"},
        "in/varpi.json": {"family": "block_pattern", "role": "varpi"},
        "in/theta_raw.json": {"family": "theta_raw", "nu": rng.uniform(2.5, 4.5), "alpha": rng.uniform(0.0, 0.5)},
    }
    inputs = dict(specs)
    commands = []
    # (weights, weights2, N, threshold range): thresholds stay clear of the
    # block patterns' sup (~155 at N=1e5) so the verdict is never a near tie
    scans = [
        ("in/theta_p1.json", None, 100_000, (50.0, 200.0)),
        ("in/theta_p4.json", None, 75_000, (50.0, 200.0)),
        ("in/theta_p10.json", None, 50_000, (50.0, 200.0)),
        ("in/bargmann_p0.json", None, 50_000, (50.0, 200.0)),
        ("in/bargmann_p2.json", None, 100_000, (50.0, 200.0)),
        ("in/omega.json", None, 100_000, (20.0, 60.0)),
        ("in/varpi.json", None, 60_000, (20.0, 60.0)),
        ("in/theta_p4.json", "in/bargmann_p2.json", 50_000, (50.0, 200.0)),
        ("in/omega.json", "in/varpi.json", 100_000, (20.0, 60.0)),
    ]
    for i, (w1, w2, n, (lo, hi)) in enumerate(scans):
        threshold = round(rng.uniform(lo, hi), 3)
        out = f"out/criterion{i}.json"
        argv = ["criterion", "--weights", w1]
        if w2:
            argv += ["--weights2", w2]
        argv += ["-N", str(n), "--threshold", repr(threshold), "--out", out]
        commands.append({
            "argv": argv,
            "check": {"kind": "criterion", "out": out, "weights": [specs[w1]] + ([specs[w2]] if w2 else []),
                      "n": n, "threshold": threshold},
        })
    commands.append({
        "argv": ["counterexample", "-N", "100000", "--out", "out/counterexample.json"],
        "check": {"kind": "counterexample", "out": "out/counterexample.json", "n": 100_000, "threshold": 30.0},
    })
    lo = rng.randint(4, 1000)
    commands.append({
        "argv": ["weights", "--spec", "in/bargmann_p2.json", "--range", f"{lo}:{lo + 20_000}",
                 "--out", "out/weights_bargmann.csv"],
        "check": {"kind": "weights", "out": "out/weights_bargmann.csv", "spec": specs["in/bargmann_p2.json"],
                  "lo": lo, "hi": lo + 20_000, "format": "csv"},
    })
    lo = rng.randint(0, 500)
    commands.append({
        "argv": ["weights", "--spec", "in/theta_raw.json", "--range", f"{lo}:{lo + 5_000}",
                 "--format", "json", "--out", "out/weights_theta.json"],
        "check": {"kind": "weights", "out": "out/weights_theta.json", "spec": specs["in/theta_raw.json"],
                  "lo": lo, "hi": lo + 5_000, "format": "json"},
    })
    matrices = [
        ("backward", specs["in/theta_p4.json"], 20_000, "csv"),
        ("adjoint_forward", specs["in/bargmann_p2.json"], 10_000, "csv"),
        ("right_inverse", specs["in/theta_p1.json"], 5_000, "json"),
    ]
    for i, (direction, spec, n, fmt) in enumerate(matrices):
        path = f"in/matrix_op{i}.json"
        inputs[path] = {"direction": direction, "weights": spec}
        out = f"out/matrix{i}.{fmt}"
        commands.append({
            "argv": ["op", "matrix", "--op", path, "-N", str(n), "--format", fmt, "--out", out],
            "check": {"kind": "matrix", "out": out, "op": inputs[path], "n": n, "format": fmt},
        })
    return inputs, commands


def _fixed_supports(salt: int, count: int, p: int) -> list[list[int]]:
    """Target supports inside p..p+7: fixed per command, not drawn from the seed."""
    r = random.Random(salt)
    return [sorted(r.sample(range(p, p + 8), r.randint(1, 4))) for _ in range(count)]


def _vector(rng: random.Random, p: int, support: list[int]) -> dict:
    # phases inside (-pi, pi) survive the CLI's phase wrap bit for bit
    return {"p": p, "entries": [[m, rng.uniform(-1.0, 1.0), rng.uniform(-3.14, 3.14)] for m in support]}


def single_orbit(rng: random.Random) -> tuple[dict, list]:
    ops = {
        "in/bargmann_p0.json": {"direction": "backward", "weights": {"family": "bargmann_composite", "p": 0}},
        "in/bargmann_p1.json": {"direction": "backward", "weights": {"family": "bargmann_composite", "p": 1}},
        "in/theta_p0.json": {"direction": "backward",
                             "weights": {"family": "theta_composite", "nu": 2.0, "alpha": 0.0, "p": 0}},
        "in/theta_p1.json": {"direction": "backward",
                             "weights": {"family": "theta_composite", "nu": math.pi, "alpha": 0.0, "p": 1}},
        "in/bargmann_p1_ri.json": {"direction": "right_inverse",
                                   "weights": {"family": "bargmann_composite", "p": 1}},
        "in/theta_p0_ri.json": {"direction": "right_inverse",
                                "weights": {"family": "theta_composite", "nu": 2.0, "alpha": 0.0, "p": 0}},
        "in/bargmann_p2_adj.json": {"direction": "adjoint_forward",
                                    "weights": {"family": "bargmann_composite", "p": 2}},
    }
    inputs = dict(ops)
    commands = []
    # (operator file or None for the CLI default bargmann p=0, targets, eps,
    # known fault).  At eps 1e-12 the stored psi misses eps (README, third
    # fault): over theta p=1 by the program's own replay, over bargmann p=0 in
    # the exact replay only, and on some seeds only.  Those two builds run on
    # targets that do not depend on the seed, on which they fail in every
    # run; the seeded bargmann build runs at 1e-9, where it holds.
    runs = [
        (None, 12, 1e-6, False),
        (None, 16, 1e-9, False),
        (None, 24, 1e-6, False),
        ("in/theta_p1.json", 20, 1e-12, True),
        ("in/theta_p0.json", 14, 1e-6, False),
        (None, 16, 1e-12, True),
    ]
    for i, (op_path, count, eps, fault) in enumerate(runs):
        op = ops[op_path or "in/bargmann_p0.json"]
        p = op["weights"]["p"]
        values = random.Random(f"fixed targets {i}") if fault else rng
        targets = [_vector(values, p, s) for s in _fixed_supports(100 + i, count, p)]
        path = f"in/targets{i}.json"
        inputs[path] = {"targets": targets}
        out = f"out/hypercyclic{i}.json"
        argv = ["hypercyclic", "--targets", path, "--eps", repr(eps), "--out", out]
        if op_path:
            argv += ["--op", op_path]
        check = {"kind": "hypercyclic", "out": out, "op": op, "targets": targets, "eps": eps}
        if fault:
            check["known_fault"] = True
        commands.append({"argv": argv, "check": check})
    for i, (op_path, count) in enumerate([(None, 6), ("in/theta_p1.json", 4)]):
        probe_seed = rng.randint(0, 2**31 - 1)
        out = f"out/density{i}.json"
        argv = ["density-probe", "--count", str(count), "--seed", str(probe_seed), "--out", out]
        if op_path:
            argv += ["--op", op_path]
        commands.append({"argv": argv, "check": {"kind": "density", "out": out, "count": count,
                                                  "op": ops[op_path or "in/bargmann_p0.json"], "tail": -40.0}})
    # narrow supports for the right inverse, wide ones so that backward powers
    # up to k=5000 keep some entries and annihilate others
    narrow = sorted(random.Random(7).sample(range(1, 60), 30))
    wide = sorted(random.Random(8).sample(range(1, 6000), 30))
    vectors = {
        "in/vec_narrow_p1.json": _vector(rng, 1, narrow),
        "in/vec_wide_p1.json": _vector(rng, 1, wide),
        "in/vec_narrow_p0.json": _vector(rng, 0, [m - 1 for m in narrow]),
        "in/vec_p2.json": _vector(rng, 2, [m + 1 for m in narrow]),
    }
    inputs.update(vectors)
    actions = [
        ("power", "in/bargmann_p1_ri.json", "in/vec_narrow_p1.json", 10),
        ("power", "in/bargmann_p1_ri.json", "in/vec_narrow_p1.json", 1000),
        ("power", "in/theta_p0_ri.json", "in/vec_narrow_p0.json", 100),
        ("power", "in/theta_p0_ri.json", "in/vec_narrow_p0.json", 5000),
        ("power", "in/bargmann_p1.json", "in/vec_wide_p1.json", 10),
        ("power", "in/bargmann_p1.json", "in/vec_wide_p1.json", 100),
        ("power", "in/bargmann_p1.json", "in/vec_wide_p1.json", 1000),
        ("power", "in/bargmann_p1.json", "in/vec_wide_p1.json", 5000),
        ("apply", "in/theta_p1.json", "in/vec_narrow_p1.json", 1),
        ("apply", "in/bargmann_p2_adj.json", "in/vec_p2.json", 1),
    ]
    for i, (action, op_path, vec_path, k) in enumerate(actions):
        out = f"out/{action}{i}.json"
        argv = ["op", action, "--op", op_path, "--vec", vec_path, "--out", out]
        if action == "power":
            argv[-2:-2] = ["-k", str(k)]
        commands.append({"argv": argv, "check": {"kind": "power", "out": out, "op": ops[op_path],
                                                  "vec": vectors[vec_path], "k": k}})
    return inputs, commands


def build(name: str, seed: int) -> tuple[dict, list]:
    """(input files by relative path, command list) for a workload and seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return globals()[name](rng)
