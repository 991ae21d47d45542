"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every test also enforces its runtime budget.
"""

import cmath
import json
import math
import random
import time

import numpy as np

from shiftdyn import (
    BargmannRawWeights,
    BlockPatternWeights,
    CoeffVector,
    ThetaParams,
    Verdict,
    apply_power,
    bargmann_backward_shift,
    coeff_norm_log,
    coeff_sub,
    default_tensor_shift,
    eigenvector_build,
    hypercyclic_vector_build,
    lc_add,
    lc_from_complex,
    lc_mul,
    lc_neg,
    periodic_point_from_eigen,
    periodic_residual_numeric_log,
    right_inverse,
    salas_scan,
    tensor_of,
    tensor_operator,
    tensor_salas_scan,
    theta_backward_shift,
    theta_basis_eval,
)
from shiftdyn.cli import main
from shiftdyn.numerics import LogComplex

from conftest import adjoint_pairing_gap_log, band_residual_log, orbit, rand_coeff_vector, rand_tensor_vector

LN2 = math.log(2.0)


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, f"runtime {self.elapsed:.2f}s over {self.limit}s"
        return False


def report(n: int, text: str, budget: Budget) -> None:
    print(f"ACCEPTANCE {n:2d} PASS ({budget.elapsed:6.3f}s): {text}")


def single_ops():
    return [theta_backward_shift(math.pi, 0.0, p) for p in (0, 1, 2)] + [
        bargmann_backward_shift(p) for p in (0, 1, 2)
    ]


def test_criterion_01_right_inverse_identity():
    rng = random.Random(1001)
    with Budget(1.0) as budget:
        for op in single_ops():
            s = right_inverse(op)
            for _ in range(100):
                v = rand_coeff_vector(rng, op.offsets[0], 20, 200)
                back = apply_power(op, apply_power(s, v, 1), 1)
                assert back.support() == v.support()
                for m in v.support():
                    assert back.entries[m].phase == v.entries[m].phase
                    assert abs(back.entries[m].logmag - v.entries[m].logmag) <= 1e-11
        for p1 in (0, 1, 2):
            for p2 in (0, 1, 2):
                op = tensor_operator(
                    theta_backward_shift(math.pi, 0.0, p1), bargmann_backward_shift(p2)
                )
                s = right_inverse(op)
                for _ in range(100):
                    w = rand_tensor_vector(rng, op.offsets, 20, 200)
                    back = apply_power(op, apply_power(s, w, 1), 1)
                    assert back.support() == w.support()
                    for key in w.support():
                        assert back.entries[key].phase == w.entries[key].phase
                        assert abs(back.entries[key].logmag - w.entries[key].logmag) <= 1e-11
    report(1, "T(S v) = v with exact log-weight cancellation, all families", budget)


def test_criterion_02_nilpotence():
    with Budget(1.0) as budget:
        for op in single_ops():
            p = op.offsets[0]
            for m in range(p, 51):
                f = CoeffVector.unit((m,), (p,))
                assert apply_power(op, f, m - p + 1).is_zero
                if m - p >= 1:
                    assert not apply_power(op, f, m - p).is_zero
        op = default_tensor_shift()
        for m in range(0, 51):
            for n in range(0, 51):
                f = CoeffVector.unit((m, n), (0, 0))
                bound = min(m, n)
                assert apply_power(op, f, bound + 1).is_zero
                if bound >= 1:
                    assert not apply_power(op, f, bound).is_zero
    report(2, "T^k e_m = 0 exactly iff k > m - p, factors and tensor", budget)


def test_criterion_03_right_inverse_decay():
    with Budget(1.0) as budget:
        op = theta_backward_shift(math.pi, 0.0, 1)
        s = right_inverse(op)
        f = CoeffVector.unit((1,), (1,))
        prev = 0.0
        crossed = None
        for k in range(1, 41):
            cur = coeff_norm_log(apply_power(s, f, k))
            assert cur < prev
            if crossed is None and cur < -100.0:
                crossed = k
            prev = cur
        assert crossed is not None and crossed <= 40
        # tensor log-norms are exactly the sum of the factor log-norms
        pair = tensor_operator(op, bargmann_backward_shift(1))
        s2 = right_inverse(pair)
        sf1, sf2 = map(right_inverse, pair.factors)
        for k in range(1, 21):
            tnorm = coeff_norm_log(apply_power(s2, CoeffVector.unit((1, 1), (1, 1)), k))
            n1 = coeff_norm_log(apply_power(sf1, CoeffVector.unit((1,), (1,)), k))
            n2 = coeff_norm_log(apply_power(sf2, CoeffVector.unit((1,), (1,)), k))
            assert tnorm == n1 + n2
    report(3, "log||S^k e_1|| strictly down, < -100 by k <= 40; tensor additivity exact", budget)


def test_criterion_04_eigen_relation():
    rng = random.Random(1004)
    with Budget(5.0) as budget:
        op = default_tensor_shift()
        for _ in range(20):
            lam = cmath.rect(rng.uniform(0.05, math.sqrt(2.0)), rng.uniform(-math.pi, math.pi))
            mu = cmath.rect(rng.uniform(0.05, math.sqrt(2.0)), rng.uniform(-math.pi, math.pi))
            assert abs(lam * mu) <= 2.0
            a, b, spec = eigenvector_build(op, lam, mu, -60.0)
            g = tensor_of(a, b)
            assert spec.tail_log_bound <= -60.0
            rel = band_residual_log(g, lam, mu) - coeff_norm_log(g)
            assert rel <= -55.0
    report(4, "eigen residual ||Tg - lm*g||/||g|| below e^-55 at tail -60, 20 draws", budget)


def test_criterion_05_periodicity_order_four():
    with Budget(5.0) as budget:
        op = default_tensor_shift()
        a, b, _ = periodic_point_from_eigen(op, 4, -60.0)
        g = tensor_of(a, b)
        gnorm = coeff_norm_log(g)
        lam = cmath.exp(1j * math.pi / 4)
        assert band_residual_log(g, lam, lam, q=4) - gnorm <= -55.0
        assert periodic_residual_numeric_log(op, a, b, 1) - gnorm >= -5.0
    report(5, "T^4 g = g below e^-55 while T g != g (period exactly 4)", budget)


def test_criterion_06_block_counterexample():
    with Budget(2.0) as budget:
        omega = BlockPatternWeights(role="omega")
        varpi = BlockPatternWeights(role="varpi")
        n = 1_000_000
        threshold = 100.0 * LN2
        r_omega = salas_scan(omega, n, threshold)
        r_varpi = salas_scan(varpi, n, threshold)
        assert r_omega.verdict is Verdict.DIVERGES_TO_INFINITY
        assert r_varpi.verdict is Verdict.DIVERGES_TO_INFINITY
        assert r_omega.sup_attained > threshold
        assert r_varpi.sup_attained > threshold
        r_prod = tensor_salas_scan(omega, varpi, n, threshold)
        assert np.all(r_prod.partial_log_products == 0.0)
        assert r_prod.verdict is Verdict.BOUNDED_ABOVE_BY
        assert r_prod.bound == 0.0
    report(6, "factor scans diverge past 100 ln2 within 1e6; product partials exactly 0", budget)


def test_criterion_07_salas_closed_form():
    with Budget(0.1) as budget:
        r = salas_scan(BargmannRawWeights(), 1000, threshold=100.0)
        for n in range(1, 1001):
            expected = 0.5 * math.lgamma(n + 2)
            got = float(r.partial_log_products[n - 1])
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
    report(7, "partial log-products match 0.5*logGamma(n+2) to 1e-9, n <= 1000", budget)


def test_criterion_08_hypercyclic_replay():
    rng = random.Random(1008)
    with Budget(5.0) as budget:
        op = bargmann_backward_shift(0)
        for _ in range(5):
            targets = [rand_coeff_vector(rng, 0, 4, 6) for _ in range(3)]
            psi, schedule = hypercyclic_vector_build(op, targets, 1e-6)
            steps = orbit(op, psi, max(schedule))
            for n_j, y in zip(schedule, targets):
                err = coeff_norm_log(coeff_sub(steps[n_j], y))
                assert err <= math.log(1e-6)
    report(8, "orbit of built psi hits every target within 1e-6 at scheduled times", budget)


def test_criterion_09_basis_functional_equation():
    with Budget(1.0) as budget:
        tol = math.log(1e-10)
        for nu in (1.0, math.pi):
            for alpha in (0.0, 0.3):
                params = ThetaParams(nu=nu, alpha=alpha)
                twist = lc_from_complex(
                    complex(math.cos(2 * math.pi * alpha), math.sin(2 * math.pi * alpha))
                )
                for m in range(6):
                    for x in np.linspace(-1, 1, 5):
                        for y in np.linspace(-1, 1, 5):
                            z = complex(x, y)
                            lhs = theta_basis_eval(m, z + 1, params)
                            factor = lc_mul(twist, LogComplex(nu * (x + 0.5), nu * y))
                            rhs = lc_mul(factor, theta_basis_eval(m, z, params))
                            gap = lc_add(lhs, lc_neg(rhs)).logmag - lhs.logmag
                            assert gap <= tol
    report(9, "theta basis quasi-periodicity psi(z+1) holds to 1e-10 on the grid", budget)


def test_criterion_10_adjoint_pairing():
    rng = random.Random(1010)
    with Budget(1.0) as budget:
        op = default_tensor_shift()
        left, right = op.weights
        max_w = left.log_weight(41) + right.log_weight(41)
        for _ in range(100):
            w1 = rand_tensor_vector(rng, (0, 0), 10, 40)
            w2 = rand_tensor_vector(rng, (0, 0), 10, 40)
            gap = adjoint_pairing_gap_log(op, w1, w2)
            bound = math.log(1e-11) + coeff_norm_log(w1) + coeff_norm_log(w2) + max_w
            assert gap <= bound
    report(10, "<T w1, w2> = <w1, T* w2> to 1e-11 relative on 100 random tensors", budget)


def _strip_volatile(manifest: dict) -> dict:
    return {k: v for k, v in manifest.items() if k not in ("timestamp_utc", "wall_time_s")}


def test_criterion_11_reproducibility(tmp_path):
    def wjson(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj), encoding="utf-8")
        return str(p)

    barg_op = {"direction": "backward", "weights": {"family": "bargmann_composite", "p": 0}}
    theta_op = {"direction": "backward", "weights": {"family": "theta_composite", "nu": math.pi, "alpha": 0.0, "p": 0}}
    barg = wjson("barg.json", barg_op)
    pair = wjson("pair.json", {"left": theta_op, "right": barg_op})
    wspec = wjson("w.json", {"family": "bargmann_raw"})
    vec = wjson("v.json", {"p": 0, "entries": [[3, 0.0, 0.0], [5, -0.25, 1.0]]})
    tvec = wjson("tv.json", {"p1": 0, "p2": 0, "entries": [[2, 3, 0.0, 0.5]]})
    targets = wjson(
        "targets.json",
        {"targets": [{"p": 0, "entries": [[0, 0.0, 0.0]]}, {"p": 0, "entries": [[1, 0.0, 0.0]]}]},
    )

    out = tmp_path / "out"
    commands = {
        "weights": ["weights", "--spec", wspec, "--range", "0:30", "--out", str(out / "weights.csv")],
        "weights-json": ["weights", "--spec", wspec, "--range", "0:30", "--format", "json",
                         "--out", str(out / "weights.json")],
        "basis": ["basis", "eval", "--basis", "theta", "--nu", str(math.pi), "--alpha", "0.1",
                  "-m", "2", "-z", "0.3,-0.2", "--out", str(out / "basis.json")],
        "op-apply": ["op", "apply", "--op", barg, "--vec", vec, "--out", str(out / "op_apply.json")],
        "op-power": ["op", "power", "--op", barg, "--vec", vec, "-k", "2", "--out", str(out / "op_power.json")],
        "op-matrix": ["op", "matrix", "--op", barg, "-N", "8", "--out", str(out / "op_matrix.csv")],
        "tensor-apply": ["op", "apply", "--op", pair, "--vec", tvec, "--out", str(out / "tensor_apply.json")],
        "tensor-power": ["op", "power", "--op", pair, "--vec", tvec, "-k", "2",
                         "--out", str(out / "tensor_power.json")],
        "tensor-inner": ["inner", "--vec", tvec, "--vec2", tvec, "--out", str(out / "tensor_inner.json")],
        "criterion": ["criterion", "--weights", wspec, "-N", "2000", "--threshold", "100",
                      "--out", str(out / "criterion.json")],
        "eigen": ["eigen", "--lambda", "0.5,0.1", "--mu", "0.4,-0.3", "--tail", "-60",
                  "--out", str(out / "eigen.json")],
        "periodic": ["periodic", "--q", "4", "--tail", "-60", "--out", str(out / "periodic.json")],
        "hypercyclic": ["hypercyclic", "--targets", targets, "--eps", "1e-6",
                        "--out", str(out / "hyper.json")],
        "counterexample": ["counterexample", "-N", "10000", "--out", str(out / "counter.json")],
        "density-probe": ["density-probe", "--count", "3", "--seed", "0", "--tail", "-40",
                          "--out", str(out / "probe.json")],
    }

    with Budget(30.0) as budget:
        for name, argv in commands.items():
            assert main(argv) == 0, name
            first = {}
            for artifact in sorted(out.glob("*")):
                first[artifact.name] = artifact.read_bytes()
            assert main(argv) == 0, name
            for artifact in sorted(out.glob("*")):
                second = artifact.read_bytes()
                if artifact.name.endswith(".manifest.json"):
                    m1 = _strip_volatile(json.loads(first[artifact.name]))
                    m2 = _strip_volatile(json.loads(second))
                    assert m1 == m2, f"{name}: manifest config drifted"
                else:
                    assert second == first[artifact.name], f"{name}: {artifact.name} not reproducible"
            for artifact in out.glob("*"):
                artifact.unlink()
    report(11, "every CLI command is byte-reproducible (manifest timestamp excluded)", budget)
