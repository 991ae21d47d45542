"""Output checks: each command's artifacts against bench/oracle.py.

`check(meta, pass_dir)` returns a list of problems, empty when every check
held.  A command with any problem counts as failed.  The references never
come from shiftdyn or from stored output: they are closed forms evaluated
by the oracle, and the tolerances are the oracle's rounding bounds for the
float evaluation the program documents, times a safety factor of 2.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import mpmath as mp
import numpy as np

from oracle import NEG_INF, U, AxisSeries, Family, log_abs_arg, wrap_diff

SAMPLES = 48  # eigen coefficients compared per vector, beside the corners
# Tag of the hypercyclic checks that fail on the known eps fault (README,
# third fault).  A command marked known_fault is let off these messages only.
EPS_MISS = "eps miss"


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _bound_count(problems: list, what: str, bad: np.ndarray) -> None:
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"{what}: {int(bad.sum())} entries out of bound, first at position {i}")


class _Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        if not abs(got - want) <= tol:
            self.append(f"{what}: got {got!r}, expected {want!r} within {tol:.3g}")


def check(meta: dict, pass_dir: Path) -> list[str]:
    out = pass_dir / meta["out"]
    problems = _Problems()
    manifest = out.with_name(out.name + ".manifest.json")
    try:
        result_text = out.read_text(encoding="utf-8")
        man = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{meta['out']}: unreadable artifact ({exc})"]
    problems.expect(isinstance(man.get("wall_time_s"), float), "manifest lacks its wall time")
    try:
        _CHECKS[meta["kind"]](meta, out, result_text, problems)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        problems.append(f"malformed artifact: {type(exc).__name__}: {exc}")
    return [f"{meta['out']}: {p}" for p in problems]


# --- tensor_eigen -------------------------------------------------------------

def _eigen_axes(p: int, lam_la: tuple, mu_la: tuple) -> tuple[AxisSeries, AxisSeries]:
    left = Family({"family": "theta_composite", "nu": math.pi, "alpha": 0.0, "p": p})
    right = Family({"family": "bargmann_composite", "p": p})
    return AxisSeries(left, *lam_la), AxisSeries(right, *mu_la)


def _check_rank_one(vec: dict, p: int, ax1: AxisSeries, ax2: AxisSeries, seed: str, problems: _Problems):
    """Full rectangle, sampled coefficients; returns (trunc_m, trunc_n, n_entries, max_err)."""
    entries = vec["entries"]
    problems.expect((vec["p1"], vec["p2"]) == (p, p), f"offsets {(vec['p1'], vec['p2'])} != {(p, p)}")
    tm = max(e[0] for e in entries)
    tn = max(e[1] for e in entries)
    keys = [(e[0], e[1]) for e in entries]
    problems.expect(
        len(entries) == (tm - p + 1) * (tn - p + 1) and len(set(keys)) == len(keys)
        and min(keys) == (p, p) and keys == sorted(keys),
        "vector is not the full truncation rectangle in index order",
    )
    picks = {0, len(entries) - 1, tn - p, len(entries) - 1 - (tn - p)}
    rng = random.Random(seed)
    picks.update(rng.randrange(len(entries)) for _ in range(SAMPLES))
    for idx in sorted(i for i in picks if 0 <= i < len(entries)):
        m, n, lm, ph = entries[idx]
        i, j = m - p, n - p
        want = float(ax1.term(i) + ax2.term(j))
        problems.close(f"logmag at ({m},{n})", lm, want, 2 * (ax1.err(i) + ax2.err(j)) + 4 * U * abs(want))
        gap = wrap_diff(ph, ax1.phase(i) + ax2.phase(j))
        if not gap <= 2 * (ax1.phase_err(i) + ax2.phase_err(j)):
            problems.append(f"phase at ({m},{n}) off by {gap:.3g}")
    return tm, tn, len(entries), ax1.err(tm - p) + ax2.err(tn - p)


def _norm_tol(n_entries: int, max_err: float, value: float) -> float:
    """Rounding of a log-norm summed over n entries whose logs err by max_err."""
    return 2 * (4 * n_entries * U + 2 * max_err + 4 * U * abs(value))


def _series(out: Path, k_max: int, problems: _Problems) -> list[float]:
    header, rows = _read_csv(out.with_name(out.name + ".series.csv"))
    problems.expect(header == ["k", "log_norm"], f"series header {header}")
    ks = [int(r[0]) for r in rows]
    problems.expect(ks == list(range(k_max + 1)), "series k is not 0, 1, ..., k_max")
    return [float(r[1]) for r in rows]


def _check_eigen(meta, out, text, problems):
    r = json.loads(text)
    p, tail = meta["p"], meta["tail"]
    lam, mu = complex(*meta["lam"]), complex(*meta["mu"])
    with mp.workdps(AxisSeries.DPS):
        lam_la, mu_la = log_abs_arg(lam), log_abs_arg(mu)
    ax1, ax2 = _eigen_axes(p, lam_la, mu_la)
    spec = r["eigen_spec"]
    problems.expect(spec["lambda"] == list(meta["lam"]) and spec["mu"] == list(meta["mu"]), "eigenvalues not echoed")
    problems.expect(r["tail_tol_log"] == tail, "tail not echoed")
    tm, tn, n_entries, max_err = _check_rank_one(r["vector"], p, ax1, ax2, meta["out"], problems)
    problems.expect((spec["trunc_m"], spec["trunc_n"]) == (tm, tn), "truncation does not match the vector")

    with mp.workdps(AxisSeries.DPS):
        h1, h2 = ax1.head_sq(tm - p), ax2.head_sq(tn - p)
        f1, f2 = ax1.full_sq(), ax2.full_sq()
        omitted = f1 * f2 - h1 * h2
        band = h1 * h2 - ax1.head_sq(tm - p - 1) * ax2.head_sq(tn - p - 1)
        gnorm = float(mp.log(f1 * f2) / 2)
        lm_abs = float(lam_la[0] + mu_la[0])
        residual = lm_abs + float(mp.log(band) / 2)
        omitted_log = float(mp.log(omitted) / 2) if omitted > 0 else NEG_INF
        band_rel = float(band / (h1 * h2))

    g_tol = _norm_tol(n_entries, max_err, gnorm) + float(omitted / (h1 * h2))
    problems.close("gnorm_log vs the mpmath-summed infinite norm", r["gnorm_log"], gnorm, g_tol)
    bound = spec["tail_log_bound"]
    slack = 1e-12 * (1.0 + abs(tail))
    problems.expect(bound <= tail - max(0.0, lm_abs) + slack,
                    f"tail_log_bound {bound} above tail - max(0, log|lambda mu|)")
    problems.expect(omitted_log <= bound + slack, f"omitted norm e^{omitted_log:.4f} above the certified e^{bound:.4f}")
    problems.close("residual_log", float(r["residual_log"]), residual, _norm_tol(n_entries, max_err, residual))
    problems.expect(float(r["residual_rel_log"]) <= tail + slack, f"residual_rel_log {r['residual_rel_log']} > {tail}")
    problems.close("residual_rel_log", float(r["residual_rel_log"]), residual - gnorm,
                   _norm_tol(n_entries, max_err, residual) + g_tol)

    ln = _series(out, 8, problems)
    step_err = ax1.fam.eval_err(tm) + ax2.fam.eval_err(tn)
    tol = 2 * _norm_tol(n_entries, max_err + step_err, abs(ln[0]) + abs(ln[1]) + abs(lm_abs)) + band_rel
    problems.close("series ln[1] - ln[0] vs log|lambda mu|", ln[1] - ln[0], lm_abs, tol)


def _check_periodic(meta, out, text, problems):
    r = json.loads(text)
    p, q, tail = meta["p"], meta["q"], meta["tail"]
    with mp.workdps(AxisSeries.DPS):
        la = (mp.mpf(0), mp.pi / q)
    ax1, ax2 = _eigen_axes(p, la, la)
    problems.expect(r["q"] == q and r["tail_tol_log"] == tail, "q or tail not echoed")
    tm, tn, n_entries, max_err = _check_rank_one(r["vector"], p, ax1, ax2, meta["out"], problems)
    problems.expect(min(tm, tn) - p >= q + 2, "truncation narrower than the certified width-q band")

    with mp.workdps(AxisSeries.DPS):
        h1, h2 = ax1.head_sq(tm - p), ax2.head_sq(tn - p)
        f1, f2 = ax1.full_sq(), ax2.full_sq()
        omitted = f1 * f2 - h1 * h2
        band_q = h1 * h2 - ax1.head_sq(tm - p - q) * ax2.head_sq(tn - p - q)
        gnorm = float(mp.log(f1 * f2) / 2)
        res_q = float(mp.log(band_q) / 2)
        omitted_log = float(mp.log(omitted) / 2) if omitted > 0 else NEG_INF
        band_rel = float(band_q / (h1 * h2))

    slack = 1e-12 * (1.0 + abs(tail))
    g_tol = _norm_tol(n_entries, max_err, gnorm) + float(omitted / (h1 * h2))
    problems.close("gnorm_log vs the mpmath-summed infinite norm", r["gnorm_log"], gnorm, g_tol)
    problems.expect(omitted_log <= tail + slack, f"omitted norm e^{omitted_log:.4f} above e^{tail}")
    rq = float(r["residual_q_rel_log"])
    problems.expect(rq <= tail + slack, f"residual_q_rel_log {rq} > {tail}")
    problems.close("residual_q_rel_log", rq, res_q - gnorm, _norm_tol(n_entries, max_err, res_q) + g_tol)

    # T g - g = (e^{2 pi i/q} - 1) g up to the certified band
    step_err = ax1.fam.eval_err(tm) + ax2.fam.eval_err(tn) + 4 * U * (abs(float(ax1.term(tm - p))) + 1.0)
    r1 = float(r["residual_1_rel_log"])
    if q > 1:
        sin_q = 2.0 * math.sin(math.pi / q)
        tol = 2 * _norm_tol(n_entries, max_err + step_err, gnorm) / sin_q + g_tol + band_rel
        problems.close("residual_1_rel_log vs log(2 sin(pi/q))", r1, math.log(sin_q), tol)
    else:
        problems.expect(r1 == rq, "q = 1: residual_1_rel_log differs from residual_q_rel_log")

    ln = _series(out, 2 * q, problems)
    tol = 2 * (q + 1) * _norm_tol(n_entries, max_err + step_err, abs(ln[0]) + abs(ln[q])) + band_rel
    problems.close(f"series ln[{q}] vs ln[0]", ln[q], ln[0], tol)


# --- scan_series --------------------------------------------------------------

def _verdict(vals: np.ndarray, threshold: float, tol: float) -> tuple[str, float | None] | None:
    """The running-max rule documented in criteria.py, on reference partials.

    None when the reference sits within rounding of one of the rule's
    comparisons, where either verdict is right.
    """
    running = np.maximum.accumulate(vals)
    sup, n = float(running[-1]), len(vals)
    qi = max((3 * n) // 4 - 1, 0)
    rise = float(running[-1] - running[qi])
    if (0 < abs(rise) <= tol) or abs(sup - threshold) <= tol:
        return None
    increased = n >= 2 and rise > 0
    if sup > threshold and increased:
        return "diverges_to_infinity", None
    if not increased:
        return "bounded_above_by", sup
    return "inconclusive", None


def _check_report(rep: dict, fams: list[Family], n: int, threshold: float, what: str, problems: _Problems):
    vals = np.zeros(n)
    err = np.zeros(n)
    for fam in fams:
        v, e = fam.partials(n)
        vals, err = vals + v, err + e
    got = np.asarray(rep["partial_log_products"], dtype=np.float64)
    problems.expect(len(got) == n, f"{what}: {len(got)} partials, expected {n}")
    if len(got) != n:
        return
    _bound_count(problems, f"{what}: partials vs closed form", ~(np.abs(got - vals) <= 2 * err))
    problems.expect(rep["horizon_n"] == n and rep["threshold"] == threshold, f"{what}: horizon or threshold not echoed")
    problems.expect(rep["scan_start"] == min(f.scan_start for f in fams), f"{what}: scan_start {rep['scan_start']}")
    tol = 2 * float(err.max())
    problems.close(f"{what}: sup_attained", rep["sup_attained"], float(vals.max()), tol)
    want = _verdict(vals, threshold, tol)
    if want is not None:
        problems.expect(rep["verdict"] == want[0], f"{what}: verdict {rep['verdict']}, expected {want[0]}")
        if want[1] is not None and rep["verdict"] == want[0]:
            problems.close(f"{what}: bound", rep["bound"], want[1], tol)


def _check_criterion(meta, out, text, problems):
    fams = [Family(s) for s in meta["weights"]]
    rep = json.loads(text)
    _check_report(rep, fams, meta["n"], meta["threshold"], "report", problems)
    if all(f.family == "block_pattern" for f in fams) and len(fams) == 2:
        problems.expect(all(v == 0.0 for v in rep["partial_log_products"]), "block-pattern product partials not exactly 0")


def _check_counterexample(meta, out, text, problems):
    r = json.loads(text)
    n, threshold = meta["n"], meta["threshold"]
    omega = Family({"family": "block_pattern", "role": "omega"})
    varpi = Family({"family": "block_pattern", "role": "varpi"})
    _check_report(r["omega"], [omega], n, threshold, "omega", problems)
    _check_report(r["varpi"], [varpi], n, threshold, "varpi", problems)
    _check_report(r["product"], [omega, varpi], n, threshold, "product", problems)
    problems.expect(r["omega"]["verdict"] == "diverges_to_infinity", "omega does not diverge")
    problems.expect(r["varpi"]["verdict"] == "diverges_to_infinity", "varpi does not diverge")
    problems.expect(r["product"]["verdict"] == "bounded_above_by" and r["product"]["bound"] == 0.0,
                    "product is not bounded above by exactly 0")
    problems.expect(all(v == 0.0 for v in r["product"]["partial_log_products"]), "product partials not exactly 0")

    header, rows = _read_csv(out.with_name(out.name + ".series.csv"))
    problems.expect(header == ["i", "omega_partial", "varpi_partial", "product_partial"], f"series header {header}")
    idx = np.array([int(row[0]) for row in rows])
    problems.expect(len(idx) == n and bool(np.all(np.diff(idx) > 0)) and idx[0] == 1, "series i is not 1, 2, ..., N")
    cols = np.array([[float(v) for v in row[1:]] for row in rows])
    for col, key in enumerate(("omega", "varpi", "product")):
        same = np.array_equal(cols[:, col], np.asarray(r[key]["partial_log_products"]))
        problems.expect(same, f"series column {key} differs from the JSON partials")


def _check_weights(meta, out, text, problems):
    fam = Family(meta["spec"])
    lo, hi = meta["lo"], meta["hi"]
    if meta["format"] == "csv":
        header, rows = _read_csv(out)
        problems.expect(header == ["index", "logweight"], f"header {header}")
        pairs = [(int(a), float(b)) for a, b in rows]
    else:
        r = json.loads(text)
        problems.expect(r["family"] == fam.family, "family not echoed")
        pairs = [(int(a), float(b)) for a, b in r["rows"]]
    problems.expect([i for i, _ in pairs] == list(range(lo, hi)), "indices are not lo, lo+1, ..., hi-1")
    for i, v in pairs:
        want = fam.log_weight(i)
        if not abs(v - want) <= 2 * fam.eval_err(i) + 8 * U * abs(want):
            problems.append(f"log weight at {i}: got {v!r}, expected {want!r}")
            break


def _check_matrix(meta, out, text, problems):
    fam = Family(meta["op"]["weights"])
    direction, n, p = meta["op"]["direction"], meta["n"], fam.offset
    if meta["format"] == "csv":
        header, rows = _read_csv(out)
        problems.expect(header == ["row", "col", "logmag"], f"header {header}")
        triplets = [(int(a), int(b), float(c)) for a, b, c in rows]
    else:
        triplets = [(int(a), int(b), float(c)) for a, b, c in json.loads(text)["triplets"]]
    if direction == "backward":
        want = [(m - 1, m, m, 1.0) for m in range(p + 1, n + 1)]
    else:
        sign = -1.0 if direction == "right_inverse" else 1.0
        want = [(m + 1, m, m + 1, sign) for m in range(p, n)]
    problems.expect([t[:2] for t in triplets] == [w[:2] for w in want], "row/col pattern differs from the shift")
    for (row, col, v), (_, _, src, sign) in zip(triplets, want):
        w = sign * fam.log_weight(src)
        if not abs(v - w) <= 2 * fam.eval_err(src) + 8 * U * abs(w):
            problems.append(f"entry ({row},{col}): got {v!r}, expected {w!r}")
            break


# --- single_orbit -------------------------------------------------------------

def _power_entries(op: dict, vec: dict, k: int) -> dict[int, tuple[mp.mpf, float, float]]:
    """Exact action of the k-th power: index -> (logmag, phase, rounding bound)."""
    fam = Family(op["weights"])
    p = vec["p"]
    out = {}
    for m, lm, ph in vec["entries"]:
        if op["direction"] == "backward":
            if m - p < k:
                continue  # exact annihilation
            key, lo, hi, sign = m - k, m - k + 1, m, 1
        else:
            key, lo, hi = m + k, m + 1, m + k
            sign = -1 if op["direction"] == "right_inverse" else 1
        s = fam.span_mp(lo, hi)
        out[key] = (mp.mpf(lm) + sign * s, ph, fam.span_err(lo, hi) + 4 * U * (abs(lm) + abs(float(s))))
    return out


def _check_power(meta, out, text, problems):
    r = json.loads(text)
    vec = meta["vec"]
    problems.expect(r["p"] == vec["p"], "offset not echoed")
    want = _power_entries(meta["op"], vec, meta["k"])
    got = {e[0]: e for e in r["entries"]}
    problems.expect([e[0] for e in r["entries"]] == sorted(want), "index set differs from the shifted support")
    # a backward power keeps only sources with m - p >= k, so every index stays >= p
    problems.expect(all(key >= vec["p"] for key in got), "an entry below the offset survived")
    for key, (lm, ph, tol) in want.items():
        if key in got:
            problems.close(f"logmag at {key}", got[key][1], float(lm), 2 * tol)
            problems.expect(got[key][2] == ph, f"phase at {key} changed")


def _coeff_norm(vals: dict) -> mp.mpf:
    return mp.sqrt(mp.fsum(abs(v) ** 2 for v in vals.values()))


def _check_hypercyclic(meta, out, text, problems):
    r = json.loads(text)
    op, targets, eps = meta["op"], meta["targets"], meta["eps"]
    fam = Family(op["weights"])
    p = fam.offset
    sched = r["schedule"]
    problems.expect(r["eps"] == eps, "eps not echoed")
    problems.expect(len(sched) == len(targets), "one schedule time per target expected")
    problems.expect(sched[0] >= 1 and all(b > a for a, b in zip(sched, sched[1:])), "schedule not strictly increasing")
    for i in range(len(sched)):
        for j in range(i + 1, len(sched)):
            top = max(m for m, *_ in targets[i]["entries"]) - p
            problems.expect(sched[j] > sched[i] + top, f"n_{j} does not annihilate block {i}")
    replay = r["replay_error_logs"]
    problems.expect([n for n, _ in replay] == sched, "replay times differ from the schedule")
    psi = r["psi"]["entries"]
    problems.expect(r["psi"]["p"] == p, "psi offset")

    # Exact replay of the stored psi, which must be within eps.  The program's
    # own replay must agree with it up to rounding: each psi entry's
    # log-magnitude carries the program's rounding of the span it was pushed
    # up by, a span inside p+1..M, so span_err(p+1, M) bounds it.
    with mp.workdps(40):
        stored_err = {M: fam.span_err(p + 1, M) + 4 * U * (1.0 + abs(lm)) for M, lm, _ in psi}
        for (n, e_prog), y in zip(replay, targets):
            vals: dict[int, mp.mpc] = {}
            floor = mp.mpf(0)
            for M, lm, ph in psi:
                if M - p < n:
                    continue
                mag = mp.exp(mp.mpf(lm) + fam.span_mp(M - n + 1, M))
                vals[M - n] = vals.get(M - n, 0) + mag * mp.expj(ph)
                # the stored rounding, and the program's own replay rounding
                floor += mag * (stored_err[M] + fam.span_err(M - n + 1, M) + 4 * U * abs(lm))
            for m, lm, ph in y["entries"]:
                vals[m] = vals.get(m, 0) - mp.exp(lm) * mp.expj(ph)
            err = _coeff_norm(vals)
            floor = 2 * floor + 8 * U * len(psi) * err
            prog = mp.mpf(0) if e_prog == "-inf" else mp.exp(e_prog)
            problems.expect(err <= eps, f"{EPS_MISS}: replay at n={n}: |T^n psi - y| = {mp.nstr(err, 4)} above eps")
            problems.expect(prog <= eps, f"{EPS_MISS}: replay at n={n}: replay_error_logs reports {mp.nstr(prog, 4)} above eps")
            problems.expect(abs(err - prog) <= floor,
                            f"replay at n={n}: program reports {mp.nstr(prog, 4)}, exact {mp.nstr(err, 4)}")
    header, rows = _read_csv(out.with_name(out.name + ".series.csv"))
    problems.expect(header == ["k", "replay_error_log"], f"series header {header}")
    problems.expect([int(row[0]) for row in rows] == sched, "series k differs from the schedule")


def _density_err(fam: Family, y: dict, q: int, tail: float) -> list[tuple[float, float]]:
    """log ||sum_{r=1}^{R} S^{qr} y|| for the stopping points R the rule allows.

    The series stops at the first term whose norm is at or below e^tail; a
    term within rounding of e^tail may stop it either there or one later.
    """
    with mp.workdps(40):
        total = mp.mpf(0)
        out = []
        r = 1
        while True:
            sq, tol = mp.mpf(0), 0.0
            for m, lm, _ in y["entries"]:
                sq += mp.exp(2 * (mp.mpf(lm) - fam.span_mp(m + 1, m + q * r)))
                tol = max(tol, fam.span_err(m + 1, m + q * r) + 4 * U * abs(lm))
            total += sq
            term_log = float(mp.log(sq) / 2)
            tol = 2 * tol + 16 * U * r * len(y["entries"])
            if term_log <= tail + tol:
                out.append((float(mp.log(total) / 2), tol))
            if term_log <= tail - tol:
                return out
            r += 1
            if r > 10_000:
                raise ArithmeticError("density series did not reach the tail")


def _check_density(meta, out, text, problems):
    r = json.loads(text)
    fam = Family(meta["op"]["weights"])
    p, tail = fam.offset, meta["tail"]
    problems.expect(r["tail_tol_log"] == tail, "tail not echoed")
    problems.expect(len(r["samples"]) == meta["count"], "sample count")
    rows = []
    for s, sample in enumerate(r["samples"]):
        y = sample["target"]
        support = [m for m, *_ in y["entries"]]
        problems.expect(y["p"] == p and 1 <= len(support) <= 4 and all(p <= m < p + 8 for m in support),
                        f"sample {s}: target outside p..p+7 or of wrong size")
        q0 = max(support) - p + 1
        qs = [q for q, _ in sample["q_and_error_log"]]
        errs = [e for _, e in sample["q_and_error_log"]]
        problems.expect(qs == [q0, 2 * q0, 4 * q0], f"sample {s}: q values {qs}")
        problems.expect(all(b < a for a, b in zip(errs, errs[1:])), f"sample {s}: errors do not fall as q doubles")
        for q, e in zip(qs, errs):
            options = _density_err(fam, y, q, tail)
            if not any(abs(e - want) <= tol + 4 * U * abs(want) for want, tol in options):
                problems.append(f"sample {s}, q={q}: error log {e!r}, expected one of {[w for w, _ in options]}")
            rows.append((s, q, e))
    header, csv_rows = _read_csv(out.with_name(out.name + ".series.csv"))
    problems.expect(header == ["sample", "q", "approx_error_log"], f"series header {header}")
    problems.expect([(int(a), int(b), float(c)) for a, b, c in csv_rows] == rows, "series differs from the JSON")


_CHECKS = {
    "eigen": _check_eigen,
    "periodic": _check_periodic,
    "criterion": _check_criterion,
    "counterexample": _check_counterexample,
    "weights": _check_weights,
    "matrix": _check_matrix,
    "power": _check_power,
    "hypercyclic": _check_hypercyclic,
    "density": _check_density,
}
