"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Everything is seeded, so results are reproducible run to run.
"""

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor

from absmc import corpus, lang
from absmc.cli import main as cli_main
from absmc.concrete import ChoiceSource, NondetSpec, oracle_estimate, run_concrete
from absmc.estimator import derive_seed, hoeffding_margin, plan_trials, run
from absmc.interp import analyze_trial
from absmc.intervals import Interval, filter_env, AbstractEnv
from absmc.lang import Kind

FIG = {name: str(corpus.path(name)) for name in corpus.NAMES}


def _report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _cli_json(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code}"
    return json.loads(out)


def test_criterion_1_fig1_exact_and_analyze(capsys):
    oracle = _cli_json(capsys, "oracle", FIG["fig1"], "--mode", "exact", "--format", "json")
    started = time.perf_counter()
    report = _cli_json(
        capsys,
        "analyze",
        FIG["fig1"],
        "--trials",
        "10000",
        "--epsilon",
        "0.01",
        "--seed",
        "42",
        "--jobs",
        "2",
        "--format",
        "json",
    )
    elapsed = time.perf_counter() - started
    ok = (
        oracle["estimate"] == 0.5
        and 0.480 <= report["p_hat"] <= 0.520
        and abs((report["p_prime"] - report["p_hat"]) - 0.01518) <= 0.0001
        and elapsed <= 10.0
    )
    _report(
        1,
        ok,
        f"fig1 exact={oracle['estimate']} p_hat={report['p_hat']:.4f}"
        f" p_prime={report['p_prime']:.4f} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_fig2_oracle_and_analyze(capsys):
    oracle = _cli_json(
        capsys,
        "oracle",
        FIG["fig2"],
        "--mode",
        "sampled",
        "--n",
        "1000000",
        "--grid",
        "64",
        "--seed",
        "2",
        "--format",
        "json",
    )
    report = _cli_json(
        capsys,
        "analyze",
        FIG["fig2"],
        "--trials",
        "10000",
        "--epsilon",
        "0.01",
        "--seed",
        "2",
        "--jobs",
        "2",
        "--format",
        "json",
    )
    ok = abs(oracle["estimate"] - 0.8333) <= 0.004 and 0.830 <= report["p_prime"] <= 0.866
    _report(
        2,
        ok,
        f"fig2 oracle={oracle['estimate']:.4f} p_prime={report['p_prime']:.4f}",
    )


def test_criterion_3_fig3_full_unroll(figs):
    report = run(figs["fig3"], 10_000, 0.01, master_seed=3, jobs=2)
    no_widening = not any("widening" in w for w in report.warnings)
    ok = no_widening and 0.830 <= report.p_prime <= 0.875
    _report(
        3,
        ok,
        f"fig3 warnings={report.warnings} p_prime={report.p_prime:.4f}",
    )


def test_criterion_4_fig4_oracle_brackets_analyzer(figs):
    v = oracle_estimate(figs["fig4"], mode="sampled", n=1_000_000, grid=64, seed=4).estimate
    report = run(figs["fig4"], 10_000, 0.01, master_seed=4, jobs=2)
    ok = report.p_hat >= v - 0.02 and report.p_prime <= v + 0.05
    _report(
        4,
        ok,
        f"fig4 oracle={v:.4f} p_hat={report.p_hat:.4f} p_prime={report.p_prime:.4f}",
    )


def test_criterion_5_bound_formula():
    b = 0.833 + hoeffding_margin(10_000, 0.01)
    n = plan_trials(0.01, 0.01)
    ok = abs(b - 0.8482) <= 0.0002 and n == 23_026
    _report(5, ok, f"0.833+margin(1e4,0.01)={b:.5f} plan_trials(0.01,0.01)={n}")


def test_criterion_6_soundness_suite(figs):
    masters = {"fig1": 61, "fig2": 62, "fig3": 63, "fig4": 64}
    violations = 0
    replays = 0
    for name, p in figs.items():
        grids = NondetSpec.from_program(p).grid_points(p)
        for s in range(100):
            trial = analyze_trial(p, derive_seed(masters[name], s))
            for r in range(100):
                rng = random.Random(derive_seed(masters[name] * 1000 + s, r))
                init = {v: rng.choice(pts) for v, pts in grids.items()}
                concrete = run_concrete(p, init, ChoiceSource(trial.table, rng))
                replays += 1
                if concrete == 1 and trial.hit == 0:
                    violations += 1
    _report(6, violations == 0, f"{replays} replays, {violations} soundness violations")


def _calibration_chunk(bounds):
    lo, hi = bounds
    program = corpus.load("fig1")
    below = 0
    for seed in range(lo, hi):
        report = run(program, 1000, 0.1, master_seed=seed, jobs=1)
        below += report.p_prime < 0.5
    return below


def test_criterion_7_calibration():
    seeds = 500
    chunks = [(lo, min(lo + 125, seeds)) for lo in range(0, seeds, 125)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        below = sum(pool.map(_calibration_chunk, chunks))
    fraction = below / seeds
    ok = fraction <= 0.1 + 0.05
    _report(7, ok, f"fraction of runs with p_prime < 0.5: {fraction:.3f} (limit 0.15)")


def test_criterion_8_determinism_and_parallel_speed(figs):
    reports = {jobs: run(figs["fig3"], 100_000, 0.01, master_seed=8, jobs=jobs) for jobs in (1, 2, 8)}
    dicts = {}
    for jobs, report in reports.items():
        d = report.to_dict()
        d.pop("elapsed_ms")
        d.pop("jobs")  # echoes the invocation parameter
        dicts[jobs] = d
    identical = dicts[1] == dicts[2] == dicts[8]
    cpus = os.cpu_count() or 1
    if cpus >= 8:
        speedup_ok = reports[8].elapsed_ms <= 0.4 * reports[1].elapsed_ms
        detail = (
            f"identical={identical}; jobs=8 time {reports[8].elapsed_ms:.0f}ms vs"
            f" jobs=1 {reports[1].elapsed_ms:.0f}ms"
        )
    else:
        speedup_ok = True
        detail = (
            f"identical={identical}; speed check skipped ({cpus} CPUs < 8-way machine)"
        )
    _report(8, identical and speedup_ok, detail)


def _gamma(iv):
    return set() if iv.is_bottom() else set(range(int(iv.lo), int(iv.hi) + 1))


def test_criterion_9_interval_property_suite():
    mk = lambda lo, hi: Interval.make(Kind.INT, lo, hi)  # noqa: E731
    ivs = [Interval.bottom(Kind.INT)] + [
        mk(a, b) for a in range(-8, 9) for b in range(a, 9)
    ]
    problems = []

    for a in ivs:
        for b in ivs:
            ga, gb = _gamma(a), _gamma(b)
            union, inter = ga | gb, ga & gb
            j, m = a.join(b), a.meet(b)
            if union and _gamma(j) != set(range(min(union), max(union) + 1)):
                problems.append(f"join {a} {b}")
            if not union and not j.is_bottom():
                problems.append(f"join {a} {b}")
            if _gamma(m) != inter:
                problems.append(f"meet {a} {b}")
            sums = {x + y for x in ga for y in gb}
            diffs = {x - y for x in ga for y in gb}
            s, d = a.add(b), a.sub(b)
            if _gamma(s) != (set(range(min(sums), max(sums) + 1)) if sums else set()):
                problems.append(f"add {a} {b}")
            if _gamma(d) != (set(range(min(diffs), max(diffs) + 1)) if diffs else set()):
                problems.append(f"sub {a} {b}")

    for a in ivs:
        ga = _gamma(a)
        for k in range(-4, 5):
            prods = {k * x for x in ga}
            got = _gamma(a.scale(k))
            if prods and (min(got) != min(prods) or max(got) != max(prods)):
                problems.append(f"scale {k} {a}")
            if not (prods <= got):
                problems.append(f"scale {k} {a}")

    # guard filtering: exact hull for var-op-var atoms on a smaller range
    small = [mk(a, b) for a in range(-3, 4) for b in range(a, 4)]
    opf = {
        "<": lambda p, q: p < q,
        "<=": lambda p, q: p <= q,
        ">": lambda p, q: p > q,
        ">=": lambda p, q: p >= q,
        "==": lambda p, q: p == q,
        "!=": lambda p, q: p != q,
    }
    for xs in small:
        for ys in small:
            for op, fn in opf.items():
                env = AbstractEnv({"x": xs, "y": ys})
                cond = lang.Binary(lang.Var("x"), op, lang.Var("y"))
                out = filter_env(env, cond, True)
                sat = [(p, q) for p in _gamma(xs) for q in _gamma(ys) if fn(p, q)]
                if not sat:
                    if not out.is_bottom():
                        problems.append(f"filter {op} {xs} {ys}: expected bottom")
                    continue
                px = {p for p, _ in sat}
                py = {q for _, q in sat}
                gx, gy = _gamma(out.get("x")), _gamma(out.get("y"))
                if not (px <= gx and py <= gy):
                    problems.append(f"filter {op} {xs} {ys}: unsound")
                if op != "!=" and (
                    min(gx) != min(px) or max(gx) != max(px)
                    or min(gy) != min(py) or max(gy) != max(py)
                ):
                    problems.append(f"filter {op} {xs} {ys}: not exact")

    # widening: any ascending chain stabilizes within 2 widenings per bound
    rng = random.Random(9)
    for _ in range(2000):
        chain = []
        acc = None
        for _ in range(rng.randint(1, 8)):
            lo = rng.randint(-8, 8)
            iv = mk(lo, rng.randint(lo, 8))
            acc = iv if acc is None else acc.join(iv)
            chain.append(acc)
        w = chain[0]
        lo_changes = hi_changes = 0
        for nxt in chain[1:]:
            new = w.widen(w.join(nxt))
            lo_changes += new.lo != w.lo
            hi_changes += new.hi != w.hi
            w = new
        if lo_changes > 2 or hi_changes > 2:
            problems.append(f"widening chain changed bounds too often: {chain}")
        if chain[-1].join(w) != w or w.widen(w.join(chain[-1])) != w:
            problems.append(f"widening chain did not stabilize: {chain}")

    _report(9, not problems, f"interval suite: {problems[:3] or 'all checks hold'}")
