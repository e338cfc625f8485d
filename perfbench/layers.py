"""Per-layer metrics of the traced run.

A traced run analyzes the workload's programs at jobs=1 three ways: an
untraced pass, traced passes (until half the run's seconds are used), and
a second untraced pass that must give the same Reports as the first.
Then it times the layers' public functions directly: interval add, join
and widen, filter_env on each corpus guard, derive_seed, parse, pool
start-up, the sampled and exact oracles, concrete replay, and the CLI's
import and per-request overhead.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

from absmc import corpus, estimator, interp, lang
from absmc.concrete import ChoiceSource, NondetSpec, oracle_estimate, run_concrete
from absmc.intervals import AbstractEnv, Interval, filter_env
from absmc.lang import Kind

from tracing import Tracer
from workloads import CLI_TRIALS, EPSILON, Tally, Target, report_key, cli_command

REPEATS = 5
UNITS = {
    "lang.parse_us": "us",
    "estimator.derive_seed_us": "us",
    "estimator.pool_start_s": "s",
    "estimator.parallel_efficiency": "ratio",
    "interp.trial_us.p50": "us",
    "interp.trial_us.p99": "us",
    "interp.self_us": "us",
    "interp.eval_loop_self_us": "us",
    "interp.steps_per_trial": "count",
    "interp.widened_share": "ratio",
    "interp.aborted_share": "ratio",
    "intervals.filter_env_calls_per_trial": "count",
    "intervals.filter_env_us_per_trial": "us",
    "intervals.filter_env_share": "ratio",
    "intervals.add_ns": "ns",
    "intervals.join_ns": "ns",
    "intervals.widen_ns": "ns",
    **{f"intervals.filter_env_ns.{f}": "ns" for f in corpus.NAMES},
    **{f"concrete.oracle_samples_per_s.{f}": "1/s" for f in corpus.NAMES},
    "concrete.replay_us": "us",
    "concrete.exact_paths": "count",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead": "ratio",
    "golden_mismatch": "count",
}


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _pass(ops, jobs: int = 1) -> tuple[float, list[dict]]:
    """Analyze every (target, n, seed) op; trials per second and Reports."""

    trials = seconds = 0.0
    reports = []
    for t, n, seed in ops:
        started = time.perf_counter()
        report = estimator.run(t.program, n, EPSILON, seed, jobs)
        seconds += time.perf_counter() - started
        trials += n
        reports.append(report_key(report))
    return trials / seconds, reports


def _percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def trace_metrics(ops, seconds: float, jobs: int, tally: Tally, workload: str) -> dict[str, float]:
    rate_before, reports_before = _pass(ops)
    tracer = Tracer(
        [
            (estimator, "analyze_trial", "trial"),
            (interp, "filter_env", "filter_env"),
            (interp, "eval_loop", "eval_loop"),
        ]
    )
    traced_trials = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    with tracer:
        while traced_s == 0.0 or time.perf_counter() < deadline:
            for t, n, seed in ops:
                started = time.perf_counter()
                estimator.run(t.program, n, EPSILON, seed, 1)
                traced_s += time.perf_counter() - started
                traced_trials += n
    tally.check(tracer.restored, "traced run left a wrapped attribute in place")
    rate_after, reports_after = _pass(ops)
    tally.check(reports_after == reports_before, "Reports after the traced pass differ from before it")
    rate_pooled, reports_pooled = _pass(ops, jobs)
    tally.check(reports_pooled == reports_before, f"jobs={jobs} Reports differ from jobs=1")

    trials = tracer.trials
    count = len(trials)
    durations = sorted(r.seconds for r in trials)
    span = tracer.totals
    widened_share = sum(r.widened for r in trials) / count
    if workload == "loops":
        tally.check(widened_share >= 0.9, f"loops: widened_share {widened_share} < 0.9")
    else:
        tally.check(widened_share == 0.0, f"{workload}: widened_share {widened_share} != 0")
    untraced = (rate_before + rate_after) / 2
    return {
        "interp.trial_us.p50": _percentile(durations, 0.5) * 1e6,
        "interp.trial_us.p99": _percentile(durations, 0.99) * 1e6,
        "interp.self_us": span["trial"].self_s / count * 1e6,
        "interp.eval_loop_self_us": span["eval_loop"].self_s / count * 1e6,
        "interp.steps_per_trial": sum(r.steps for r in trials) / count,
        "interp.widened_share": widened_share,
        "interp.aborted_share": sum(r.aborted for r in trials) / count,
        "intervals.filter_env_calls_per_trial": span["filter_env"].calls / count,
        "intervals.filter_env_us_per_trial": span["filter_env"].total_s / count * 1e6,
        "intervals.filter_env_share": span["filter_env"].total_s / span["trial"].total_s,
        "estimator.parallel_efficiency": rate_pooled / (jobs * untraced),
        "trace.overhead": untraced / (traced_trials / traced_s),
    }


# ---------------------------------------------------------------------------
# Micro-benchmarks of public functions
# ---------------------------------------------------------------------------


def _ns_per_call(call, args: list[tuple], loops: int = 20) -> float:
    def body():
        for _ in range(loops):
            for a in args:
                call(*a)

    return _median_time(body) / (loops * len(args)) * 1e9


def _guards(program: lang.Program) -> list[lang.BoolExpr]:
    conds = [
        s.cond for s in lang.iter_stmts(program.body) if isinstance(s, (lang.Know, lang.If, lang.While))
    ]
    return conds + [program.outcome]


def _entry_env(program: lang.Program) -> AbstractEnv:
    """Top environment narrowed by the program's top-level assumptions."""

    env = AbstractEnv.tops(program.kinds())
    for stmt in program.body:
        if isinstance(stmt, lang.Know):
            env = filter_env(env, stmt.cond, True)
    return env


def micro_metrics(targets: list[Target], jobs: int, env: dict) -> dict[str, float]:
    rng = random.Random(7)
    real = [Interval.make(Kind.REAL, x, x + rng.random()) for x in (rng.uniform(-9, 9) for _ in range(200))]
    pairs = list(zip(real, reversed(real)))
    figs = {name: corpus.load(name) for name in corpus.NAMES}
    indices = [(12345, i) for i in range(1000)]
    out = {
        "intervals.add_ns": _ns_per_call(Interval.add, pairs),
        "intervals.join_ns": _ns_per_call(Interval.join, pairs),
        "intervals.widen_ns": _ns_per_call(Interval.widen, pairs),
        "estimator.derive_seed_us": _ns_per_call(estimator.derive_seed, indices) / 1e3,
    }
    for name, p in figs.items():
        env0 = _entry_env(p)
        calls = [(env0, g, pol) for g in _guards(p) for pol in (True, False)]
        out[f"intervals.filter_env_ns.{name}"] = _ns_per_call(filter_env, calls, loops=200)
    sources = [(t.source, t.name) for t in targets]
    parse_all = _median_time(lambda: [lang.parse(s, name=n) for s, n in sources])
    out["lang.parse_us"] = parse_all / len(sources) * 1e6
    tiny = figs["fig2"]
    out["estimator.pool_start_s"] = _median_time(lambda: estimator.run(tiny, 2 * jobs, EPSILON, 0, jobs))

    for name, p in figs.items():
        samples = 50_000
        seconds = _median_time(lambda: oracle_estimate(p, mode="sampled", n=samples, seed=0), 3)
        out[f"concrete.oracle_samples_per_s.{name}"] = samples / seconds
    replays = replay_s = 0
    for name, p in figs.items():
        combos = NondetSpec.from_program(p).combos(p)
        for index in range(10):
            trial = interp.analyze_trial(p, estimator.derive_seed(99, index))
            source = ChoiceSource(trial.table, random.Random(index))
            started = time.perf_counter()
            for combo in combos:
                run_concrete(p, combo, source)
            replay_s += time.perf_counter() - started
            replays += len(combos)
    out["concrete.replay_us"] = replay_s / replays * 1e6
    out["concrete.exact_paths"] = oracle_estimate(figs["fig1"], mode="exact").paths_or_samples

    def fresh_import():
        subprocess.run([sys.executable, "-c", "import absmc.cli"], env=env, check=True)

    out["cli.import_s"] = _median_time(fresh_import, 3)
    overheads = []
    for name, p in figs.items():
        n = CLI_TRIALS[name]
        argv = ["analyze", str(corpus.path(name)), "--trials", str(n), "--seed", "5", "--format", "json"]
        started = time.perf_counter()
        subprocess.run(cli_command(*argv), env=env, check=True, capture_output=True)
        latency = time.perf_counter() - started
        started = time.perf_counter()
        estimator.run(p, n, 0.01, 5, jobs)
        overheads.append(latency - (time.perf_counter() - started))
    out["cli.overhead_s"] = statistics.median(overheads)
    return out
