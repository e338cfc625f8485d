"""The three measured workloads and the correctness gate behind them.

`corpus` and `loops` run in this process: per round, every target is
analyzed at jobs=1, then in alternate rounds either again at the pool
size with the same trial count and seed, or handed to the sampled
oracle.  `cli` is one client in a
closed loop issuing `absmc analyze` and `absmc oracle` subprocess
requests.  Each operation is timed on its own, so throughput metrics
count only the time of the operations they describe.

Trial counts vary around each target's base count (FACTORS, CLI_FACTORS),
which keeps the analyze latency distribution smooth instead of a few
clusters whose boundaries would make percentiles jump between runs.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from absmc import corpus, estimator, interp, lang
from absmc.concrete import ChoiceSource, NondetSpec, oracle_estimate, run_concrete

import loopgen
from speed import Stopwatch, Timing

# Tiny epsilon: a p_prime below the oracle reference is then a defect, not
# the 1-in-100 miss a default-epsilon bound is allowed.
EPSILON = 1e-9
FACTORS = (0.6, 0.8, 1.0, 1.2, 1.4)
SIGMAS = 5.0  # sampling tolerance of oracle comparisons, in standard deviations
REPLAYS_PER_OP = 2
REFERENCE_RUNS = 4  # sampled-oracle calls averaged into a reference
REQUEST_TIMEOUT_S = 120
GOLDEN_SEED = 20070101
GOLDEN_TRIALS = 1000

# Trials per analyze op at factor 1.0, ~0.1-0.2 s of jobs=1 work each.
CORPUS_TRIALS = {"fig1": 1000, "fig2": 3000, "fig3": 1000, "fig4": 2000}
CLI_TRIALS = {"fig1": 600, "fig2": 1800, "fig3": 600, "fig4": 1200}
LOOP_TRIALS = {"fig1": 300, "fig2": 50, "fig3": 250, "fig4": 40}


@dataclass
class Target:
    """One program of a workload, with its sizes and lower reference."""

    name: str
    group: str  # the row of trials_per_s.<group>: fig1 ... fig4
    source: str
    program: lang.Program
    trials: int
    oracle_samples: int
    oracle_grid: int
    reference: float = 0.0  # lower reference for p_prime
    tolerance: float = 0.0


@dataclass
class Tally:
    """Operation counts and timings of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # (group, jobs, trials, timing) per analyze op
    analyze: list[tuple[str, int, int, Timing]] = field(default_factory=list)
    # (group, samples, timing) per sampled-oracle op
    oracle: list[tuple[str, int, Timing]] = field(default_factory=list)
    clock: Stopwatch | None = None  # times jobs=1 trials, or cli requests
    pool_clock: Stopwatch | None = None  # times in-process trials at jobs > 1
    array_clock: Stopwatch | None = None  # times in-process sampled oracles

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def _binomial_sd(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def report_key(report: estimator.Report) -> dict:
    d = report.to_dict()
    d.pop("elapsed_ms")
    d.pop("jobs")
    return d


# ---------------------------------------------------------------------------
# Targets and references
# ---------------------------------------------------------------------------


def corpus_targets(trials: dict[str, int]) -> list[Target]:
    return [
        Target(name, name, corpus.source(name), corpus.load(name), trials[name], 50_000, 64)
        for name in corpus.NAMES
    ]


def loop_targets(seed: int, tally: Tally) -> list[Target]:
    """The generated programs that parse; each one that does not is a
    failed operation."""

    targets = []
    for name, family, source in loopgen.generate(seed):
        try:
            program = lang.parse(source, name=name)
        except lang.LangError as e:
            tally.check(False, f"{name} does not parse: {e}")
            continue
        tally.check(True, "")
        targets.append(Target(name, family, source, program, LOOP_TRIALS[family], 4000, 12))
    return targets


def set_references(targets: list[Target], tally: Tally) -> None:
    """Lower references for p_prime: the exact oracle where it applies
    (fig1: 0.5), else the mean of REFERENCE_RUNS fixed-seed sampled
    oracles with its tolerance.  Each call is as large as the workload's
    own oracle ops, so the reference step does not set peak_rss_mb."""

    for t in targets:
        if t.name == "fig1":
            exact = oracle_estimate(t.program, mode="exact").estimate
            tally.check(exact == 0.5, f"fig1 exact oracle {exact} != 0.5")
            t.reference, t.tolerance = exact, 0.0
            continue
        estimates = [
            oracle_estimate(t.program, mode="sampled", n=t.oracle_samples, grid=t.oracle_grid, seed=k).estimate
            for k in range(REFERENCE_RUNS)
        ]
        t.reference = sum(estimates) / REFERENCE_RUNS
        t.tolerance = SIGMAS * _binomial_sd(t.reference, REFERENCE_RUNS * t.oracle_samples)


def check_bound(tally: Tally, t: Target, p_prime: float) -> None:
    tally.check(
        p_prime >= t.reference - t.tolerance,
        f"{t.name}: p_prime {p_prime} below reference {t.reference} - {t.tolerance}",
    )


def check_oracle(tally: Tally, t: Target, estimate: float, samples: int) -> None:
    tol = SIGMAS * _binomial_sd(t.reference, samples) + t.tolerance
    tally.check(abs(estimate - t.reference) <= tol, f"{t.name}: oracle {estimate} vs reference {t.reference}")


def check_replays(tally: Tally, t: Target, master_seed: int, n: int) -> None:
    """Criterion-6 style: a verdict-0 trial's draw table, replayed by the
    concrete semantics at every grid point, must never reach the outcome.
    The trials and fallback draws come from the op's own seed, so the
    workload's later inputs do not depend on what absmc returned."""

    rng = random.Random(f"replay:{master_seed}:{n}")
    combos = None
    for _ in range(REPLAYS_PER_OP):
        index = rng.randrange(n)
        trial = interp.analyze_trial(t.program, estimator.derive_seed(master_seed, index))
        if trial.hit:
            continue
        combos = combos or NondetSpec.from_program(t.program, t.oracle_grid).combos(t.program)
        fallback = random.Random(rng.getrandbits(64))
        reached = any(
            run_concrete(t.program, combo, ChoiceSource(trial.table, fallback)) for combo in combos
        )
        tally.check(not reached, f"{t.name}: verdict-0 trial {index} (master {master_seed}) replays to a hit")


def golden_reports() -> dict[str, dict]:
    """Fixed-seed jobs=1 Reports of fig1-fig4 without elapsed_ms."""

    reports = {}
    for name in corpus.NAMES:
        d = estimator.run(corpus.load(name), GOLDEN_TRIALS, 0.01, GOLDEN_SEED, 1).to_dict()
        d.pop("elapsed_ms")
        reports[name] = d
    return reports


# ---------------------------------------------------------------------------
# In-process workloads: corpus and loops
# ---------------------------------------------------------------------------


def run_inprocess(targets: list[Target], seconds: float, jobs: int, rng: random.Random, tally: Tally) -> None:
    """Rounds until ``seconds`` have passed, at least two so that every
    target meets the pool and the oracle.  The jobs=1 ops get most of the
    time: they carry four of the rates, and at jobs=1 they vary most."""

    deadline = time.perf_counter() + seconds
    rnd = 0
    while rnd < 2 or time.perf_counter() < deadline:
        for i in rng.sample(range(len(targets)), len(targets)):
            t = targets[i]
            n = max(1, round(t.trials * FACTORS[(rnd + i) % len(FACTORS)]))
            seed = rng.getrandbits(32)
            single, timing = tally.clock.time(estimator.run, t.program, n, EPSILON, seed, 1)
            tally.analyze.append((t.group, 1, n, timing))
            check_bound(tally, t, single.p_prime)
            check_replays(tally, t, seed, n)
            if (rnd + i) % 2 == 0:
                pooled, timing = tally.pool_clock.time(estimator.run, t.program, n, EPSILON, seed, jobs)
                tally.analyze.append((t.group, jobs, n, timing))
                tally.check(
                    report_key(pooled) == report_key(single),
                    f"{t.name}: jobs={jobs} Report differs from jobs=1 (seed {seed}, n {n})",
                )
            else:
                oracle, timing = tally.array_clock.time(
                    oracle_estimate, t.program, mode="sampled", n=t.oracle_samples,
                    grid=t.oracle_grid, seed=seed,
                )
                tally.oracle.append((t.group, t.oracle_samples, timing))
                check_oracle(tally, t, oracle.estimate, t.oracle_samples)
        rnd += 1


# ---------------------------------------------------------------------------
# cli: one closed-loop client of the command line
# ---------------------------------------------------------------------------

CLI_ORACLE_SAMPLES = 150_000
# Every round requests each figure at each of these multiples of its base
# trial count, so the latency mix is the same whatever the round count.
CLI_FACTORS = (0.5, 1.5)
# Sampled-oracle requests per round, taking the figures in turn; the
# first CLI_MIN_ROUNDS rounds request every figure at least once.
CLI_ORACLES = 2
CLI_MIN_ROUNDS = 2


def cli_trials(t: Target, factor: float) -> int:
    return max(1, round(t.trials * factor))


def cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "absmc.cli", *args]


def request(argv: list[str], env: dict) -> dict | None:
    """Run one CLI request; its JSON output, or None on a bad exit, a
    timeout or unparsable output.  The request runs in its own session so
    that a timeout also kills its pool workers."""

    with subprocess.Popen(
        cli_command(*argv), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
    if proc.returncode != 0:
        return None
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def run_cli(
    targets: list[Target], seconds: float, jobs: int, rng: random.Random, env: dict, tally: Tally
) -> None:
    by_name = {t.name: t for t in targets}
    seeds = {(t.name, f): rng.getrandbits(32) for t in targets for f in CLI_FACTORS}
    # the in-process jobs=1 Report each analyze request must equal
    expected = {
        (t.name, f): report_key(estimator.run(t.program, cli_trials(t, f), EPSILON, seeds[(t.name, f)], 1,
                                              program_name=str(corpus.path(t.name))))
        for t in targets for f in CLI_FACTORS
    }

    deadline = time.perf_counter() + seconds
    rnd = 0
    while rnd < CLI_MIN_ROUNDS or time.perf_counter() < deadline:
        mix = [("analyze", t.name, f) for t in targets for f in CLI_FACTORS]
        mix += [("sampled", targets[(rnd * CLI_ORACLES + k) % len(targets)].name, 0) for k in range(CLI_ORACLES)]
        if rnd % 4 == 0:
            mix.append(("exact", "fig1", 0))
        rng.shuffle(mix)
        for kind, name, factor in mix:
            t = by_name[name]
            path = str(corpus.path(name))
            if kind == "analyze":
                n = cli_trials(t, factor)
                argv = ["analyze", path, "--trials", str(n), "--epsilon", str(EPSILON),
                        "--seed", str(seeds[(name, factor)]), "--format", "json"]
                out, timing = tally.clock.time(request, argv, env)
                tally.analyze.append((t.group, jobs, n, timing))
                if not tally.check(out is not None, f"analyze {name} n={n}: bad exit or JSON"):
                    continue
                got = {k2: v for k2, v in out.items() if k2 not in ("elapsed_ms", "jobs")}
                tally.check(got == expected[(name, factor)], f"analyze {name} n={n}: differs from jobs=1")
                check_bound(tally, t, out["p_prime"])
            elif kind == "sampled":
                argv = ["oracle", path, "--mode", "sampled", "--n", str(CLI_ORACLE_SAMPLES),
                        "--seed", str(rng.getrandbits(32)), "--format", "json"]
                out, timing = tally.clock.time(request, argv, env)
                tally.oracle.append((t.group, CLI_ORACLE_SAMPLES, timing))
                if tally.check(out is not None, f"oracle sampled {name}: bad exit or JSON"):
                    check_oracle(tally, t, out["estimate"], CLI_ORACLE_SAMPLES)
            else:
                out = request(["oracle", path, "--mode", "exact", "--format", "json"], env)
                if tally.check(out is not None, f"oracle exact {name}: bad exit or JSON"):
                    tally.check(out["estimate"] == 0.5, f"oracle exact fig1: {out['estimate']} != 0.5")
        rnd += 1
