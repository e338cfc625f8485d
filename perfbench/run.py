"""absmc benchmark: one command, three workloads, every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {corpus,loops,cli} --seed N \\
        --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1
is the separate traced run that gives the per-layer metrics.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print every
metric with its unit, the machine block and the golden-Report check.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOADS = ("corpus", "loops", "cli")
SETUP_REPEATS = 9
MAX_JOBS = 4

# A fresh interpreter imports the CLI and parses the workload's programs:
# what a user waits for before the first trial.
SETUP_CODE = """
import json, sys
import absmc.cli
from absmc import lang
sources = json.load(sys.stdin)
print(len([lang.parse(s) for s in sources]))
"""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_seconds(sources: list[str], env: dict, clock, tally) -> tuple[float, float]:
    """Median time of SETUP_REPEATS set-up interpreters, in reference
    seconds and as measured."""

    payload = json.dumps(sources)
    timings = []
    for _ in range(SETUP_REPEATS):
        done, timing = clock.time(subprocess.run, [sys.executable, "-c", SETUP_CODE], input=payload,
                                  capture_output=True, text=True, env=env)
        timings.append(timing)
        tally.check(done.returncode == 0 and done.stdout.strip() == str(len(sources)),
                    f"setup interpreter failed: {done.stderr.strip()[-200:]}")
    return (statistics.median(t.reference() for t in timings),
            statistics.median(t.seconds for t in timings))


def _golden_mismatches() -> int:
    from workloads import golden_reports

    mismatches = 0
    for name, report in golden_reports().items():
        path = GOLDEN / f"{name}.json"
        stored = json.loads(path.read_text()) if path.is_file() else None
        if stored != report:
            mismatches += 1
            print(f"golden: {name} differs from {path.relative_to(ROOT)}")
    return mismatches


def _median_rate(rows) -> float:
    """Work per second, each distinct amount of work counted once at the
    median time of the operations that did it.  Medians, not total work
    over total time, so that a minority of operations slowed or sped up by
    other load on the machine leaves the rate unmoved; one median per
    size, so that in a mix of small and large operations, whose rates
    differ by their fixed costs, the rate cannot jump between the two."""

    times: dict[int, list[float]] = {}
    for work, seconds in rows:
        times.setdefault(work, []).append(seconds)
    return sum(times) / sum(statistics.median(s) for s in times.values())


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _end_to_end(tally, jobs: int, reference: bool) -> tuple[dict[str, float], str]:
    """Throughput and latency metrics from the timed operations, in
    reference seconds or as measured."""

    def seconds(timing):
        return timing.reference() if reference else timing.seconds

    analyze = [(g, j, n, seconds(timing)) for g, j, n, timing in tally.analyze]
    groups = sorted({g for g, _, _, _ in analyze})
    first_jobs = min(j for _, j, _, _ in analyze)

    def rows(group, j):
        return [(n, s) for g, jj, n, s in analyze if g == group and jj == j]

    rates = {g: _median_rate(rows(g, first_jobs)) for g in groups}
    out = {f"trials_per_s.{g}": rate for g, rate in rates.items()}
    # total trials over the time they take at each program's median rate
    trials = {g: sum(n for n, _ in rows(g, first_jobs)) for g in groups}
    out["trials_per_s"] = sum(trials.values()) / sum(trials[g] / rates[g] for g in groups)
    out["trials_per_s.parallel"] = _geomean(_median_rate(rows(g, jobs)) for g in groups)
    latencies = sorted(s for _, _, _, s in analyze)
    count = len(latencies)
    out["analyze_latency_s.p50"] = statistics.median(latencies)
    # the highest percentile with at least 10 samples beyond it
    beyond = min(10, count - 1)
    out["analyze_latency_s.tail"] = latencies[count - 1 - beyond]
    note = f"p{100 * (count - beyond) / count:.0f} of {count} samples"
    oracle = [(g, m, seconds(timing)) for g, m, timing in tally.oracle]
    out["oracle_samples_per_s"] = _geomean(
        _median_rate([(m, s) for g2, m, s in oracle if g2 == g]) for g in sorted({g for g, _, _ in oracle})
    )
    return out, note


UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "analyze_latency_s": "s",
    "oracle_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    import layers

    return layers.UNITS.get(name) or UNITS[name.split(".")[0]]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "absmc" / "__init__.py").is_file():
        _fail(f"no absmc sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import numpy

    import absmc
    import layers
    import loopgen
    import workloads
    import speed
    from workloads import Tally

    if Path(absmc.__file__).resolve().parent != SRC / "absmc":
        _fail(f"imported absmc from {absmc.__file__}, not from {SRC}")

    nproc = len(os.sched_getaffinity(0))
    jobs = max(1, min(nproc, MAX_JOBS))
    env = dict(os.environ, PYTHONPATH=str(SRC), ABSMC_JOBS=str(jobs))
    machine = {
        "nproc": nproc,
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "workload": args.workload,
        "seed": args.seed,
    }
    print("machine " + json.dumps(machine))
    rng = random.Random(f"{args.workload}:{args.seed}")
    if args.workload == "cli":
        tally = Tally(clock=speed.request_clock(jobs, env))
    else:
        tally = Tally(clock=speed.loop_clock(),
                      pool_clock=speed.pool_clock(jobs) if jobs > 1 else speed.loop_clock(),
                      array_clock=speed.array_clock())

    if args.workload == "loops":
        targets = workloads.loop_targets(args.seed, tally)
        tally.check(loopgen.digest(loopgen.CHECK_SEED) == loopgen.CHECK_DIGEST,
                    f"loops generator gives other programs for seed {loopgen.CHECK_SEED}")
    else:
        trials = workloads.CLI_TRIALS if args.workload == "cli" else workloads.CORPUS_TRIALS
        targets = workloads.corpus_targets(trials)
    golden_mismatch = _golden_mismatches()
    raw: dict[str, float] = {}

    if args.trace:
        ops = [(t, t.trials, rng.getrandbits(32)) for t in targets]
        metrics = layers.trace_metrics(ops, args.seconds / 2, jobs, tally, args.workload)
        metrics.update(layers.micro_metrics(targets, jobs, env))
        metrics["golden_mismatch"] = golden_mismatch
        tail_note = ""
    else:
        print(f"golden_mismatch {golden_mismatch} count")
        setup_s, raw_setup_s = _setup_seconds([t.source for t in targets], env,
                                              speed.request_clock(jobs, env), tally)
        workloads.set_references(targets, tally)
        if args.workload == "cli":
            workloads.run_cli(targets, args.seconds, jobs, rng, env, tally)
        else:
            workloads.run_inprocess(targets, args.seconds, jobs, rng, tally)
        raw, _ = _end_to_end(tally, jobs, reference=False)
        metrics, tail_note = _end_to_end(tally, jobs, reference=True)
        metrics["setup_s"], raw["setup_s"] = setup_s, raw_setup_s
        raw["peak_rss_mb"] = metrics["peak_rss_mb"] = _peak_rss_mb()

    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name in sorted(metrics):
        extra = f"  (raw {raw[name]!r})" if raw.get(name, metrics[name]) != metrics[name] else ""
        if name == "analyze_latency_s.tail":
            extra += f"  ({tail_note})"
        print(f"{name} {metrics[name]!r} {_unit(name)}{extra}")
    error_rate = tally.failed / tally.attempted
    print(f"error_rate {error_rate!r} ratio  ({tally.failed} of {tally.attempted} operations failed)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
