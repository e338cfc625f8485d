"""Paired in-process A/B of two source trees of absmc.

Usage, from the root of a checkout:

    python3 tools/ab.py A_TREE B_TREE [--rounds N] [--seconds S]

A_TREE and B_TREE are checkouts (each holds ``src/absmc``).  Both trees'
`absmc` load into this one process under distinct package names, so that
the two run on the same interpreter, allocator and CPU state.  Each round
times every named op on both trees, for the same number of calls, in an
order that alternates round by round.  Per op it prints the median of the
per-round ratios A time / B time (above 1: B is faster), a 95% bootstrap
interval of that median (resampled from a fixed seed, so a run's text is
reproducible from its ratios), the range of the ratios, and B's wins and
losses.  Running it with A = B gives the A/A noise floor a claim must
clear.

The ops take their programs and sizes from ``perfbench/``, which this
script reads and never changes: the seed-1 programs of
``perfbench/loopgen.py`` and the op sizes ``CORPUS_TRIALS`` and
``LOOP_TRIALS`` of ``perfbench/workloads.py``.  An op also checks that the
two trees give the same result; the script exits 1 when some op's differ.
The last line of its output is the summary as JSON.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LOOP_SEED = 1  # the loopgen seed of perfbench's committed runs
MASTER_SEED = 1


def load(tree: Path, name: str):
    """``tree``'s absmc as the package ``name``.  Its modules import each
    other relatively, so they resolve inside ``name``."""

    init = tree / "src" / "absmc" / "__init__.py"
    where = [str(init.parent)]
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=where)
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("corpus", "estimator", "interp", "lanes", "lang"):
        importlib.import_module(f"{name}.{sub}")
    return package


def _literal(path: Path, name: str):
    """The literal assigned to module-level ``name`` in ``path``, read
    without importing it."""

    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and name in targets:
            return ast.literal_eval(node.value)
    raise KeyError(f"{path}: no {name}")


def _loop_sources() -> dict[str, str]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import loopgen
    finally:
        sys.path.pop(0)
    return {name: source for name, _, source in loopgen.generate(LOOP_SEED)}


def ops_of(pkg, loops: dict[str, str], corpus_trials: dict, loop_trials: dict) -> dict:
    """Named zero-argument calls on one tree, each returning a result the
    other tree must match."""

    interp, lanes, estimator = pkg.interp, pkg.lanes, pkg.estimator
    programs = {name: pkg.lang.parse(source, name=name) for name, source in loops.items()}
    figs = {name: pkg.corpus.load(name) for name in pkg.corpus.NAMES}
    config = interp.TrialConfig()
    probe = estimator.derive_seed(MASTER_SEED, 0)

    def scalar(program):
        def op():
            out = interp.analyze_trial(program, probe, config)
            return out.hit, out.steps, out.widened_loops, out.aborted, out.env and out.env.render()

        return op

    def block(program, n):
        # the chunk's first lane block as `estimator._trial_chunk` runs it:
        # the trials after the probe, at most `estimator.BLOCK`
        indices = np.arange(1, min(n, estimator.BLOCK + 1), dtype=np.uint64)
        seeds = estimator.derive_seed(MASTER_SEED, indices)

        def op():
            lane = lanes._Lanes(program, seeds, config, None)
            _, hits = lane.run()
            arrays = (hits, lane.steps, lane.widened, lane.aborted, lane.handed_back)
            return [a.tolist() for a in arrays]

        return op

    def runs(targets):
        def op():
            return [estimator.run(p, n, 1e-9, MASTER_SEED, 1).hits for p, n in targets]

        return op

    return {
        "scalar_trial.loops.fig1": scalar(programs["fig1.loop0"]),
        "scalar_trial.loops.fig2": scalar(programs["fig2.loop0"]),
        "scalar_trial.loops.fig4": scalar(programs["fig4.loop0"]),
        "lane_block.loops.fig2": block(programs["fig2.loop0"], loop_trials["fig2"]),
        "lane_block.corpus.fig2": block(figs["fig2"], corpus_trials["fig2"]),
        "lane_block.corpus.fig4": block(figs["fig4"], corpus_trials["fig4"]),
        "run.loops": runs([(p, loop_trials[name.split(".")[0]]) for name, p in programs.items()]),
        "run.corpus": runs([(figs[name], corpus_trials[name]) for name in figs]),
    }


def _bootstrap(ratios: list[float]) -> tuple[float, float]:
    """A 95% bootstrap interval of the median of ``ratios``: the 2.5% and
    97.5% points of the medians of 2,000 resamples, drawn with replacement
    by ``random.Random(0)``."""

    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(2000))
    return medians[50], medians[1949]


def _time(op, calls: int) -> float:
    started = time.perf_counter()
    for _ in range(calls):
        op()
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="tree A (baseline)")
    parser.add_argument("b", type=Path, help="tree B (change)")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=0.1, help="time per op, tree and round")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.seconds <= 0:
        parser.error("--rounds must be >= 1 and --seconds > 0")

    workloads = ROOT / "perfbench" / "workloads.py"
    sizes = _literal(workloads, "CORPUS_TRIALS"), _literal(workloads, "LOOP_TRIALS")
    loops = _loop_sources()
    trees = {"a": load(args.a.resolve(), "absmc_a"), "b": load(args.b.resolve(), "absmc_b")}
    ops = {side: ops_of(pkg, loops, *sizes) for side, pkg in trees.items()}

    summary = {}
    for name in ops["a"]:
        a, b = ops["a"][name], ops["b"][name]
        same = a() == b()  # also warms both trees up
        calls = max(1, round(args.seconds / max(_time(a, 1), 1e-6)))
        ratios = []
        for r in range(args.rounds):
            if r % 2:
                tb, ta = _time(b, calls), _time(a, calls)
            else:
                ta, tb = _time(a, calls), _time(b, calls)
            ratios.append(ta / tb)
        wins = sum(x > 1 for x in ratios)
        losses = sum(x < 1 for x in ratios)
        low, high = _bootstrap(ratios)
        summary[name] = {
            "median": round(statistics.median(ratios), 4),
            "ci95": [round(low, 4), round(high, 4)],
            "min": round(min(ratios), 4),
            "max": round(max(ratios), 4),
            "wins": wins,
            "losses": losses,
            "calls": calls,
            "same": same,
        }
        note = "" if same else "  RESULTS DIFFER"
        print(
            f"{name:26s} A/B {summary[name]['median']:.3f}  95% CI [{low:.3f}, {high:.3f}]"
            f"  range [{min(ratios):.3f}, {max(ratios):.3f}]"
            f"  B wins {wins}/{args.rounds}, loses {losses}  ({calls} calls){note}",
            flush=True,
        )
    print(json.dumps({"a": str(args.a), "b": str(args.b), "rounds": args.rounds, "ops": summary}))
    return 0 if all(op["same"] for op in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
