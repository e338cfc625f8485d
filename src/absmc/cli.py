"""Command-line front end.

Subcommands:
  analyze  run trials on a program and print the Report
  oracle   concrete reference estimate (exact enumeration or sampling)
  plan     trial count for a target margin and confidence
  curves   CSV tables relating margin, confidence and trial count

Exit codes: 0 success; 1 usage, argument, restriction, oracle, domain or
overflow error; 2 parse error or unreadable input file.
The default worker count honors the ABSMC_JOBS environment variable; at
most one worker process runs per CPU.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from . import concrete, estimator, interp, intervals, lang


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching; the subcommands' parsers are of this class
        # too, so `analyze --n 5` cannot set --narrowing-passes
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _default_jobs() -> int:
    env = os.environ.get("ABSMC_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise _UsageError(f"ABSMC_JOBS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="absmc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="bound an outcome probability")
    analyze.add_argument("input", help="program file")
    analyze.add_argument("--trials", type=int, default=10_000)
    analyze.add_argument("--epsilon", type=float, default=0.01)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--jobs", type=int, default=None)
    analyze.add_argument("--unroll", type=int, default=64)
    analyze.add_argument("--widening-delay", type=int, default=2)
    analyze.add_argument("--narrowing-passes", type=int, default=2)
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--query", help="outcome expression overriding the final know")
    analyze.add_argument("--restrict", help="JSON restriction spec file")
    analyze.add_argument("--trace", action="store_true", help="trace one trial to stderr")

    oracle = sub.add_parser("oracle", help="concrete reference estimate")
    oracle.add_argument("input")
    oracle.add_argument("--mode", choices=("exact", "sampled"), default="sampled")
    oracle.add_argument("--n", type=int, default=1_000_000, help="samples (sampled mode)")
    oracle.add_argument("--grid", type=int, default=64)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--query", help="outcome expression overriding the final know")
    oracle.add_argument("--format", choices=("text", "json"), default="text")

    plan = sub.add_parser("plan", help="trials needed for a target margin")
    plan.add_argument("--t", type=float, required=True)
    plan.add_argument("--epsilon", type=float, required=True)

    curves = sub.add_parser("curves", help="margin/confidence/trials CSV")
    curves.add_argument("--kind", choices=("speed", "exceed"), default="speed")
    curves.add_argument("--alpha", type=float, default=1.0, help="epsilon = alpha * t")
    curves.add_argument("--t-min", type=float, default=0.001)
    curves.add_argument("--t-max", type=float, default=0.1)
    curves.add_argument("--t", type=float, default=0.01, help="fixed margin (exceed kind)")
    curves.add_argument("--n-min", type=int, default=100)
    curves.add_argument("--n-max", type=int, default=100_000)
    curves.add_argument("--points", type=int, default=50)
    return parser


def _load_program(args) -> lang.Program:
    with open(args.input, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lang.parse(source, name=args.input, query=getattr(args, "query", None))


def _load_restriction(program: lang.Program, path: str) -> estimator.RestrictionSpec:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    generators = raw.get("generators", raw) if isinstance(raw, dict) else raw
    shape = 'must map generator ordinals to {"lo": number, "hi": number}'
    if not isinstance(generators, dict):
        raise estimator.RestrictionError(f"restriction file {path}: 'generators' {shape}")
    entries: dict[int, tuple[float, float]] = {}
    for key, value in generators.items():
        if not (
            key.isdigit()
            and isinstance(value, dict)
            and all(_is_number(value.get(bound)) for bound in ("lo", "hi"))
        ):
            raise estimator.RestrictionError(
                f"restriction file {path}: entry {key!r} is malformed; 'generators' {shape}"
            )
        entries[int(key)] = (float(value["lo"]), float(value["hi"]))
    return estimator.RestrictionSpec.by_ordinal(program, entries)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value == value


def _cmd_analyze(args) -> int:
    program = _load_program(args)
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    config = interp.TrialConfig(
        unroll_limit=args.unroll,
        widening_delay=args.widening_delay,
        narrowing_passes=args.narrowing_passes,
    )
    restriction = None
    if args.restrict:
        restriction = _load_restriction(program, args.restrict)
    if args.trace:
        print(f"-- trace of trial 0 (seed {estimator.derive_seed(args.seed, 0)})", file=sys.stderr)
        interp.analyze_trial(
            program,
            estimator.derive_seed(args.seed, 0),
            config,
            restriction=restriction.sites if restriction else None,
            trace=lambda line: print(line, file=sys.stderr),
        )
    report = estimator.run(
        program,
        args.trials,
        args.epsilon,
        args.seed,
        jobs,
        config,
        restriction=restriction,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(f"program: {report.program}")
        print(f"trials (n): {report.n}")
        print(f"hits: {report.hits}")
        print(f"p_hat: {report.p_hat:.6f}")
        print(f"epsilon: {report.epsilon}")
        print(f"margin: {report.margin:.6f}")
        print(f"p_prime: {report.p_prime:.6f}")
        print(f"seed: {report.seed}  jobs: {report.jobs}  elapsed_ms: {report.elapsed_ms:.1f}")
        for warning in report.warnings:
            print(f"warning: {warning}")
    return 0


def _cmd_oracle(args) -> int:
    program = _load_program(args)
    report = concrete.oracle_estimate(
        program, mode=args.mode, n=args.n, grid=args.grid, seed=args.seed
    )
    if args.format == "json":
        print(json.dumps(asdict(report)))
    else:
        print(f"mode: {report.mode}")
        print(f"estimate: {report.estimate!r}")
        print(f"paths_or_samples: {report.paths_or_samples}")
        print(f"grid: {report.grid}")
        print(f"seed: {report.seed}")
        for line in report.diagnostics:
            print(f"warning: {line}")
    return 0


def _cmd_plan(args) -> int:
    print(estimator.plan_trials(args.t, args.epsilon))
    return 0


def _cmd_curves(args) -> int:
    if args.points < 2:
        raise _UsageError("--points must be >= 2")
    if args.kind == "speed":
        if not 0 < args.t_min < args.t_max <= 1:
            raise _UsageError("need 0 < --t-min < --t-max <= 1")
        if args.alpha * args.t_max >= 1 or args.alpha <= 0:
            raise _UsageError("alpha * t must stay inside (0, 1)")
        ratio = args.t_max / args.t_min
        rows = []  # all planned before printing, so an error prints no table
        for k in range(args.points):
            t = args.t_min * ratio ** (k / (args.points - 1))
            eps = args.alpha * t
            rows.append(f"{t!r},{eps!r},{estimator.plan_trials(t, eps)}")
        print("t,epsilon,n", *rows, sep="\n")
    else:
        if not 0 < args.t <= 1:
            raise _UsageError("need 0 < --t <= 1")
        if not 1 <= args.n_min < args.n_max:
            raise _UsageError("need 1 <= --n-min < --n-max")
        print("n,p_exceed")
        ratio = args.n_max / args.n_min
        seen = set()
        for k in range(args.points):
            n = round(args.n_min * ratio ** (k / (args.points - 1)))
            if n in seen:
                continue
            seen.add(n)
            print(f"{n},{math.exp(-2.0 * n * args.t * args.t)!r}")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "oracle": _cmd_oracle,
    "plan": _cmd_plan,
    "curves": _cmd_curves,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (
        _UsageError,
        ValueError,
        OverflowError,
        intervals.DomainError,
        concrete.OracleError,
        estimator.RestrictionError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (lang.LangError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
