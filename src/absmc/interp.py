"""Randomized abstract interpretation trials: the scalar engine.

One trial propagates an interval environment forward through the program.
This engine runs one trial at a time and is the reference semantics.
Random generators behave in two modes, tracked by the context's
``randomize`` flag:

* outside any fixpoint computation, a generator draws a concrete value
  at the key (site, iteration word), records it in the choice table
  under that key, and evaluates to the singleton interval;
* inside a fixpoint computation, a generator evaluates to its full range
  and records nothing.

The iteration word is the vector of 1-based iteration counters of the
enclosing loops, outermost first, so each dynamic draw has its own key
and can be replayed exactly by the concrete semantics; its value is
`lang.draw` of the trial's seed at that key, which `lanes` calls too.

Loops run in two phases.  Phase 1 (dynamic unrolling, only while
``randomize`` is on) executes the body as long as the guard is definitely
true, up to ``unroll_limit`` iterations, sampling generators concretely.
Phase 2 computes an ascending fixpoint with generators at full range,
joining ``widening_delay`` times before widening, then refines with
``narrowing_passes`` descending iterations; the loop's result is the
fixpoint filtered by the negated guard.

Inside a fixpoint the body draws nothing, so a pass is a pure function
of the environment it enters with.  A pass whose filtered entry equals
the previous pass's (as the first narrowing pass's does, entering where
the ascending passes stopped) reuses that pass's body result and replays
the steps and widenings it cost, so counters and verdicts match a
recomputation.  A traced trial recomputes every pass.

This engine runs every traced trial and, in `estimator.run`, each
chunk's probe and the trials `lanes` hands back; `lanes` runs the rest
of a chunk many at once, with the same outcomes.

A trial's verdict is 1 when the outcome event cannot be ruled out for
some choice of the unconstrained inputs consistent with the recorded
draws, and 0 when it is impossible.  Trials that exhaust their step
budget abort conservatively with verdict 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import lang
from .intervals import GENERATOR_RANGE, AbstractEnv, Interval, eval_range, filter_env


class InterpError(Exception):
    """Internal invariant violation during a trial."""


class StepBudgetExceeded(Exception):
    """The per-trial operation budget ran out."""


@dataclass(frozen=True, slots=True)
class TrialConfig:
    """Per-trial knobs; defaults reproduce the shipped corpus results."""

    unroll_limit: int = 64
    widening_delay: int = 2
    narrowing_passes: int = 2
    step_budget: int = 1_000_000  # statements, loop iterations and fixpoint passes

    def __post_init__(self):
        for name in ("unroll_limit", "widening_delay", "narrowing_passes"):
            if (value := getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.step_budget < 1:
            raise ValueError(f"step_budget must be >= 1, got {self.step_budget}")


ChoiceKey = tuple[int, tuple[int, ...]]


@dataclass
class TrialContext:
    """Mutable state owned by exactly one trial."""

    seed: int
    config: TrialConfig
    restriction: dict[int, tuple[float, float]] | None = None
    table: dict[ChoiceKey, int | float] = field(default_factory=dict)
    randomize: bool = True
    word: list[int] = field(default_factory=list)
    steps: int = 0
    widened_loops: int = 0
    trace: Callable[[str], None] | None = None

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.config.step_budget:
            raise StepBudgetExceeded(f"exceeded {self.config.step_budget} steps")

    def draw(self, gen: lang.Draw) -> Interval:
        """Generator hook for `eval_range`: the full range inside fixpoints,
        otherwise a concrete draw from the (restricted) support by the
        `lang.draw` rule, recorded under its (site, iteration word) key."""

        if not self.randomize:
            return GENERATOR_RANGE[gen.kind]
        key: ChoiceKey = (gen.site, tuple(self.word))
        if key in self.table:
            raise InterpError(f"duplicate choice key {key}")
        span = self.restriction.get(gen.site) if self.restriction else None
        value = self.table[key] = lang.draw(self.seed, gen.site, self.word, gen.kind, span)
        if self.trace is not None:
            name = lang.GENERATOR_NAME[gen.kind]
            self.trace(f"draw site {gen.site} w={key[1]} {name} -> {value!r}")
        return Interval.const(gen.kind, value)


@dataclass
class TrialOutcome:
    """Result of one trial."""

    hit: int  # 1: outcome possible; 0: outcome ruled out
    env: AbstractEnv | None  # final environment (None when aborted)
    table: dict[ChoiceKey, int | float]
    widened_loops: int
    aborted: bool = False
    steps: int = 0


def eval_block(stmts, env: AbstractEnv, ctx: TrialContext) -> AbstractEnv:
    for s in stmts:
        if env.is_bottom():
            return env
        env = eval_stmt(s, env, ctx)
    return env


def eval_stmt(stmt: lang.Stmt, env: AbstractEnv, ctx: TrialContext) -> AbstractEnv:
    ctx.tick()
    if env.is_bottom():
        return env
    if isinstance(stmt, lang.Assign):
        out = env.assign(stmt.name, eval_range(stmt.expr, env, ctx.draw))
    elif isinstance(stmt, lang.Know):
        out = filter_env(env, stmt.cond, True)
    elif isinstance(stmt, lang.If):
        then_env = eval_block(stmt.then, filter_env(env, stmt.cond, True), ctx)
        else_env = eval_block(stmt.orelse, filter_env(env, stmt.cond, False), ctx)
        out = then_env.join(else_env)
    elif isinstance(stmt, lang.While):
        out = eval_loop(stmt, env, ctx)
    else:
        raise InterpError(f"unknown statement node {type(stmt).__name__}")
    if ctx.trace is not None:
        ctx.trace(f"site {stmt.site} {type(stmt).__name__}: {out.render()}")
    return out


def eval_loop(stmt: lang.While, env: AbstractEnv, ctx: TrialContext) -> AbstractEnv:
    # Phase 1: unroll while the guard is definitely true, drawing fresh
    # concrete values each iteration.
    if ctx.randomize:
        ctx.word.append(1)
        try:
            for _ in range(ctx.config.unroll_limit):
                ctx.tick()
                enter = filter_env(env, stmt.cond, True)
                leave = filter_env(env, stmt.cond, False)
                if enter.is_bottom():
                    return leave
                if not leave.is_bottom():
                    break
                env = eval_block(stmt.body, enter, ctx)
                ctx.word[-1] += 1
        finally:
            ctx.word.pop()
    return _fixpoint(stmt, env, ctx)


def _fixpoint(stmt: lang.While, env: AbstractEnv, ctx: TrialContext) -> AbstractEnv:
    # the last computed pass: entry key, body result, steps and widenings
    last = None

    def step(acc: AbstractEnv) -> AbstractEnv:
        """One pass: tick, filter by the guard, evaluate the body."""

        nonlocal last
        ctx.tick()
        entry = filter_env(acc, stmt.cond, True)
        # a traced trial prints every pass, so it recomputes each one
        if ctx.trace is not None or entry.is_bottom():
            return eval_block(stmt.body, entry, ctx)
        # -0.0 == 0.0: a zero bound enters the key as its repr, so a reused
        # pass never returns a result of the other zero
        key = [b if b else repr(b) for iv in entry.values.values() for b in (iv.lo, iv.hi)]
        # past the step budget the pass runs for real, to abort at its step
        if last is not None and last[0] == key and ctx.steps + last[2] <= ctx.config.step_budget:
            ctx.steps += last[2]
            ctx.widened_loops += last[3]
            return last[1]
        steps, widened_loops = ctx.steps, ctx.widened_loops
        out = eval_block(stmt.body, entry, ctx)
        last = (key, out, ctx.steps - steps, ctx.widened_loops - widened_loops)
        return out

    saved = ctx.randomize
    ctx.randomize = False
    try:
        acc = env
        joins = 0
        widened = False
        while True:
            nxt = acc.join(step(acc))
            if nxt == acc:
                break
            if joins >= ctx.config.widening_delay:
                acc = acc.widen(nxt)
                widened = True
            else:
                acc = nxt
            joins += 1
        for _ in range(ctx.config.narrowing_passes):
            nacc = acc.narrow(env.join(step(acc)))
            if nacc == acc:
                break
            acc = nacc
        if widened:
            ctx.widened_loops += 1
        return filter_env(acc, stmt.cond, False)
    finally:
        ctx.randomize = saved


def analyze_trial(
    program: lang.Program,
    seed: int | None,
    config: TrialConfig | None = None,
    *,
    restriction: dict[int, tuple[float, float]] | None = None,
    trace: Callable[[str], None] | None = None,
) -> TrialOutcome:
    """Run one trial.  Deterministic in (program, seed, config): a seed
    counts modulo 2**64, None as 0."""

    if program.outcome is None:
        raise InterpError("program has no outcome")
    seed = seed or 0
    cfg = config or TrialConfig()
    ctx = TrialContext(seed, cfg, restriction, trace=trace)
    try:
        env = eval_block(program.body, AbstractEnv.tops(program.kinds()), ctx)
        hit = 0 if filter_env(env, program.outcome, True).is_bottom() else 1
        aborted = False
    except StepBudgetExceeded:
        env, hit, aborted = None, 1, True
    return TrialOutcome(
        hit=hit,
        env=env,
        table=ctx.table,
        widened_loops=ctx.widened_loops,
        aborted=aborted,
        steps=ctx.steps,
    )
