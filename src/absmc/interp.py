"""Randomized abstract interpretation trials: the one abstract walk.

A trial propagates an interval environment forward through the program.
`eval_block`, `eval_stmt`, `eval_loop` and the fixpoint are written once,
over masks of lanes, and an environment algebra supplies the rest:

* `TrialContext`, the scalar engine and reference semantics, runs one
  trial: an environment is an `intervals.AbstractEnv`, a mask a bool;
* `lanes._Lanes` runs a batch of seeds as numpy lanes, with the scalar
  engine's outcome on each lane.

An algebra supplies the masks ``every`` and ``none`` (a mask with no
lane is ``none`` itself, where the walk tests it by identity), and
``enter`` (a statement's step on the lanes an environment reaches),
``tick``, ``any``, ``assign``, ``filter`` and ``split`` (both polarities,
through the walks `intervals.eval_range`, `filter_env` and `split_env`),
``restrict`` (to lanes the environment reaches), ``select``, ``join``,
``widen``, ``narrow``, ``unstable`` (the lanes a fixpoint pass changed),
``note_widened``, ``eval_loop`` (the one it runs), ``trace``, ``key``
and the iteration ``word``, a list the walk pushes to and pops.  An
environment's ``reach`` is its mask of lanes.  The walk combines masks
with ``&``, ``|`` and ``^``, which bools and numpy masks share.

Outside fixpoints (``randomize``) a generator draws `lang.draw` of the
trial's seed at the key (site, iteration word), the 1-based iteration
counters of the enclosing loops; inside, it takes its full range.  A
loop unrolls the lanes whose guard is definitely true, up to
``unroll_limit`` iterations under one word, and runs the others through
an ascending fixpoint, each lane joining ``widening_delay`` times before
widening until it is stable, then ``narrowing_passes`` descending
passes; the result is filtered by the negated guard.  Every statement,
unrolled iteration and pass is a step, and a lane past ``step_budget``
aborts with verdict 1.

A fixpoint pass draws nothing, so it is a pure function of its entry.
An algebra that gives the entry a ``key`` (the untraced scalar engine)
reuses a pass whose entry equals the previous pass's, replaying its
steps and widenings, so counters and verdicts match a recomputation.
A verdict is 0 when the outcome is impossible, else 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import lang
from .intervals import AbstractEnv, Interval, eval_range, filter_env, split_env


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


@dataclass(slots=True)
class TrialContext:
    """The scalar algebra: mutable state owned by exactly one trial."""

    seed: int
    config: TrialConfig
    restriction: dict[int, tuple[float, float]] | None = None
    table: dict[ChoiceKey, int | float] = field(default_factory=dict)
    word: list[int] = field(default_factory=list)
    steps: int = 0
    widened_loops: int = 0
    trace: Callable[[str], None] | None = None

    none, every = False, True
    join = staticmethod(AbstractEnv.join)
    widen = staticmethod(AbstractEnv.widen)
    narrow = staticmethod(AbstractEnv.narrow)
    any = staticmethod(bool)

    @property
    def eval_loop(self):
        # looked up on every loop, so a wrapper of `eval_loop` sees scalar trials
        return eval_loop

    def enter(self, env: AbstractEnv) -> bool:
        return env.values is not None and self.tick(True)

    def unstable(self, run: bool, nxt: AbstractEnv, acc: AbstractEnv) -> bool:
        return False if nxt.values == acc.values else run

    def tick(self, mask: bool) -> bool:
        self.steps += 1
        if self.steps > self.config.step_budget:
            raise StepBudgetExceeded(f"exceeded {self.config.step_budget} steps")
        return mask

    def select(self, mask: bool, a: AbstractEnv, b: AbstractEnv) -> AbstractEnv:
        return a if mask else b

    def restrict(self, env: AbstractEnv, mask: bool) -> AbstractEnv:
        return env if mask else AbstractEnv.unreachable()

    def filter(self, env: AbstractEnv, cond: lang.Expr, polarity: bool, mask) -> AbstractEnv:
        return filter_env(env, cond, polarity)

    def split(self, env: AbstractEnv, cond: lang.Expr, mask) -> tuple[AbstractEnv, AbstractEnv]:
        return split_env(env, cond)

    def assign(self, env: AbstractEnv, stmt: lang.Assign, mask, randomize: bool) -> AbstractEnv:
        return env.assign(stmt.name, eval_range(stmt.expr, env, self.draw if randomize else None))

    def draw(self, gen: lang.Draw, mask: bool = True) -> Interval:
        """Generator hook for `eval_range`: a concrete draw from the
        (restricted) support by the `lang.draw` rule, recorded under its
        (site, iteration word) key."""

        key: ChoiceKey = (gen.site, tuple(self.word))
        if key in self.table:
            raise InterpError(f"duplicate choice key {key}")
        span = self.restriction.get(gen.site) if self.restriction else None
        salt = lang.fold((gen.site, *self.word))
        value = self.table[key] = lang.draw(self.seed, salt, gen.kind, span)
        if self.trace is not None:
            name = lang.GENERATOR_NAME[gen.kind]
            self.trace(f"draw site {gen.site} w={key[1]} {name} -> {value!r}")
        return Interval.const(gen.kind, value)

    def note_widened(self, mask: bool) -> None:
        self.widened_loops += 1

    def key(self, entry: AbstractEnv):
        """A fixpoint pass's entry as a key, or None: a traced trial prints
        every pass, so it recomputes each one.  -0.0 == 0.0: a zero bound
        enters the key as its repr, so a reused pass never returns a
        result of the other zero."""

        if self.trace is not None or entry.values is None:
            return None
        return [(iv.lo or repr(iv.lo), iv.hi or repr(iv.hi)) for iv in entry.values.values()]


@dataclass
class TrialOutcome:
    """Result of one trial."""

    hit: int  # 1: outcome possible; 0: outcome ruled out
    env: AbstractEnv | None  # final environment (None when aborted)
    table: dict[ChoiceKey, int | float]
    widened_loops: int
    aborted: bool = False
    steps: int = 0


def eval_block(stmts, env, alg, randomize: bool):
    for s in stmts:
        mask = alg.enter(env)
        if mask is alg.none:
            break
        env = eval_stmt(s, env, alg, mask, randomize)
    return env


def eval_stmt(stmt: lang.Stmt, env, alg, mask, randomize: bool):
    """``stmt`` on the lanes of ``mask``, which reach it and have taken its step."""

    kind = type(stmt)
    if kind is lang.Assign:
        out = alg.assign(env, stmt, mask, randomize)
    elif kind is lang.Know:
        out = alg.filter(env, stmt.cond, True, mask)
    elif kind is lang.If:
        # both guards first, then ``then`` before ``else``: the scalar draw order
        then_env, else_env = alg.split(env, stmt.cond, mask)
        then_env = eval_block(stmt.then, then_env, alg, randomize)
        out = alg.join(then_env, eval_block(stmt.orelse, else_env, alg, randomize))
    elif kind is lang.While:
        out = alg.eval_loop(stmt, env, alg, mask, randomize)
    else:
        raise InterpError(f"unknown statement node {kind.__name__}")
    if alg.trace is not None:
        alg.trace(f"site {stmt.site} {kind.__name__}: {out.render()}")
    return out


def eval_loop(stmt: lang.While, env, alg, mask, randomize: bool):
    out = env
    fix_env, fix_mask = env, mask
    if randomize:
        # phase 1: unroll the lanes whose guard is definitely true, one
        # iteration word for all of them, drawing fresh concrete values
        fix_mask, run = alg.none, mask
        alg.word.append(1)
        for _ in range(alg.config.unroll_limit):
            run = alg.tick(run)
            if run is alg.none:
                break
            enter, leave = alg.split(env, stmt.cond, run)
            entered, left = enter.reach, leave.reach
            # a guard that holds on every running lane lets them in as they are
            if not (run is entered and left is alg.none):
                stay = run & entered
                out = alg.select(run ^ stay, leave, out)  # the guard fails: done
                undecided = stay & left
                fix_env = alg.select(undecided, env, fix_env)
                fix_mask = fix_mask | undecided
                run = stay ^ undecided
                if not alg.any(run):
                    break
                enter = alg.restrict(enter, run)
            env = eval_block(stmt.body, enter, alg, True)
            alg.word[-1] += 1
        alg.word.pop()
        fix_env = alg.select(run, env, fix_env)
        fix_mask = fix_mask | run
    # phase 2: the fixpoint of the lanes the unrolling left undecided
    if fix_mask is alg.every:
        return _fixpoint(stmt, fix_env, alg, fix_mask)
    if alg.any(fix_mask):
        out = alg.select(fix_mask, _fixpoint(stmt, fix_env, alg, fix_mask), out)
    return out


def _fixpoint(stmt: lang.While, env, alg, mask):
    """The loop's fixpoint on every lane of ``mask``, each lane iterating
    until it is stable, filtered by the negated guard."""

    cond, body, config = stmt.cond, stmt.body, alg.config
    # the last computed pass: entry key, body result, steps and widenings
    last = None

    def step(acc, run):  # one pass on the lanes of run
        nonlocal last
        entry = alg.filter(acc, cond, True, run)
        if run is not every:
            entry = alg.restrict(entry, run & entry.reach)
        key = alg.key(entry)
        if key is None:
            return eval_block(body, entry, alg, False)
        # past the step budget the pass runs for real, to abort at its step
        if last is not None and last[0] == key and alg.steps + last[2] <= config.step_budget:
            alg.steps += last[2]
            alg.widened_loops += last[3]
            return last[1]
        steps, widened_loops = alg.steps, alg.widened_loops
        out = eval_block(body, entry, alg, False)
        last = (key, out, alg.steps - steps, alg.widened_loops - widened_loops)
        return out

    none, every = alg.none, alg.every
    acc, run, joins, widened = env, mask, 0, none
    while True:
        run = alg.tick(run)
        if run is none:
            break
        nxt = alg.join(acc, step(acc, run))
        run = alg.unstable(run, nxt, acc)
        if run is none:
            break
        if joins >= config.widening_delay:
            nxt = alg.widen(acc, nxt)
            widened = widened | run
        acc = nxt if run is every else alg.select(run, nxt, acc)
        joins += 1
    run = mask
    for _ in range(config.narrowing_passes):
        run = alg.tick(run)
        if run is none:
            break
        nacc = alg.narrow(acc, alg.join(env, step(acc, run)))
        run = alg.unstable(run, nacc, acc)
        if run is none:
            break
        acc = nacc if run is every else alg.select(run, nacc, acc)
    if widened is not none:
        alg.note_widened(widened)
    return alg.filter(acc, cond, False, mask)


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
        env = eval_block(program.body, AbstractEnv.tops(program.kinds()), ctx, True)
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
