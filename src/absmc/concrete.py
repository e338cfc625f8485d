"""Concrete reference semantics and the brute-force oracle.

`run_concrete` executes a program on fully concrete values.  Generator
calls are resolved through a ChoiceSource: recorded draws are replayed by
their (site, iteration word) key and unseen keys fall back to a
pseudorandom stream, which realizes sampling from the product measure
over all possible draw positions.  A `know` assumption that evaluates
false prunes the execution as vacuous (result 0); the result is 1 iff
the final state satisfies the outcome.

`oracle_estimate` approximates the probability that SOME admissible
value of the unconstrained inputs drives the program into the outcome
set.  The existential is realized by maximizing over a finite grid of
each unconstrained variable's admissible range, which yields a lower
bound on the true supremum:

* exact mode (coin_flip programs only) enumerates the tree of coin
  assignments, weighting each leaf class by 2^-draws, and returns the
  exact weighted sum as a Fraction-backed float;
* sampled mode estimates by Monte Carlo, running all grid points against
  shared per-sample draws.  Samples are evaluated in vectorized batches
  (numpy) so million-sample references stay affordable.

The unconstrained (nondeterministic) inputs are the variables read
before any assignment; their admissible ranges come from the `know`
assumptions that precede their first use.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lang
from .intervals import INF, AbstractEnv, filter_env
from .lang import Kind


class OracleError(Exception):
    """The requested oracle computation is infeasible."""


class MissingChoice(Exception):
    """A draw was requested for a key absent from an enumerating source."""

    def __init__(self, key):
        self.key = key
        super().__init__(f"missing choice for {key}")


class ChoiceSource:
    """Recorded draws plus an optional pseudorandom fallback.

    Keys seen once are memoized, so each (site, word) position has one
    value per source regardless of how many grid points consult it.
    """

    def __init__(self, table=None, rng: random.Random | None = None):
        self.values: dict[tuple[int, tuple[int, ...]], int | float] = dict(table or {})
        self.rng = rng

    def draw(self, site: int, word: tuple[int, ...], kind: Kind):
        key = (site, word)
        if key in self.values:
            return self.values[key]
        if self.rng is None:
            raise MissingChoice(key)
        value = self.values[key] = lang.draw_value(self.rng.getrandbits(64), kind)
        return value


_APPLY = {
    "||": operator.or_,
    "&&": operator.and_,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


_REAL_OVERFLOW = "real overflow: a value left the double range"


def evaluate(node: lang.Expr, env, draw):
    """Concrete value of an expression, or truth of a condition, over
    ``env`` (a name -> value mapping); generators take ``draw(node)``.

    The same code serves Python scalars and numpy sample lanes: ``&&``
    and ``||`` map to ``&`` and ``|``, so both operands always evaluate
    and draw positions stay aligned with the abstract interpreter.

    A REAL value past the double range is an error of the semantics, not
    an infinity: a scalar result that is not finite raises OverflowError.
    (Lanes leave that check to `_VectorRun`'s floating-point traps.)
    """

    # most frequent nodes first
    if isinstance(node, lang.Var):
        return env[node.name]
    if isinstance(node, lang.Lit):
        return node.value
    if isinstance(node, lang.Binary):
        value = _APPLY[node.op](evaluate(node.left, env, draw), evaluate(node.right, env, draw))
        # inf and nan only arise from an overflow, and every operation
        # keeps them non-finite, so checking each result catches the first
        if type(value) is float and not math.isfinite(value):
            raise OverflowError(_REAL_OVERFLOW)
        return value
    if isinstance(node, lang.Draw):
        return draw(node)
    raise OracleError(f"unknown node {type(node).__name__}")


class _Pruned(Exception):
    pass


class _OutOfSteps(Exception):
    pass


def run_concrete(
    program: lang.Program,
    init: dict[str, int | float],
    choices: ChoiceSource,
    *,
    step_budget: int = 1_000_000,
    diagnostics: list[str] | None = None,
) -> int:
    """Standard semantics; returns 1 iff the final state satisfies the
    outcome.  Divergent executions never reach the final state and
    return 0 with a diagnostic."""

    if program.outcome is None:
        raise OracleError("program has no outcome")
    kinds = program.kinds()
    env: dict[str, int | float] = {}
    for name, kind in kinds.items():
        v = init.get(name, 0)
        env[name] = int(v) if kind is Kind.INT else float(v)
    word: list[int] = []
    budget = [step_budget]

    def tick():
        budget[0] -= 1
        if budget[0] < 0:
            raise _OutOfSteps()

    def draw(gen):
        return choices.draw(gen.site, tuple(word), gen.kind)

    def ex_block(stmts) -> None:
        for s in stmts:
            tick()
            if isinstance(s, lang.Assign):
                env[s.name] = evaluate(s.expr, env, draw)
            elif isinstance(s, lang.Know):
                if not evaluate(s.cond, env, draw):
                    raise _Pruned()
            elif isinstance(s, lang.If):
                if evaluate(s.cond, env, draw):
                    ex_block(s.then)
                else:
                    ex_block(s.orelse)
            elif isinstance(s, lang.While):
                word.append(1)
                try:
                    while evaluate(s.cond, env, draw):
                        tick()
                        ex_block(s.body)
                        word[-1] += 1
                finally:
                    word.pop()
            else:
                raise OracleError(f"unknown statement node {type(s).__name__}")

    try:
        ex_block(program.body)
    except _Pruned:
        return 0
    except _OutOfSteps:
        if diagnostics is not None:
            diagnostics.append("nonterminating path: step budget exceeded")
        return 0
    return 1 if evaluate(program.outcome, env, draw) else 0


# ---------------------------------------------------------------------------
# Nondeterministic input specification
# ---------------------------------------------------------------------------


def _read_vars(node) -> set[str]:
    return {e.name for e in lang.reads(node) if isinstance(e, lang.Var)}


def _collect_unassigned_reads(stmts, assigned: set[str], found: set[str]) -> None:
    """Reads that can happen before any assignment, in execution order.
    A variable assigned in only one If branch, or only inside a loop body,
    does not count as assigned afterwards (the other path may run)."""

    for stmt in stmts:
        found |= _read_vars(stmt) - assigned
        if isinstance(stmt, lang.Assign):
            assigned.add(stmt.name)
        elif isinstance(stmt, lang.If):
            assigned_then = set(assigned)
            assigned_else = set(assigned)
            _collect_unassigned_reads(stmt.then, assigned_then, found)
            _collect_unassigned_reads(stmt.orelse, assigned_else, found)
            assigned |= assigned_then & assigned_else
        elif isinstance(stmt, lang.While):
            _collect_unassigned_reads(stmt.body, set(assigned), found)


_MAX_COMBOS = 1 << 20  # grid combinations one oracle run may visit


@dataclass(frozen=True)
class NondetSpec:
    """Admissible ranges of the unconstrained inputs plus grid resolution."""

    ranges: dict[str, tuple[int | float, int | float]]
    grid: int = 64

    def __post_init__(self):
        if self.grid < 1:
            raise OracleError(f"grid must be >= 1, got {self.grid}")

    @classmethod
    def from_program(cls, program: lang.Program, grid: int = 64) -> "NondetSpec":
        """Derive specs from the source: a variable is unconstrained when
        it is read before any assignment; its range comes from the `know`
        assumptions preceding its first use in a non-know statement."""

        kinds = program.kinds()
        decl_order = [name for name, _ in program.declarations]
        found: set[str] = set()
        assigned: set[str] = set()
        _collect_unassigned_reads(program.body, assigned, found)
        if program.outcome is not None:
            found |= _read_vars(program.outcome) - assigned
        nondet = [name for name in decl_order if name in found]  # reproducible order

        env = AbstractEnv.tops(kinds)
        locked: set[str] = set()
        for stmt in program.body:
            if isinstance(stmt, lang.Know):
                refined = filter_env(env, stmt.cond, True)
                if refined.is_bottom():
                    raise OracleError("contradictory know assumptions")
                env = AbstractEnv(
                    {
                        name: (env.get(name) if name in locked else refined.get(name))
                        for name in kinds
                    }
                )
            else:
                locked |= lang.writes([stmt])
                for inner in lang.iter_stmts([stmt]):
                    locked |= _read_vars(inner)

        ranges: dict[str, tuple[int | float, int | float]] = {}
        for name in nondet:
            iv = env.get(name)
            if iv.lo == -INF or iv.hi == INF:
                raise OracleError(
                    f"unconstrained variable '{name}' has an unbounded admissible range"
                )
            ranges[name] = (iv.lo, iv.hi)
        return cls(ranges, grid)

    def grid_points(self, program: lang.Program) -> dict[str, list[int | float]]:
        """The grid of each input; OracleError when the grids would make
        more than `_MAX_COMBOS` combinations."""

        kinds = program.kinds()
        combos = math.prod(
            min(self.grid, int(hi) - int(lo) + 1) if kinds[name] is Kind.INT else self.grid
            for name, (lo, hi) in self.ranges.items()
        )
        if combos > _MAX_COMBOS:
            raise OracleError(
                f"the oracle grid makes {combos} input combinations,"
                f" over the cap of {_MAX_COMBOS}; lower --grid"
            )
        points: dict[str, list[int | float]] = {}
        last = self.grid - 1
        for name, (lo, hi) in self.ranges.items():
            if self.grid == 1:
                pts = [lo]
            elif kinds[name] is Kind.INT:
                lo, hi = int(lo), int(hi)
                if hi - lo <= last:
                    pts = list(range(lo, hi + 1))
                else:  # rounded exactly, half to even: steps in float pass hi beyond 2**53
                    steps = (lo + Fraction((hi - lo) * k, last) for k in range(self.grid))
                    pts = sorted(set(map(round, steps)))
            else:
                pts = [lo + (hi - lo) * k / last for k in range(self.grid)]
                if not all(map(math.isfinite, pts)):  # hi - lo overflowed: weigh the ends
                    pts = [lo * (1 - k / last) + hi * (k / last) for k in range(self.grid)]
                pts[0], pts[-1] = float(lo), float(hi)  # endpoints exactly
            points[name] = pts
        return points

    def combos(self, program: lang.Program) -> list[dict[str, int | float]]:
        points = self.grid_points(program)
        if not points:
            return [{}]
        names = list(points)
        return [dict(zip(names, combo)) for combo in itertools.product(*points.values())]


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    mode: str
    estimate: float
    paths_or_samples: int
    grid: int
    seed: int | None
    diagnostics: tuple[str, ...] = ()


def oracle_estimate(
    program: lang.Program,
    *,
    mode: str,
    n: int = 1_000_000,
    grid: int = 64,
    seed: int | None = 0,
    spec: NondetSpec | None = None,
    step_budget: int = 1_000_000,
) -> OracleReport:
    """Reference estimate of the worst-case outcome probability."""

    if mode not in ("exact", "sampled"):
        raise OracleError(f"unknown oracle mode {mode!r}")
    spec = spec or NondetSpec.from_program(program, grid)
    combos = spec.combos(program)
    if mode == "exact":
        if not all(g.coin for g in lang.generator_sites(program)):
            raise OracleError("exact mode requires all generators to be coin_flip")
        diagnostics: list[str] = []
        total, leaves = _exact_discrete(program, combos, step_budget, diagnostics)
        # one line per kind of diagnostic, however many paths raised it
        notes = tuple(dict.fromkeys(diagnostics))
        return OracleReport("exact", float(total), leaves, spec.grid, None, notes)
    if n < 1:
        raise OracleError("sampled mode needs n >= 1")
    if seed is not None and seed < 0:
        raise OracleError(f"sampled mode needs a seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    hits = 0
    diagnostics: list[str] = []
    remaining = n
    while remaining > 0:
        m = min(remaining, 1 << 17)
        hits += int(_sampled_batch(program, combos, m, rng, diagnostics, step_budget).sum())
        remaining -= m
    notes = tuple(dict.fromkeys(diagnostics))
    return OracleReport("sampled", hits / n, n, spec.grid, seed, notes)


# Caps on the exact enumeration: the nodes of its tree, and the coins on
# one path, each of which re-runs the undecided grid points up to it.
_TREE_BUDGET = 500_000
_MAX_PATH_COINS = 500


def _exact_discrete(program, combos, step_budget, diagnostics) -> tuple[Fraction, int]:
    """Exact expectation of the grid-maximized hit indicator, by lazy
    enumeration of coin assignments: a class of coin sequences splits only
    when some grid point actually reads an unassigned key.

    A grid point whose run reads no unassigned key is decided for the
    whole class: a hit makes the class a hit, and a miss is dropped from
    the grid points its subclasses run."""

    total, leaves, nodes = Fraction(0), 0, 0
    stack = [({}, combos)]  # (assignment, its undecided grid points)
    while stack:
        assignment, undecided = stack.pop()
        nodes += 1
        if nodes > _TREE_BUDGET:
            raise OracleError("exact enumeration exceeded its path budget")
        src = ChoiceSource(assignment)
        hit, missing, still = 0, None, []
        for combo in undecided:
            try:
                hit = run_concrete(
                    program, combo, src, step_budget=step_budget, diagnostics=diagnostics
                )
            except MissingChoice as m:
                missing = m.key if missing is None else missing
                still.append(combo)
            if hit:
                break
        if hit or missing is None:
            leaves += 1
            total += Fraction(hit, 2 ** len(assignment))
            continue
        if len(assignment) == _MAX_PATH_COINS:
            raise OracleError(f"exact enumeration met a path of over {_MAX_PATH_COINS} coins")
        stack.append(({**assignment, missing: 1}, still))
        stack.append(({**assignment, missing: 0}, still))  # explored first
    return total, leaves


_INT64_MAX = 2**63 - 1
_BUDGET_NOTE = "nonterminating paths hit the step budget; counted as misses"
_REPEAT_NOTE = "nonterminating paths repeat a loop state; counted as misses"
_DRAW_TABLE_BYTES = 1 << 30  # cap on one batch's draw table


def _growth(node, kinds: dict[str, Kind]) -> list[tuple[int, int]]:
    """(a, b) with |value| <= a * m + b, and so for every sum inside it, on
    lanes whose INT variables lie in [-m, m]: one pair for an expression,
    one per compared value for a condition; REAL nodes give (0, 0)."""

    if isinstance(node, lang.Var):
        return [(1, 0) if kinds[node.name] is Kind.INT else (0, 0)]
    if isinstance(node, lang.Lit) and node.kind is Kind.INT:
        return [(0, abs(node.value))]
    if isinstance(node, lang.Draw) and node.kind is Kind.INT:
        return [(0, 1)]
    if isinstance(node, lang.Binary):
        left, right = _growth(node.left, kinds), _growth(node.right, kinds)
        if node.op not in ("+", "-", "*"):
            return left + right
        ((a, b),), ((c, d),) = left, right
        # a product's left is a literal: b is the coefficient's magnitude
        return [(b * c, b * d) if node.op == "*" else (a + c, b + d)]
    return [(0, 0)]


class _VectorRun:
    """Vectorized concrete execution of one grid point over a batch of
    samples.  Draw arrays are shared across grid points through the
    caller's table, mirroring the shared product measure.

    INT lanes hold int64, which wraps silently, so `_bound` checks each
    expression and condition before it is evaluated, on the live lanes
    that run it: the values of the others are discarded.
    REAL lanes run with numpy's overflow and invalid-operation traps
    raised.  A trap is only the fast path: the statement whose evaluation
    fired it is evaluated again with the traps off (draws are memoised
    per key, so nothing else changes), and a value past the double range
    is an OverflowError, as in the scalar semantics, only on a live lane
    that runs the statement.
    """

    def __init__(self, program, table, rng, m, step_budget=1_000_000):
        self.program = program
        self.kinds = program.kinds()
        self.table = table
        self.rng = rng
        self.m = m
        self.step_budget = step_budget
        self.notes: dict[str, None] = {}  # diagnostics, in first-seen order
        stmts = list(lang.iter_stmts(program.body))
        nodes = [s.expr if isinstance(s, lang.Assign) else s.cond for s in stmts]
        growth = [(id(n), _growth(n, self.kinds)) for n in nodes + [program.outcome]]
        # the largest a and b bound all of a node's values at once: the fast check
        self.growth = {k: (max(a for a, _ in g), max(b for _, b in g), g) for k, g in growth}
        # loops whose guard and body draw nothing, with the variables their
        # body assigns: a lane that one iteration leaves unchanged repeats
        # that iteration forever
        self.drawless = {
            id(s): sorted(lang.writes(s.body))
            for s in stmts
            if isinstance(s, lang.While)
            and not any(
                isinstance(e, lang.Draw)
                for inner in [s, *lang.iter_stmts(s.body)]
                for e in lang.reads(inner)
            )
        }

    def _draw(self, gen):
        key = (gen.site, tuple(self.word))
        arr = self.table.get(key)
        if arr is None:
            if (len(self.table) + 1) * self.m * 8 > _DRAW_TABLE_BYTES:  # 8-byte lanes
                raise OracleError(
                    f"sampled-oracle draw table would pass {_DRAW_TABLE_BYTES} bytes"
                    f" ({len(self.table) + 1} draws of {self.m} lanes); lower --n"
                )
            if gen.kind is Kind.INT:
                arr = self.rng.integers(0, 2, size=self.m, dtype=np.int64)
            else:
                arr = self.rng.random(self.m)
            self.table[key] = arr
        return arr

    def run(self, combo: dict) -> np.ndarray:
        self.env = {}
        # a bound on the magnitude of every INT lane
        self.limit = max((abs(v) for n, v in combo.items() if self.kinds[n] is Kind.INT), default=0)
        for name, kind in self.kinds.items():
            dtype = np.int64 if kind is Kind.INT else np.float64
            value = combo.get(name, 0)
            self.env[name] = np.full(self.m, value, dtype=dtype)
        self.alive = np.ones(self.m, dtype=bool)
        self.word: list[int] = []
        self.budget = self.step_budget
        everyone = np.ones(self.m, dtype=bool)
        with np.errstate(over="raise", invalid="raise"):
            self._block(self.program.body, everyone)
            return self._holds(self.program.outcome, everyone) & self.alive

    def _bound(self, node, mask) -> int:
        """Bound on the magnitude of ``node``'s values on the live lanes of
        ``mask``; OverflowError if they, or a sum inside them, may leave
        int64 there."""

        a, b, pairs = self.growth[id(node)]
        if a * self.limit + b > _INT64_MAX:
            # ``limit`` only grows with assignments: tighten it to the live
            # lanes (dead ones never count again), then to those running ``node``
            self.limit = self._magnitude(self.alive)
            for limit in (self.limit, self._magnitude(mask & self.alive)):
                bound = max(c * limit + d for c, d in pairs)
                if bound <= _INT64_MAX:
                    return bound
            raise OverflowError("integer overflow: sampled-oracle lanes hold int64")
        return a * self.limit + b

    def _magnitude(self, mask) -> int:
        ints = [v[mask] for v in self.env.values() if v.dtype == np.int64]
        return max((max(int(v.max()), -int(v.min())) for v in ints if v.size), default=0)

    def _evaluate(self, node, mask):
        """``evaluate`` on every lane; OverflowError if a REAL value left
        the double range on a live lane of ``mask``."""

        try:
            return evaluate(node, self.env, self._draw)
        except FloatingPointError:
            with np.errstate(over="ignore", invalid="ignore"):
                self._check_finite(node, mask & self.alive)
                return evaluate(node, self.env, self._draw)

    def _check_finite(self, node, mask) -> None:
        # inf and nan stay non-finite through + - *, so the value of an
        # expression, or of each comparison operand in a condition, shows
        # whether one arose inside it
        if isinstance(node, lang.Binary) and node.op in ("&&", "||", *lang.RELOPS):
            self._check_finite(node.left, mask)
            self._check_finite(node.right, mask)
        elif (mask & ~np.isfinite(evaluate(node, self.env, self._draw))).any():
            raise OverflowError(_REAL_OVERFLOW)

    def _holds(self, cond, mask) -> np.ndarray:
        self._bound(cond, mask)
        out = self._evaluate(cond, mask)
        # a condition over literals only yields one bool for every lane
        return out if isinstance(out, np.ndarray) else np.full(self.m, out)

    def _block(self, stmts, mask) -> None:
        for s in stmts:
            if not mask.any():
                return
            if isinstance(s, lang.Assign):
                bound = self._bound(s.expr, mask)
                # the value stays an unnamed temporary, so numpy may reuse its buffer
                np.copyto(self.env[s.name], self._evaluate(s.expr, mask), where=mask)
                self.limit = max(self.limit, bound)
            elif isinstance(s, lang.Know):
                self.alive &= ~mask | self._holds(s.cond, mask)
            elif isinstance(s, lang.If):
                hold = self._holds(s.cond, mask)
                self._block(s.then, mask & hold)
                self._block(s.orelse, mask & ~hold)
            elif isinstance(s, lang.While):
                self.word.append(1)
                try:
                    written = self.drawless.get(id(s))
                    active = mask & self._holds(s.cond, mask) & self.alive
                    while active.any():
                        self.budget -= 1
                        if self.budget < 0:
                            # divergent lanes never reach the final state
                            self.alive &= ~active
                            self.notes[_BUDGET_NOTE] = None
                            break
                        if written is not None:
                            before = [self.env[name].copy() for name in written]
                        self._block(s.body, active)
                        if written is not None:
                            # equal compares -0.0 with 0.0: the only operations
                            # that tell them apart are absent from the language
                            stuck = active & self.alive
                            for name, old in zip(written, before):
                                stuck &= self.env[name] == old
                            if stuck.any():
                                self.alive &= ~stuck
                                self.notes[_REPEAT_NOTE] = None
                        self.word[-1] += 1
                        active = active & self._holds(s.cond, active) & self.alive
                finally:
                    self.word.pop()
            else:
                raise OracleError(f"unknown statement node {type(s).__name__}")


def _sampled_batch(program, combos, m, rng, diagnostics, step_budget=1_000_000) -> np.ndarray:
    table: dict = {}
    hit = np.zeros(m, dtype=bool)
    runner = _VectorRun(program, table, rng, m, step_budget)
    for combo in combos:
        hit |= runner.run(combo)
        if hit.all():
            break
    diagnostics.extend(runner.notes)
    return hit
