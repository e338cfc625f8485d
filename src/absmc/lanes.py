"""Batched interval trials: a batch of seeds run at once as numpy lanes.

The same semantics as `interp` (the scalar engine, which stays the
reference), evaluated for many trials at once.  An environment (`_Env`)
is a per-lane reachability mask and one value per variable, as the
scalar `intervals.AbstractEnv` holds one.  A value every lane shares (a
literal, a generator's full range, a loop counter, a guard on it, or
anything computed from shared values alone) is one `intervals.Interval`,
computed by the scalar engine's own operations.  A value that differs
between lanes is an array of its bounds, (2, lanes) lower over upper, so
each operation runs once for both bounds.  A guard on shared values
keeps every lane or none.  A select, join, widening or narrowing works
variable by variable: a variable both sides hold as one object keeps it,
two shared values go through the `Interval` rule (a select keeps one
shared only when both hold the same bounds, compared bit for bit so
that -0.0 and 0.0 stay apart), and any other pair through the rule on
bounds.  The empty interval is ``[+inf, -inf]`` as in `intervals`.

A statement runs on the lanes that reach it: ``know`` and ``if`` filter
the mask, both branches of an ``if`` run on the lanes where they are
reachable (``then`` first, so each lane draws in the scalar order) and
are joined.  Loops unroll with per-lane enter and leave masks under one
iteration word shared by all lanes, then every lane that reaches the
fixpoint iterates it with its own join count and widened flag until it
is stable; fixpoints draw nothing, so lanes need not agree on when they
stop.

A block resolves what it needs of each expression node once, when it is
built (`_Lanes.plan`), and a mask that keeps every lane, or none, costs
no array work: a select returns one side as it is, an unrolled iteration
whose shared guard holds lets every running lane in as it is, and while
every lane is live no mask is narrowed to the live lanes.

The rules of a trial are the scalar engine's: a draw is `lang.draw` on
the seed array, and rounding, products, joins, widenings, narrowings and
guards are the rules on bounds of `intervals`, given numpy's operations
(`_ARRAYS`).  The block keeps nothing of a draw once the expression that
drew used it.  Lanes count their steps as `interp.TrialContext.tick`
does and abort at the step budget.  `_Lanes.run` leaves the batch's
arrays: final environments, hits, steps, widened loops, aborts and
hand-backs, and `estimator` sums those of each block of
`estimator.BLOCK` seeds.  A lane's verdict, steps, widenings, abort,
final environment and draws equal the scalar engine's trial of its seed.

Lanes compute exactly what the scalar engine computes only inside a
domain: INT bounds below 2**53 in magnitude, which float64 holds
exactly, and REAL product factors within `intervals._PRODUCT_RANGE`,
where TwoProduct decides exactness.  A lane that leaves the domain, or
meets a NaN, is handed back: the caller runs the scalar engine from its
seed.  A shared INT result of magnitude 2**53 or more hands back the
lanes that computed it (`_Lanes.checked`), so a shared value converts to
float64 exactly when it meets a value that differs between lanes.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from . import intervals, lang
from .interp import TrialConfig
from .intervals import _MIRROR, _NEGATED, GENERATOR_RANGE, INF, Interval, _constraint, _cut
from .intervals import _definitely_empty, _empty, _hull, _meet, _narrowed, _outside_product_range
from .intervals import _outward, _product_is_exact, _refined, _sum_is_exact, _widened
from .lang import Kind

_EXACT_INT = 2.0**53  # INT bounds at or past this magnitude go back to the scalar engine

_TOWARD = np.array(intervals._NUMBERS.toward)[:, None]  # for a value's (2, lanes)
_EMPTY = -_TOWARD  # the canonical empty interval
# ``xp`` of `intervals`' rules on arrays
_ARRAYS = SimpleNamespace(
    where=np.where, isinf=np.isinf, nextafter=np.nextafter, copysign=np.copysign,
    any=np.count_nonzero, all=lambda x: np.count_nonzero(x) == x.size, toward=_TOWARD,
)
_ZERO = Interval.const(Kind.INT, 0)  # stands in for a shared INT past 2**53


class _Env:
    """Per-lane abstract environments: ``reach`` (lanes) and ``values``,
    one entry per variable: the `Interval` it holds on every lane, or its
    bounds on each lane, (2, lanes) lower over upper.  The values of
    unreachable lanes mean nothing."""

    __slots__ = ("reach", "values")

    def __init__(self, reach, values):
        self.reach = reach
        self.values = values

    def only(self, mask) -> _Env:
        return _Env(self.reach & mask, self.values)


def _lift(value):
    """The bounds of a value as an array: a shared `Interval` as (2, 1)
    for every lane.  Shared INT bounds lie below 2**53 in magnitude
    (`_Lanes.checked`), so they convert exactly."""

    if type(value) is Interval:
        return _constant(value.lo, value.hi)
    return value


def _pair(a: _Env, b: _Env, shared, bounds):
    """The values of an operation on two environments, variable by
    variable.  A value both hold as one object is kept: every operation
    gives it back bit for bit, and no reachable lane holds an empty other
    than the canonical one.  Two shared values give ``shared(x, y)``
    unless that is None; any other pair ``bounds(x, y, _ARRAYS)``."""

    out = []
    for x, y in zip(a.values, b.values):
        if x is not y:
            z = shared(x, y) if type(x) is Interval and type(y) is Interval else None
            x = bounds(_lift(x), _lift(y), _ARRAYS) if z is None else z
        out.append(x)
    return tuple(out)


def _identical(x: Interval, y: Interval):
    """``x`` when ``y`` holds the same bounds bit for bit (-0.0 and 0.0
    differ), else None."""

    signed = [(b, math.copysign(1.0, b)) for iv in (x, y) for b in (iv.lo, iv.hi)]
    return x if signed[:2] == signed[2:] else None


def _select(mask, a: _Env, b: _Env) -> _Env:
    """``a`` on the lanes of ``mask``, ``b`` elsewhere: one of them itself
    when ``mask`` keeps every lane or none, so no caller writes into an
    environment's arrays.  A variable both share with the same bounds
    stays shared."""

    count = np.count_nonzero(mask)
    if count == 0:
        return b
    if count == mask.size:
        return a
    values = _pair(a, b, _identical, lambda x, y, xp: xp.where(mask, x, y))
    return _Env(np.where(mask, a.reach, b.reach), values)


def _constant(lo, hi):
    """The bounds ``[lo, hi]`` of a value every lane shares, (2, 1): a
    block's constants copied to its width made the allocator fault in
    fresh pages on every 4,096-lane block."""

    return np.array([[lo], [hi]], dtype=np.float64)


def _keep(reach, empty):
    """The lanes of ``reach`` outside ``empty``: ``reach`` itself when
    ``empty`` holds no lane."""

    return reach & ~empty if np.count_nonzero(empty) else reach


def _joined(a: _Env, b: _Env, values) -> _Env:
    """The environment of the lanes either reaches: those both reach hold
    ``values``, the others the side that reaches them."""

    return _select(a.reach, _select(b.reach, _Env(a.reach | b.reach, values), a), b)


def _join(a: _Env, b: _Env) -> _Env:
    # an unreachable environment joins to the other side
    return _joined(a, b, _pair(a, b, Interval.join, _hull))


def _widen(a: _Env, b: _Env) -> _Env:
    return _joined(a, b, _pair(a, b, Interval.widen, _widened))


def _narrow(a: _Env, b: _Env) -> _Env:
    return _Env(a.reach & b.reach, _pair(a, b, Interval.narrow, _narrowed))


def _equal(a: _Env, b: _Env):
    same = a.reach == b.reach
    for x, y in zip(a.values, b.values):
        if x is y:
            continue
        if type(x) is Interval and type(y) is Interval:
            if x != y:  # differs on every lane
                return same & ~a.reach
        else:
            same = same & (~a.reach | (_lift(x) == _lift(y)).all(axis=0))
    return same


class _Lanes:
    """One batch of trials, run together by `run`."""

    def __init__(self, program: lang.Program, seeds, config: TrialConfig, restriction):
        self.program = program
        self.config = config
        self.restriction = restriction
        self.kinds = program.kinds()
        self.index = {name: i for i, name in enumerate(self.kinds)}
        n = len(seeds)
        self.n = n
        self.seeds = seeds  # uint64
        self.steps = np.zeros(n, dtype=np.int64)
        self.ceiling = 0  # no live lane has taken more steps than this
        self.widened = np.zeros(n, dtype=np.int64)
        self.live = np.ones(n, dtype=bool)
        self.all_live = True  # no lane aborted or went back yet
        self.aborted = np.zeros(n, dtype=bool)
        self.handed_back = np.zeros(n, dtype=bool)
        self.none = np.zeros(n, dtype=bool)  # the reach of no lane; never written
        self.word: list[int] = []
        # what `expr` needs of each expression node, by id: see `_plan`
        self.plan: dict[int, object] = {}
        for s in lang.iter_stmts(program.body):
            self._plan(s.expr if isinstance(s, lang.Assign) else s.cond)
        self._plan(program.outcome)

    def _plan(self, node: lang.Expr) -> Kind:
        """Record the facts of ``node`` and the nodes under it in `plan`: a
        variable's index in an environment's ``values``, a literal's
        interval, a generator's full range, an operator's kind, and for a
        product its kind and coefficient (None when the coefficient leaves
        the domain).
        The kind of ``node``: a variable's, a leaf's, or an operator's right
        operand's."""

        if isinstance(node, lang.Var):
            self.plan[id(node)] = self.index[node.name]
            return self.kinds[node.name]
        if isinstance(node, lang.Lit):
            self.plan[id(node)] = Interval.const(node.kind, node.value)
            return node.kind
        if isinstance(node, lang.Draw):
            self.plan[id(node)] = GENERATOR_RANGE[node.kind]
            return node.kind
        self._plan(node.left)
        kind = self._plan(node.right)
        if node.op != "*":
            self.plan[id(node)] = kind
            return kind
        c = node.left.value  # the left is the literal coefficient
        inside = abs(c) < _EXACT_INT if kind is Kind.INT else not _outside_product_range(c)
        self.plan[id(node)] = (kind, c if inside else None)
        return kind

    # -- bookkeeping ------------------------------------------------------

    def _live(self, mask):
        """The live lanes of ``mask``: ``mask`` itself while every lane is."""

        return mask if self.all_live else mask & self.live

    def tick(self, mask):
        """One step on the live lanes of ``mask``; those it takes past the
        step budget abort.  The lanes still running."""

        mask = self._live(mask)
        self.steps += mask
        self.ceiling += 1
        budget = self.config.step_budget
        if self.ceiling > budget:
            over = mask & (self.steps > budget)
            if np.count_nonzero(over):
                self.aborted |= over
                self.live &= ~over
                self.all_live = False
                mask = mask & ~over
            self.ceiling = int(self.steps.max(where=self.live, initial=0))
        return mask

    def hand_back(self, bad) -> None:
        """Leave the lanes of ``bad`` to the scalar engine."""

        bad = self._live(bad)
        if np.count_nonzero(bad):
            self.handed_back |= bad
            self.live &= ~bad
            self.all_live = False

    def check(self, kind: Kind, r, mask) -> None:
        """Hand back the lanes of ``mask`` whose bounds ``r`` left the
        domain: an INT bound of magnitude 2**53 or more, or a NaN."""

        if kind is Kind.INT:
            magnitude = np.abs(r)
            bad = (magnitude >= _EXACT_INT) & (magnitude < INF)
        else:
            bad = np.isnan(r)
        if np.count_nonzero(bad):
            self.hand_back(mask & (bad[0] | bad[1]))

    def checked(self, value: Interval, mask) -> Interval:
        """``value``, a literal or computed once by the scalar rules for
        every lane of ``mask``.  An INT bound of magnitude 2**53 or more
        hands those lanes back, as `check` does, and leaves [0, 0] in its
        place, so a shared value always converts to float64 exactly."""

        if value.kind is Kind.INT and (
            _EXACT_INT <= abs(value.lo) < INF or _EXACT_INT <= abs(value.hi) < INF
        ):
            self.hand_back(mask)
            return _ZERO
        return value

    def draw(self, gen: lang.Draw, mask):
        """A concrete draw of ``gen`` on each live lane of ``mask``, from
        its own seed at the iteration word all lanes share; 0 on the other
        lanes."""

        span = self.restriction.get(gen.site) if self.restriction else None
        value = lang.draw(self.seeds, gen.site, self.word, gen.kind, span)
        return np.where(self._live(mask), value, 0.0)

    # -- expressions ------------------------------------------------------

    def expr(self, node: lang.Expr, env: _Env, mask, draws: bool):
        """The value of an expression: an `Interval` when every lane shares
        it, else its bounds on every lane; generators draw on the lanes of
        ``mask`` when ``draws``, else take their full range."""

        if isinstance(node, lang.Var):
            return env.values[self.plan[id(node)]]
        if isinstance(node, lang.Lit):
            return self.checked(self.plan[id(node)], mask)
        if isinstance(node, lang.Draw):
            if not draws:
                return self.plan[id(node)]
            value = self.draw(node, mask)
            return np.array((value, value))
        if node.op == "*":
            kind, c = self.plan[id(node)]
            return self.scale(kind, self.expr(node.right, env, mask, draws), c, mask)
        a = self.expr(node.left, env, mask, draws)
        b = self.expr(node.right, env, mask, draws)
        if type(a) is Interval and type(b) is Interval:
            return self.checked(a.add(b) if node.op == "+" else a.sub(b), mask)
        a, b = _lift(a), _lift(b)
        if node.op == "-":
            b = -b[::-1]
        return self.add(self.plan[id(node)], a, b, mask)

    def add(self, kind: Kind, a, b, mask):
        r = a + b
        if kind is Kind.REAL:
            r = _outward(r, a, b, _sum_is_exact, _TOWARD, _ARRAYS)
        return self._result(kind, _empty(a) | _empty(b), r, mask)

    def scale(self, kind: Kind, a, c, mask):
        """``c * a`` for a literal coefficient ``c``, None when it leaves
        the domain."""

        if c is None:
            self.hand_back(mask)
            return a
        if type(a) is Interval:
            return self.checked(a.scale(c), mask)
        empty = _empty(a)
        if c == 0:
            return self._result(kind, empty, _constant(c, c), mask)
        if kind is Kind.INT:
            p = c * a
            r = _hull((p[0], p[0]), (p[1], p[1]), _ARRAYS)  # `Interval.scale`'s order
        else:
            x = a if c > 0 else a[::-1]
            outside = _outside_product_range(x)
            self.hand_back(mask & ~empty & (outside[0] | outside[1]))
            r = _outward(c * x, c, x, _product_is_exact, _TOWARD, _ARRAYS)
        return self._result(kind, empty, r, mask)

    def _result(self, kind: Kind, empty, r, mask):
        empty = empty | _empty(r)
        if np.count_nonzero(empty):
            r = np.where(empty, _EMPTY, r)
        self.check(kind, r, mask)
        return r

    # -- guards -----------------------------------------------------------

    def filter(self, env: _Env, cond: lang.Expr, polarity: bool, mask) -> _Env:
        """`intervals.filter_env` on the lanes of ``mask``."""

        op, left, right = cond.op, cond.left, cond.right
        if op in _NEGATED:
            return self._refine_cmp(env, left, op if polarity else _NEGATED[op], right, mask)
        if (op == "&&") == polarity:
            return self.filter(self.filter(env, left, polarity, mask), right, polarity, mask)
        either = self.filter(env, left, polarity, mask)
        return _join(either, self.filter(env, right, polarity, mask))

    def _refine_cmp(self, env: _Env, left, op: str, right, mask) -> _Env:
        if mask is not env.reach:
            mask = mask & env.reach
        a = self.expr(left, env, mask, False)
        b = self.expr(right, env, mask, False)
        if type(a) is Interval and type(b) is Interval:
            # the same on every lane: all of them stay, or none
            if _definitely_empty(op, a.lo, a.hi, b.lo, b.hi):
                return _Env(self.none, env.values)
            out = env
        else:
            a, b = _lift(a), _lift(b)
            empty = _definitely_empty(op, a[0], a[1], b[0], b[1])
            out = _Env(_keep(env.reach, empty), env.values)
            if not np.count_nonzero(out.reach):
                return out
        if isinstance(left, lang.Var):
            out = self._refine_var(out, left, op, b, mask)
        if isinstance(right, lang.Var):
            out = self._refine_var(out, right, _MIRROR[op], a, mask)
        return out

    def _refine_var(self, env: _Env, var: lang.Var, op: str, b, mask) -> _Env:
        kind = self.kinds[var.name]
        integral = kind is Kind.INT
        if op == "!=" and not integral:
            return env
        r = self.plan[id(var)]
        cur = env.values[r]
        if type(cur) is Interval and type(b) is Interval:
            new = self.checked(_refined(cur, op, b), mask)
            return self._assign(env, r, new)
        cur, b = _lift(cur), _lift(b)
        if op == "!=":
            new = np.array(_cut(cur[0], cur[1], b[0], b[1]))
            self.check(kind, new, mask & env.reach)
        else:
            c = np.empty_like(b)
            c[0], c[1] = _constraint(op, b[0], b[1], integral)
            if integral and op in ("<", ">"):  # the one case that moves a bound of b
                self.check(kind, c, mask & env.reach)
            new = _meet(cur, c, _ARRAYS)
            if new is cur:  # no bound of c lies inside cur's
                return _Env(_keep(env.reach, _empty(cur)), env.values)
        return self._assign(env, r, new)

    # -- statements -------------------------------------------------------

    def _assign(self, env: _Env, r: int, value) -> _Env:
        """``env`` with variable ``r`` set to ``value``, a shared `Interval`
        or bounds on every lane; a lane where it is empty is unreachable."""

        values = list(env.values)
        values[r] = value
        if type(value) is Interval:
            reach = self.none if value.is_bottom() else env.reach
        else:
            reach = _keep(env.reach, _empty(value))
        return _Env(reach, tuple(values))

    def block(self, stmts, env: _Env, fixing: bool) -> _Env:
        for s in stmts:
            mask = self._live(env.reach)
            if not np.count_nonzero(mask):
                break
            env = self.stmt(s, env, mask, fixing)
        return env

    def stmt(self, s: lang.Stmt, env: _Env, mask, fixing: bool) -> _Env:
        mask = self.tick(mask)
        if isinstance(s, lang.Assign):
            return self._assign(env, self.index[s.name], self.expr(s.expr, env, mask, not fixing))
        if isinstance(s, lang.Know):
            return self.filter(env, s.cond, True, mask)
        if isinstance(s, lang.If):
            then_env = self.filter(env, s.cond, True, mask)
            else_env = self.filter(env, s.cond, False, mask)
            then_env = self.block(s.then, then_env, fixing)
            return _join(then_env, self.block(s.orelse, else_env, fixing))
        return self.loop(s, env, mask, fixing)

    def loop(self, s: lang.While, env: _Env, mask, fixing: bool) -> _Env:
        out = env
        fix_env, fix_mask = env, mask
        if not fixing:
            # unroll while the guard is definitely true, one iteration
            # word for all lanes
            fix_mask = np.zeros(self.n, dtype=bool)
            run = mask
            self.word.append(1)
            for _ in range(self.config.unroll_limit):
                run = self.tick(run)
                if not np.count_nonzero(run):
                    break
                enter = self.filter(env, s.cond, True, run)
                leave = self.filter(env, s.cond, False, run)
                # a shared guard that holds lets every running lane in as it is
                if not (run is env.reach is enter.reach and leave.reach is self.none):
                    out = _select(run & ~enter.reach, leave, out)
                    undecided = run & enter.reach & leave.reach
                    fix_env = _select(undecided, env, fix_env)
                    fix_mask |= undecided
                    run = run & enter.reach & ~leave.reach
                    if not np.count_nonzero(run):
                        break
                    enter = _Env(run, enter.values)
                env = self.block(s.body, enter, False)
                self.word[-1] += 1
            self.word.pop()
            fix_env = _select(run, env, fix_env)
            fix_mask |= run
        if np.count_nonzero(fix_mask):
            out = _select(fix_mask, self.fixpoint(s, fix_env, fix_mask), out)
        return out

    def fixpoint(self, s: lang.While, env: _Env, mask) -> _Env:
        """`interp._fixpoint` on every lane of ``mask`` at once, each lane
        iterating until it is stable."""

        def step(acc: _Env, run) -> _Env:
            entry = self.filter(acc, s.cond, True, run)
            return self.block(s.body, entry.only(run), True)

        acc = env
        widened = np.zeros(self.n, dtype=bool)
        run = mask
        joins = 0
        while True:
            run = self.tick(run)
            if not np.count_nonzero(run):
                break
            nxt = _join(acc, step(acc, run))
            run = run & ~_equal(nxt, acc)
            if joins >= self.config.widening_delay:
                acc = _select(run, _widen(acc, nxt), acc)
                widened |= run
            else:
                acc = _select(run, nxt, acc)
            joins += 1
        run = mask
        for _ in range(self.config.narrowing_passes):
            run = self.tick(run)
            if not np.count_nonzero(run):
                break
            nacc = _narrow(acc, _join(env, step(acc, run)))
            run = run & ~_equal(nacc, acc)
            acc = _select(run, nacc, acc)
        self.widened += self._live(widened)
        return self.filter(acc, s.cond, False, self._live(mask))

    # -- trials -----------------------------------------------------------

    def run(self):
        """Run the batch: its final environments, and the lanes whose
        outcome is possible, every aborted lane among them and no lane
        handed back."""

        # every variable starts shared, at the top of its kind
        tops = tuple(Interval.top(kind) for kind in self.kinds.values())
        env = _Env(np.ones(self.n, dtype=bool), tops)
        with np.errstate(all="ignore"):
            env = self.block(self.program.body, env, False)
            hits = self.filter(env, self.program.outcome, True, self._live(env.reach)).reach
        return env, self._live(hits) | self.aborted

