"""Batched interval trials: the lane algebra of `interp`'s and `intervals`' walks.

`_Lanes` runs the walks for a batch of seeds at once, one numpy lane
each, with the scalar engine's outcome on every lane: verdict, steps,
widenings, abort, final environment and draws.  A mask is a bool array
over the lanes; ``every`` and ``none`` are masks nothing writes, and a
mask that keeps every lane or none costs no array work.

An environment (`_Env`) is a reach mask and one value per variable: an
`intervals.Interval` that every lane shares (computed by the scalar
rules), or the bounds that differ between lanes, (2, lanes) lower over
upper.  A select, join, widening or narrowing works variable by
variable: one object on both sides is kept, two shared values take the
`Interval` rule (a select keeps one only when the bounds agree bit for
bit, -0.0 apart from 0.0), any other pair the rule on bounds of
`intervals`, given numpy's operations (`_ARRAYS`).

A draw is `lang.draw` on the seed array.  In an unrolled loop the first
draw at a site for word w draws words w to 2w - 1 at once, at most to
the unroll limit and `_BATCH` words x lanes; later words under the same
enclosing iterations read their row, and a site frees its old batch
before it draws the next.  Steps count one array update per run of
ticks on one mask.

Lanes compute exactly what the scalar engine computes inside a domain:
INT bounds below 2**53 in magnitude and REAL product factors within
`intervals._PRODUCT_RANGE`.  A lane that leaves it, or meets a NaN, is
handed back for the scalar engine to run from its seed; a shared INT
past 2**53 hands back its lanes (`_Lanes.checked`), so a shared value
converts to float64 exactly.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from . import interp, intervals, lang
from .interp import TrialConfig
from .intervals import INF, Interval, _constraint, _cut, _empty, _hull, _meet, _narrowed
from .intervals import _outside_product_range, _outward, _product_is_exact, _sum_is_exact, _widened
from .lang import Kind

_EXACT_INT = 2.0**53  # INT bounds at or past this magnitude go back to the scalar engine
_BATCH = 1 << 13  # most words x lanes of one batch of draws, whatever the unroll limit

_TOWARD = np.array(intervals._NUMBERS.toward)[:, None]  # for a value's (2, lanes)
_EMPTY = -_TOWARD  # the canonical empty interval
# ``xp`` of `intervals`' rules on arrays; `nudge` writes a copy, as `_outward` reads ``r`` after it
_ARRAYS = SimpleNamespace(
    where=np.where, isinf=np.isinf, copysign=np.copysign, any=np.count_nonzero,
    all=lambda x: np.count_nonzero(x) == x.size, toward=_TOWARD,
    nudge=lambda r, toward, exact: np.nextafter(r, toward, out=r.copy(), where=~exact),
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


def _lift(value):
    """The bounds of a value as an array: a shared `Interval` as (2, 1)
    for every lane.  Shared INT bounds lie below 2**53 in magnitude
    (`_Lanes.checked`), so they convert exactly."""

    return _constant(value.lo, value.hi) if type(value) is Interval else value


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
    if count in (0, mask.size):
        return a if count else b
    values = _pair(a, b, _identical, lambda x, y, xp: xp.where(mask, x, y))
    return _Env(np.where(mask, a.reach, b.reach), values)


def _constant(lo, hi):
    """The bounds ``[lo, hi]`` of a value every lane shares, (2, 1): a
    block's constants copied to its width made the allocator fault in
    fresh pages on every 4,096-lane block."""

    return np.array([[lo], [hi]], dtype=np.float64)


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
    """One batch of trials, run together by `run`: the lane algebra of
    `interp`'s walk."""

    trace = None  # lanes print no trace
    # the walk's own loop: a wrapper of `interp.eval_loop` times scalar trials only
    eval_loop = staticmethod(interp.eval_loop)
    any = staticmethod(np.count_nonzero)
    select = staticmethod(_select)
    join = staticmethod(_join)
    widen = staticmethod(_widen)
    narrow = staticmethod(_narrow)

    def __init__(self, program: lang.Program, seeds, config: TrialConfig, restriction):
        self.program = program
        self.config = config
        self.restriction = restriction
        self.kinds = program.kinds()
        self.index = {name: i for i, name in enumerate(self.kinds)}
        self.n = n = len(seeds)
        self.seeds = seeds  # uint64
        self.steps = np.zeros(n, dtype=np.int64)
        self.ceiling = 0  # no live lane has taken more steps than this
        self.widened = np.zeros(n, dtype=np.int64)
        self.live = np.ones(n, dtype=bool)
        self.all_live = True  # no lane aborted or went back yet
        self.aborted = np.zeros(n, dtype=bool)
        self.handed_back = np.zeros(n, dtype=bool)
        self.none = np.zeros(n, dtype=bool)  # the reach of no lane; never written
        self.every = np.ones(n, dtype=bool)  # the reach of every lane; never written
        self.pending, self.ticks = None, 0  # ticks on one mask not yet in ``steps``
        self.word: list[int] = []
        self.batches = {}  # site -> (enclosing iterations, first word, batch)

    # -- bookkeeping ------------------------------------------------------

    def _live(self, mask):
        """The live lanes of ``mask``: ``mask`` itself while every lane is."""

        return mask if self.all_live else mask & self.live

    def tick(self, mask):
        """One step on the live lanes of ``mask``, which holds a lane; those
        it takes past the step budget abort.  The lanes still running, or
        ``none``.  Ticks on one mask in a row reach ``steps`` at once
        (`counted`); no caller writes a ticked mask."""

        if not self.all_live:
            mask = mask & self.live
            if not np.count_nonzero(mask):
                return self.none
        if mask is not self.pending:
            self.counted(mask)
        self.ticks += 1
        self.ceiling += 1
        budget = self.config.step_budget
        if self.ceiling > budget:
            steps = self.counted(mask)
            over = mask & (steps > budget)
            if np.count_nonzero(over):
                self.aborted |= over
                self.live &= ~over
                self.all_live = False
                mask = mask & ~over
                if not np.count_nonzero(mask):
                    return self.none
            self.ceiling = int(steps.max(where=self.live, initial=0))
        return mask

    def counted(self, pending=None):
        """``steps``, with the pending ticks added; the next ones tick ``pending``."""

        if self.ticks:
            self.steps += self.pending if self.ticks == 1 else self.ticks * self.pending
        self.pending, self.ticks = pending, 0
        return self.steps

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
        """The bounds [v, v] of a concrete draw v of ``gen`` on each live
        lane of ``mask``, from its own seed at the iteration word all lanes
        share, read off a batch in an unrolled loop; [0, 0] elsewhere."""

        span = self.restriction.get(gen.site) if self.restriction else None
        if not self.word:
            row = np.empty((2, self.n))
            row[0] = row[1] = lang.draw(self.seeds, lang.fold((gen.site,)), gen.kind, span)
        else:
            *outer, w = self.word
            at, first, batch = self.batches.pop(gen.site, (outer, w, ()))
            if at != outer or w - first >= len(batch):
                del batch  # freed before the next batch is drawn
                rows = min(w, self.config.unroll_limit + 1 - w, max(1, _BATCH // self.n))
                first, batch = w, self._drawn(gen, [(*outer, v) for v in range(w, w + rows)], span)
            self.batches[gen.site] = outer, first, batch
            row = batch[w - first]
        live = self._live(mask)
        return row if live is self.every else np.where(live, row, 0.0)

    def _drawn(self, gen: lang.Draw, words, span):
        """The bounds [v, v] of ``gen``'s draws on every lane at each of the
        loop ``words``, (words, 2, lanes): one `lang.draw` over a column of salts."""

        salts = np.array([lang.fold((gen.site, *word)) for word in words], dtype=np.uint64)
        batch = np.empty((len(words), 2, self.n))
        batch[:, 0] = batch[:, 1] = lang.draw(self.seeds, salts[:, None], gen.kind, span)
        return batch

    # -- the value algebra of `intervals.filter_env` and `eval_range` -----

    def get(self, env: _Env, name: str):
        return env.values[self.index[name]]

    def bind(self, env: _Env, name: str, value) -> _Env:
        """``env`` with variable ``name`` set to ``value``, unreachable on
        the lanes where it is empty."""

        values = list(env.values)
        values[self.index[name]] = value
        empty = value.lo > value.hi if type(value) is Interval else _empty(value)
        return self.drop(_Env(env.reach, tuple(values)), empty)

    def drop(self, env: _Env, empty) -> _Env:
        """``env`` without the lanes of ``empty``, a mask or a bool for every
        lane; its reach is ``none`` when no lane is left."""

        if empty is True:
            return _Env(self.none, env.values)
        if empty is False or not np.count_nonzero(empty):
            return env
        reach = env.reach & ~empty
        return _Env(reach if np.count_nonzero(reach) else self.none, env.values)

    def add(self, kind: Kind, op: str, a, b, mask):
        """``a + b``, or ``a - b`` when ``op`` is ``-``."""

        if type(a) is Interval and type(b) is Interval:
            return self.checked(a.add(b) if op == "+" else a.sub(b), mask)
        a, b = _lift(a), _lift(b)
        if op == "-":
            b = -b[::-1]
        r = a + b
        if kind is Kind.REAL:
            r = _outward(r, a, b, _sum_is_exact, _TOWARD, _ARRAYS)
        return self._result(kind, _empty(a) | _empty(b), r, mask)

    def scale(self, kind: Kind, a, c, mask):
        """``c * a`` for a literal coefficient ``c``; one outside the domain
        hands back the lanes of ``mask``."""

        if abs(c) >= _EXACT_INT if kind is Kind.INT else _outside_product_range(c):
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

    def refine(self, env: _Env, name: str, op: str, cur, b, mask) -> _Env:
        """`intervals._refine_var` where ``cur`` or ``b`` differs between lanes."""

        kind = self.kinds[name]
        integral = kind is Kind.INT
        if op == "!=" and not integral:
            return env
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
                return self.drop(env, _empty(cur))
        return self.bind(env, name, new)

    # -- the walk's algebra -----------------------------------------------

    def filter(self, env: _Env, cond: lang.Expr, polarity: bool, mask) -> _Env:
        # not `interp.filter_env`: a wrapper of it times scalar trials only
        return intervals.filter_env(env, cond, polarity, self, mask)

    def split(self, env: _Env, cond: lang.Expr, mask) -> tuple[_Env, _Env]:
        return intervals.split_env(env, cond, self, mask)

    def assign(self, env: _Env, stmt: lang.Assign, mask, randomize: bool) -> _Env:
        draw = self.draw if randomize else None
        return self.bind(env, stmt.name, intervals.eval_range(stmt.expr, env, draw, self, mask))

    def enter(self, env: _Env):
        """The live lanes ``env`` reaches after a step on each, or ``none``."""

        mask = self._live(env.reach)
        if mask is not self.every and not np.count_nonzero(mask):
            return self.none
        return self.tick(mask)

    def unstable(self, run, nxt: _Env, acc: _Env):
        """The lanes of ``run`` where ``nxt`` differs from ``acc``, or ``none``."""

        run = run & ~_equal(nxt, acc)
        return run if np.count_nonzero(run) else self.none

    def restrict(self, env: _Env, mask) -> _Env:
        """``env`` on the lanes of ``mask``, which it reaches."""

        return _Env(mask, env.values)

    def key(self, entry: _Env) -> None:
        """Lanes reuse no fixpoint pass."""

    def note_widened(self, mask) -> None:
        self.widened += self._live(mask)

    # -- trials -----------------------------------------------------------

    def run(self):
        """Run the batch: its final environments, and the lanes whose
        outcome is possible, every aborted lane among them and no lane
        handed back."""

        # every variable starts shared, at the top of its kind
        env = _Env(self.every, tuple(Interval.top(kind) for kind in self.kinds.values()))
        with np.errstate(all="ignore"):
            env = interp.eval_block(self.program.body, env, self, True)
            hits = self.filter(env, self.program.outcome, True, self._live(env.reach)).reach
        self.counted()
        return env, self._live(hits) | self.aborted

