"""Batched interval trials: a batch of seeds run at once as numpy lanes.

The same semantics as `interp` (the scalar engine, which stays the
reference), evaluated for many trials at once.  Each variable is a pair
of float64 ``lo``/``hi`` arrays with one lane per trial, and each
environment carries a per-lane reachability mask; the empty interval is
``[+inf, -inf]`` as in `intervals`.  A statement runs on the lanes that
reach it: ``know`` and ``if`` filter the mask, both branches of an
``if`` run on the lanes where they are reachable (``then`` first, so
each lane draws in the scalar order) and are joined.  Loops unroll with
per-lane enter and leave masks under one iteration word shared by all
lanes, then every lane that reaches the fixpoint iterates it with its
own join count and widened flag until it is stable; fixpoints draw
nothing, so lanes need not agree on when they stop.

A draw is one uint64 expression over the seed array, the `lang` rule
``lang.draw_value(lang.mix(seeds ^ lang.fold((site, *word))))``; the
block keeps nothing of it once the expression that drew has used it.
Lanes count their steps as `interp.TrialContext.tick` does and abort at
the step budget.  `_Lanes.run` leaves the batch's arrays: final
environments, hits, steps, widened loops, aborts and hand-backs, and
`estimator` sums those of each block of `estimator.BLOCK` seeds.  A
lane's verdict, steps, widenings and abort equal the scalar engine's
trial of its seed, and so do its final environment and draws.

Lanes compute exactly what the scalar engine computes only inside a
domain: INT bounds are exact in float64 while their magnitude stays
below 2**53, and a REAL product's exactness test (Dekker's TwoProduct
standing in for `intervals._mul_is_exact`) holds only for factors
within `_PRODUCT_RANGE`.  A lane that leaves the domain, or meets a
NaN, is handed back: the caller runs the scalar engine from its seed.
"""

from __future__ import annotations

import sys

import numpy as np

from . import lang
from .interp import TrialConfig
from .intervals import _MIRROR, _NEGATED, GENERATOR_RANGE, _sum_is_exact
from .lang import Kind

_INF = float("inf")
_MAX = sys.float_info.max
_EXACT_INT = 2.0**53  # INT bounds at or past this magnitude go back to the scalar engine
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# nonzero factors of a REAL product inside this magnitude range split
# without overflow and leave an error term above the subnormal range
_PRODUCT_RANGE = (2.0**-480, 2.0**480)
_ZERO = np.float64(0.0)


class _Env:
    """Per-lane abstract environments: ``reach`` (lanes) and ``lo``/``hi``
    (variables by lanes).  Values of unreachable lanes mean nothing."""

    __slots__ = ("reach", "lo", "hi")

    def __init__(self, reach, lo, hi):
        self.reach = reach
        self.lo = lo
        self.hi = hi

    def only(self, mask) -> _Env:
        return _Env(self.reach & mask, self.lo, self.hi)


def _select(mask, a: _Env, b: _Env) -> _Env:
    """``a`` on the lanes of ``mask``, ``b`` elsewhere."""

    return _Env(
        np.where(mask, a.reach, b.reach), np.where(mask, a.lo, b.lo), np.where(mask, a.hi, b.hi)
    )


def _min(x, y):
    # Python's min(x, y) is y only when y < x, so a tie keeps x's zero sign,
    # where np.minimum(0.0, -0.0) is -0.0
    return np.where(y < x, y, x)


def _max(x, y):
    return np.where(y > x, y, x)


def _join(a: _Env, b: _Env) -> _Env:
    # the canonical empty interval [inf, -inf] joins to the other side
    lo, hi = _min(a.lo, b.lo), _max(a.hi, b.hi)
    only_a, only_b = ~b.reach, ~a.reach
    lo = np.where(only_b, b.lo, np.where(only_a, a.lo, lo))
    hi = np.where(only_b, b.hi, np.where(only_a, a.hi, hi))
    return _Env(a.reach | b.reach, lo, hi)


def _widen(a: _Env, b: _Env) -> _Env:
    lo = np.where(b.lo >= a.lo, a.lo, -_INF)
    hi = np.where(b.hi <= a.hi, a.hi, _INF)
    # an empty interval widens to the other side, and so does an
    # unreachable environment, first
    a_empty, b_empty = a.lo > a.hi, b.lo > b.hi
    lo = np.where(a_empty, b.lo, np.where(b_empty, a.lo, lo))
    hi = np.where(a_empty, b.hi, np.where(b_empty, a.hi, hi))
    lo = np.where(a.reach, np.where(b.reach, lo, a.lo), b.lo)
    hi = np.where(a.reach, np.where(b.reach, hi, a.hi), b.hi)
    return _Env(a.reach | b.reach, lo, hi)


def _narrow(a: _Env, b: _Env) -> _Env:
    lo = np.where(a.lo == -_INF, b.lo, a.lo)
    hi = np.where(a.hi == _INF, b.hi, a.hi)
    empty = (a.lo > a.hi) | (b.lo > b.hi) | (lo > hi)
    return _Env(a.reach & b.reach, np.where(empty, _INF, lo), np.where(empty, -_INF, hi))


def _equal(a: _Env, b: _Env):
    same = (a.lo == b.lo).all(axis=0) & (a.hi == b.hi).all(axis=0)
    return (a.reach == b.reach) & (~a.reach | same)


def _outward(r, a, b, toward: float, exact):
    """`intervals._outward` on lanes: ``r``, the rounded sum or product of
    ``a`` and ``b``, one ulp toward ``toward`` unless ``exact``; an
    overflow away from ``toward`` of finite operands stops at the largest
    finite double."""

    out = np.where(exact, r, np.nextafter(r, toward))
    if np.isfinite(r).all():
        return out
    keep = (r == toward) | np.isinf(a) | np.isinf(b)
    return np.where(np.isinf(r), np.where(keep, r, np.copysign(_MAX, r)), out)


def _split(a):
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


def _product_is_exact(c: float, x, p):
    """Dekker's TwoProduct error term of ``p = c * x`` is zero; exact for
    factors inside `_PRODUCT_RANGE`, where it agrees with
    `intervals._mul_is_exact`."""

    ch, cl = _split(c)
    xh, xl = _split(x)
    return cl * xl - (((p - ch * xh) - cl * xh) - ch * xl) == 0.0


def _outside_product_range(x):
    """Finite nonzero factors outside `_PRODUCT_RANGE` (an infinite one
    makes an infinite product, which needs no exactness test)."""

    magnitude = np.abs(x)
    tiny = (magnitude < _PRODUCT_RANGE[0]) & (x != 0.0)
    huge = (magnitude > _PRODUCT_RANGE[1]) & (magnitude < _INF)
    return tiny | huge


class _Lanes:
    """One batch of trials, run together by `run`."""

    def __init__(self, program: lang.Program, seeds, config: TrialConfig, restriction):
        self.program = program
        self.config = config
        self.restriction = restriction
        self.kinds = program.kinds()
        self.row = {name: i for i, name in enumerate(self.kinds)}
        n = len(seeds)
        self.n = n
        self.seeds = seeds  # uint64
        self.steps = np.zeros(n, dtype=np.int64)
        self.ceiling = 0  # no live lane has taken more steps than this
        self.widened = np.zeros(n, dtype=np.int64)
        self.live = np.ones(n, dtype=bool)
        self.aborted = np.zeros(n, dtype=bool)
        self.handed_back = np.zeros(n, dtype=bool)
        self.word: list[int] = []

    # -- bookkeeping ------------------------------------------------------

    def tick(self, mask):
        """One step on the live lanes of ``mask``; those it takes past the
        step budget abort.  The lanes still running."""

        mask = mask & self.live
        self.steps += mask
        self.ceiling += 1
        budget = self.config.step_budget
        if self.ceiling > budget:
            over = mask & (self.steps > budget)
            self.aborted |= over
            self.live &= ~over
            mask &= ~over
            self.ceiling = int(self.steps.max(where=self.live, initial=0))
        return mask

    def hand_back(self, bad) -> None:
        """Leave the lanes of ``bad`` to the scalar engine."""

        bad = bad & self.live
        self.handed_back |= bad
        self.live &= ~bad

    def check(self, kind: Kind, lo, hi, mask) -> None:
        """Hand back the lanes of ``mask`` whose result left the domain: an
        INT bound of magnitude 2**53 or more, or a NaN."""

        if kind is Kind.INT:
            bad = (np.abs(lo) >= _EXACT_INT) & np.isfinite(lo)
            bad |= (np.abs(hi) >= _EXACT_INT) & np.isfinite(hi)
        else:
            bad = np.isnan(lo) | np.isnan(hi)
        bad = mask & bad
        if bad.any():
            self.hand_back(bad)

    def draw(self, gen: lang.Draw, mask):
        """A concrete draw of ``gen`` on each live lane of ``mask``, from
        its own seed at the iteration word all lanes share; 0 on the other
        lanes."""

        span = self.restriction.get(gen.site) if self.restriction else None
        bits = lang.mix(self.seeds ^ lang.fold((gen.site, *self.word)))
        return np.where(mask & self.live, lang.draw_value(bits, gen.kind, span), 0.0)

    # -- expressions ------------------------------------------------------

    def expr(self, node: lang.Expr, env: _Env, mask, draws: bool):
        """``(lo, hi)`` of an expression on every lane; generators draw on
        the lanes of ``mask`` when ``draws``, else take their full range."""

        if isinstance(node, lang.Var):
            r = self.row[node.name]
            return env.lo[r], env.hi[r]
        if isinstance(node, lang.Lit):
            if node.kind is Kind.INT and abs(node.value) >= _EXACT_INT:
                self.hand_back(mask)
                return _ZERO, _ZERO
            value = np.float64(node.value)  # numpy scalars compare to numpy bools
            return value, value
        if isinstance(node, lang.Draw):
            if not draws:
                full = GENERATOR_RANGE[node.kind]
                return np.float64(full.lo), np.float64(full.hi)
            value = self.draw(node, mask)
            return value, value
        kind = self._kind(node)
        if node.op == "*":  # the left is the literal coefficient
            return self.scale(kind, self.expr(node.right, env, mask, draws), node.left.value, mask)
        a = self.expr(node.left, env, mask, draws)
        blo, bhi = self.expr(node.right, env, mask, draws)
        if node.op == "-":
            blo, bhi = -bhi, -blo
        return self.add(kind, a, (blo, bhi), mask)

    def _kind(self, node: lang.Expr) -> Kind:
        while isinstance(node, lang.Binary):
            node = node.right
        return self.kinds[node.name] if isinstance(node, lang.Var) else node.kind

    def add(self, kind: Kind, a, b, mask):
        (alo, ahi), (blo, bhi) = a, b
        lo, hi = alo + blo, ahi + bhi
        if kind is Kind.REAL:
            lo = _outward(lo, alo, blo, -_INF, _sum_is_exact(alo, blo, lo))
            hi = _outward(hi, ahi, bhi, _INF, _sum_is_exact(ahi, bhi, hi))
        return self._result(kind, (alo > ahi) | (blo > bhi), lo, hi, mask)

    def scale(self, kind: Kind, a, coeff, mask):
        alo, ahi = a
        empty = alo > ahi
        if coeff == 0:
            return self._result(kind, empty, float(coeff), float(coeff), mask)
        if kind is Kind.INT:
            if abs(coeff) >= _EXACT_INT:
                self.hand_back(mask)
                return a
            p, q = coeff * alo, coeff * ahi
            return self._result(kind, empty, _min(p, q), _max(p, q), mask)
        c = float(coeff)
        if _outside_product_range(c):
            self.hand_back(mask)
            return a
        xlo, xhi = (alo, ahi) if c > 0 else (ahi, alo)
        self.hand_back(mask & ~empty & (_outside_product_range(xlo) | _outside_product_range(xhi)))
        plo, phi = c * xlo, c * xhi
        lo = _outward(plo, c, xlo, -_INF, _product_is_exact(c, xlo, plo))
        hi = _outward(phi, c, xhi, _INF, _product_is_exact(c, xhi, phi))
        return self._result(kind, empty, lo, hi, mask)

    def _result(self, kind: Kind, empty, lo, hi, mask):
        empty = empty | (lo > hi)
        lo, hi = np.where(empty, _INF, lo), np.where(empty, -_INF, hi)
        self.check(kind, lo, hi, mask)
        return lo, hi

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
        mask = mask & env.reach
        a = self.expr(left, env, mask, False)
        b = self.expr(right, env, mask, False)
        out = _Env(env.reach & ~_definitely_empty(op, a, b), env.lo, env.hi)
        if isinstance(left, lang.Var):
            out = self._refine_var(out, left.name, op, b, mask)
        if isinstance(right, lang.Var):
            out = self._refine_var(out, right.name, _MIRROR[op], a, mask)
        return out

    def _refine_var(self, env: _Env, name: str, op: str, b, mask) -> _Env:
        r = self.row[name]
        kind = self.kinds[name]
        mask = mask & env.reach
        cur_lo, cur_hi = env.lo[r], env.hi[r]
        blo, bhi = b
        if op == "!=":
            if kind is not Kind.INT:
                return env
            single = blo == bhi  # never true of the empty interval
            lo = np.where(single & (cur_lo == blo), cur_lo + 1, cur_lo)
            hi = np.where(single & (cur_hi == blo), cur_hi - 1, cur_hi)
            self.check(kind, lo, hi, mask)
            empty = lo > hi
        else:
            clo, chi = self._constraint(op, blo, bhi, kind, mask)
            lo, hi = _max(cur_lo, clo), _min(cur_hi, chi)
            empty = (cur_lo > cur_hi) | (lo > hi)
        new_lo, new_hi = env.lo.copy(), env.hi.copy()
        new_lo[r], new_hi[r] = lo, hi
        return _Env(env.reach & ~empty, new_lo, new_hi)

    def _constraint(self, op: str, blo, bhi, kind: Kind, mask):
        """`intervals._constraint`: the values ``x`` with ``x op b`` for
        some value of b, strict REAL comparisons weakened to closed."""

        integral = kind is Kind.INT
        if op == "<":
            hi = np.where(bhi != _INF, bhi - 1, bhi) if integral else bhi
            self.check(kind, -_INF, hi, mask)
            return -_INF, hi
        if op == "<=":
            return -_INF, bhi
        if op == ">":
            lo = np.where(blo != -_INF, blo + 1, blo) if integral else blo
            self.check(kind, lo, _INF, mask)
            return lo, _INF
        if op == ">=":
            return blo, _INF
        return blo, bhi  # ==

    # -- statements -------------------------------------------------------

    def block(self, stmts, env: _Env, fixing: bool) -> _Env:
        for s in stmts:
            mask = env.reach & self.live
            if not mask.any():
                break
            env = self.stmt(s, env, mask, fixing)
        return env

    def stmt(self, s: lang.Stmt, env: _Env, mask, fixing: bool) -> _Env:
        mask = self.tick(mask)
        if isinstance(s, lang.Assign):
            lo, hi = self.expr(s.expr, env, mask, not fixing)
            r = self.row[s.name]
            new_lo, new_hi = env.lo.copy(), env.hi.copy()
            new_lo[r], new_hi[r] = lo, hi
            return _Env(env.reach & ~(new_lo[r] > new_hi[r]), new_lo, new_hi)
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
                if not run.any():
                    break
                enter = self.filter(env, s.cond, True, run)
                leave = self.filter(env, s.cond, False, run)
                out = _select(run & ~enter.reach, leave, out)
                undecided = run & enter.reach & leave.reach
                fix_env = _select(undecided, env, fix_env)
                fix_mask |= undecided
                run = run & enter.reach & ~leave.reach
                if not run.any():
                    break
                env = self.block(s.body, enter.only(run), False)
                self.word[-1] += 1
            self.word.pop()
            fix_env = _select(run, env, fix_env)
            fix_mask |= run
        if fix_mask.any():
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
            if not run.any():
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
            if not run.any():
                break
            nacc = _narrow(acc, _join(env, step(acc, run)))
            run = run & ~_equal(nacc, acc)
            acc = _select(run, nacc, acc)
        self.widened += widened & self.live
        return self.filter(acc, s.cond, False, mask & self.live)

    # -- trials -----------------------------------------------------------

    def run(self):
        """Run the batch: its final environments, and the lanes whose
        outcome is possible, every aborted lane among them and no lane
        handed back."""

        shape = (len(self.kinds), self.n)
        env = _Env(np.ones(self.n, dtype=bool), np.full(shape, -_INF), np.full(shape, _INF))
        with np.errstate(all="ignore"):
            env = self.block(self.program.body, env, False)
            hits = self.filter(env, self.program.outcome, True, env.reach & self.live).reach
        return env, (hits & self.live) | self.aborted


def _definitely_empty(op: str, a, b):
    """`intervals._definitely_empty` on lanes."""

    (alo, ahi), (blo, bhi) = a, b
    empty = (alo > ahi) | (blo > bhi)
    if op == "<":
        return empty | (alo >= bhi)
    if op == "<=":
        return empty | (alo > bhi)
    if op == ">":
        return empty | (ahi <= blo)
    if op == ">=":
        return empty | (ahi < blo)
    if op == "==":
        return empty | (np.maximum(alo, blo) > np.minimum(ahi, bhi))
    return empty | ((alo == ahi) & (ahi == blo) & (blo == bhi))  # !=
