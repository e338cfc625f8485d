"""Interval domain over program variables.

Values are closed intervals with optionally infinite ends, one flavor per
scalar kind.  INT intervals keep finite bounds as Python integers, so
their arithmetic is exact.  REAL intervals are double precision with
outward rounding: whenever a bound computation is inexact in floating
point it is nudged one ulp outward, so every operation result contains
the exact real-arithmetic image of its inputs.

The empty interval (bottom) is the canonical ``[+inf, -inf]``; an
AbstractEnv is either unreachable or a total map from declared variables
to intervals, with unreachability absorbing every operation.

Lattice operations follow the classic scheme:

* join is the interval hull, meet the intersection;
* widening jumps any unstable bound to infinity, so ascending chains
  stabilize after at most two widenings per bound;
* narrowing refines only infinite bounds, so descending iteration
  terminates while staying above the limit.

Guard filtering (`filter_env`) refines an environment by a condition,
and `split_env` by both polarities, from one evaluation of a comparison's
operands.  ``var op e`` and ``e op var`` refine the variable against the
value of ``e`` (a refinement that keeps its interval binds nothing); other
shapes refine nothing, which is sound.  Definite emptiness is decided
exactly; only refined intervals weaken strict real inequalities to their
closed form (the boundary has measure zero).  These and `eval_range` are
both engines' one guard walk and expression walk, over a value algebra
``alg`` and a ``mask`` of lanes: `_SCALAR` and True on an `AbstractEnv`,
or a `lanes._Lanes` block, whose values are shared `Interval`s or bounds.

The rules on bounds are written once for the scalar engine and `lanes`,
and take Python numbers and numpy arrays of bounds alike: outward
rounding (`_outward`, which nudges only the inexact bounds by Fast2Sum's
`_sum_is_exact` or TwoProduct's `_product_is_exact`), the lattice rules
on a pair of bounds (`_hull`, `_meet`, `_widened`, `_narrowed`, ties
decided by `_outside`) and the guard rules (`_definitely_empty`,
`_constraint`, `_cut`).  A pair is a tuple (lower, upper) of numbers, or
a (2, ...) array.  Operations that numbers and arrays spell differently
come as ``xp`` (`_NUMBERS` by default, numpy's from `lanes`: no numpy here).

An `Interval` is immutable by contract: only its ``__init__`` sets
``kind``, ``lo`` and ``hi``, and a test checks the package's source for
any other write, so environments, lane blocks and reused fixpoint passes
share interval objects.  Operations keep identity where they change
nothing: a lattice operation whose rule gives back an operand's own
bound objects returns that operand, and `AbstractEnv.join`, ``widen``
and ``narrow`` keep a variable's object that both sides hold.  It is a
plain slotted class: a frozen dataclass's ``__init__`` costs about three
times as much.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import lang
from .lang import Kind

INF = float("inf")
_MAX = sys.float_info.max


class DomainError(Exception):
    """Kind mismatch or malformed interval operation."""


# ---------------------------------------------------------------------------
# Rules on bounds, for numbers and lane arrays
# ---------------------------------------------------------------------------


def _where(c, a, b):
    """`numpy.where` on numbers, or on pairs by a pair of conditions."""

    if type(c) is tuple:
        return (a[0] if c[0] else b[0], a[1] if c[1] else b[1])
    return a if c else b


# ``xp`` on numbers; ``toward`` is where each bound of a pair rounds and widens
_NUMBERS = SimpleNamespace(
    where=_where, isinf=math.isinf, copysign=math.copysign, any=bool, all=bool,
    nudge=lambda r, toward, exact: r if exact else math.nextafter(r, toward), toward=(-INF, INF),
)


def _sum_is_exact(a: float, b: float, s: float) -> bool:
    # Fast2Sum: s - a is exact when |a| >= |b| (and s - b otherwise), so it
    # equals b iff a + b == s exactly (`&`, not `and`: arrays too)
    return (s - a == b) & (s - b == a)


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# nonzero factors of a REAL product inside this magnitude range split
# without overflow and leave an error term above the subnormal range
_PRODUCT_RANGE = (2.0**-480, 2.0**480)


def _split(a):
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


def _outside_product_range(x):
    """Finite nonzero factors outside `_PRODUCT_RANGE` (an infinite one needs no test)."""

    magnitude = abs(x)
    tiny = (magnitude < _PRODUCT_RANGE[0]) & (x != 0.0)
    huge = (magnitude > _PRODUCT_RANGE[1]) & (magnitude < INF)
    return tiny | huge


def _product_is_exact(a, b, p):
    """Whether ``p``, the rounded product of ``a`` and ``b``, is exact: by
    Dekker's TwoProduct for factors inside `_PRODUCT_RANGE`, and outside it
    by `Fraction` on numbers (lanes hand such a lane back)."""

    if type(b) is float and (_outside_product_range(a) or _outside_product_range(b)):
        return math.isfinite(p) and Fraction(a) * Fraction(b) == Fraction(p)
    (ah, al), (bh, bl) = _split(a), _split(b)
    return al * bl - (((p - ah * bh) - al * bh) - ah * bl) == 0.0


def _outward(r, a, b, exact, toward, xp=_NUMBERS):
    """``r``, the rounded sum or product of ``a`` and ``b``, one ulp toward
    ``toward`` unless ``exact(a, b, r)``; IEEE rounds correctly, so one step
    holds the exact result.  An overflow away from ``toward`` stops at the
    largest finite double, unless an operand is infinite.  A NaN stays NaN:
    the scalar engine raises on it, and lanes hand its lane back."""

    exact = exact(a, b, r)
    if xp.all(exact):
        return r  # an exact sum or product is finite
    out = xp.nudge(r, toward, exact)
    infinite = xp.isinf(r)  # finite operands whose result overflowed, or infinite ones
    if not xp.any(infinite):
        return out
    keep = (r == toward) | xp.isinf(a) | xp.isinf(b)
    return xp.where(infinite, xp.where(keep, r, xp.copysign(_MAX, r)), out)


def _empty(x):
    return x[0] > x[1]


def _outside(x, y):
    """Whether each bound of the pair ``x`` lies outside ``y``'s: below it
    for the lower bound, above it for the upper.  A tie is not outside: the
    hull and meet keep the first argument's bound, zero sign and all."""

    return x[0] < y[0], y[1] < x[1]


def _hull(x, y, xp=_NUMBERS):
    """The bounds of the join of ``x`` and ``y``; the canonical empty
    ``[inf, -inf]``, with no bound outside another, joins to the other."""

    return xp.where(_outside(y, x), y, x)


def _meet(x, y, xp=_NUMBERS):
    """The bounds of the meet of ``x`` and ``y``, empty or not; ``x``
    itself when no bound of ``y`` lies inside ``x``'s."""

    inside = _outside(x, y)
    if not (xp.any(inside[0]) or xp.any(inside[1])):
        return x
    return xp.where(inside, y, x)


def _widened(x, y, xp=_NUMBERS):
    """The bounds of ``x`` widened by ``y``: a bound of ``y`` outside goes to
    infinity.  An empty ``x`` widens to ``y``; the canonical empty ``y``,
    with no bound outside, to ``x``."""

    return xp.where(_empty(x), y, xp.where(_outside(y, x), xp.toward, x))


def _narrowed(x, y, xp=_NUMBERS):
    """The bounds of ``x`` narrowed by ``y``: an infinite bound of ``x``
    refines to ``y``'s; empty when either is, or the result is."""

    out = xp.where((x[0] == -INF, x[1] == INF), y, x)
    return xp.where(_empty(x) | _empty(y) | _empty(out), xp.toward[::-1], out)


def _int_sum(a, b):
    """a + b for INT bounds of one side (both lower or both upper).  An
    infinite operand gives the infinite bound first: adding an int past
    the float range to a float would raise OverflowError."""

    if type(a) is float:
        return a
    if type(b) is float:
        return b
    return a + b


def _int_scaled(c: int, x):
    """c * x for a nonzero INT coefficient and an INT bound, infinite
    bounds first as in `_int_sum`."""

    if type(x) is float:
        return x if c > 0 else -x
    return c * x


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------


def _norm_bound(kind: Kind, x) -> int | float:
    if kind is Kind.INT:
        if type(x) is int:
            return x
        if math.isinf(x):
            return x
        i = int(x)
        if i != x:
            raise DomainError(f"non-integral bound {x!r} for an integer interval")
        return i
    if type(x) is float:
        return x
    return float(x)


class Interval:
    """A closed interval of one scalar kind; construct via the factories.
    Immutable by contract: environments and lanes share one object."""

    __slots__ = ("kind", "lo", "hi")

    def __init__(self, kind: Kind, lo: int | float, hi: int | float):
        self.kind = kind
        self.lo = lo
        self.hi = hi

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.lo, self.hi) == (other.kind, other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.kind, self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(kind={self.kind!r}, lo={self.lo!r}, hi={self.hi!r})"

    @staticmethod
    def make(kind: Kind, lo, hi) -> "Interval":
        if lo > hi:
            return Interval.bottom(kind)
        return Interval(kind, _norm_bound(kind, lo), _norm_bound(kind, hi))

    @staticmethod
    def bottom(kind: Kind) -> "Interval":
        return _BOTTOM[kind]

    @staticmethod
    def top(kind: Kind) -> "Interval":
        return _TOP[kind]

    @staticmethod
    def const(kind: Kind, value) -> "Interval":
        v = _norm_bound(kind, value)
        return Interval(kind, v, v)

    def is_bottom(self) -> bool:
        return self.lo > self.hi

    def _check_kind(self, other: "Interval") -> None:
        if self.kind is not other.kind:
            raise DomainError(f"kind mismatch: {self.kind.value} vs {other.kind.value}")

    # lattice

    def join(self, other: "Interval") -> "Interval":
        self._check_kind(other)
        return _interval_of(self, other, _hull((self.lo, self.hi), (other.lo, other.hi)))

    def meet(self, other: "Interval") -> "Interval":
        self._check_kind(other)
        bounds = _meet((self.lo, self.hi), (other.lo, other.hi))
        if bounds[0] > bounds[1]:
            return Interval.bottom(self.kind)
        return _interval_of(self, other, bounds)

    def widen(self, other: "Interval") -> "Interval":
        """Bounds of ``other`` strictly beyond ours become infinite."""

        self._check_kind(other)
        return _interval_of(self, other, _widened((self.lo, self.hi), (other.lo, other.hi)))

    def narrow(self, other: "Interval") -> "Interval":
        """Refine infinite bounds to ``other``'s; requires other <= self."""

        self._check_kind(other)
        return _interval_of(self, other, _narrowed((self.lo, self.hi), (other.lo, other.hi)))

    # arithmetic

    def add(self, other: "Interval") -> "Interval":
        self._check_kind(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.kind)
        if self.kind is Kind.INT:
            return Interval(self.kind, _int_sum(self.lo, other.lo), _int_sum(self.hi, other.hi))
        lo = _outward(self.lo + other.lo, self.lo, other.lo, _sum_is_exact, -INF)
        hi = _outward(self.hi + other.hi, self.hi, other.hi, _sum_is_exact, INF)
        if lo != lo or hi != hi:
            raise DomainError("undefined sum of infinities")
        return Interval(self.kind, lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        # the sum with other's mirror: IEEE a - b is a + (-b) bit for bit
        return self.add(Interval(other.kind, -other.hi, -other.lo))

    def scale(self, coeff) -> "Interval":
        """Multiply by a literal coefficient of the same kind."""

        if self.is_bottom():
            return self
        if coeff == 0:
            return Interval.const(self.kind, coeff)
        if self.kind is Kind.INT:
            a, b = _int_scaled(coeff, self.lo), _int_scaled(coeff, self.hi)
            return Interval(self.kind, *_hull((a, a), (b, b)))  # the products' order
        c = float(coeff)
        lo, hi = (self.lo, self.hi) if c > 0 else (self.hi, self.lo)
        lo = _outward(c * lo, c, lo, _product_is_exact, -INF)
        hi = _outward(c * hi, c, hi, _product_is_exact, INF)
        if lo != lo or hi != hi:
            raise DomainError("undefined product with infinity")
        return Interval(self.kind, lo, hi)

    # rendering

    def render(self) -> str:
        if self.is_bottom():
            return "bottom"
        left = "(-inf" if self.lo == -INF else "[" + _fmt(self.kind, self.lo)
        right = "+inf)" if self.hi == INF else _fmt(self.kind, self.hi) + "]"
        return f"{left}, {right}"

    def __str__(self) -> str:
        return self.render()


def _interval_of(a: Interval, b: Interval, bounds) -> Interval:
    """The interval of a lattice rule's ``bounds`` on ``a`` and ``b``: ``a``
    or ``b`` itself when it holds those very bound objects, so the result
    of an operation that changes nothing is its operand."""

    lo, hi = bounds
    if lo is a.lo and hi is a.hi:
        return a
    if lo is b.lo and hi is b.hi:
        return b
    return Interval(a.kind, lo, hi)


def _fmt(kind: Kind, x) -> str:
    if kind is Kind.INT and x not in (INF, -INF):  # an INT bound may pass float range
        return str(int(x))
    return repr(float(x))


_BOTTOM = {k: Interval(k, INF, -INF) for k in Kind}
_TOP = {k: Interval(k, -INF, INF) for k in Kind}
GENERATOR_RANGE = {Kind.INT: Interval(Kind.INT, 0, 1), Kind.REAL: Interval(Kind.REAL, 0.0, 1.0)}


# ---------------------------------------------------------------------------
# Abstract environments
# ---------------------------------------------------------------------------


class AbstractEnv:
    """Either unreachable (bottom) or a total map variable -> Interval."""

    __slots__ = ("values", "reach")

    def __init__(self, values: dict[str, Interval] | None):
        self.values = values
        self.reach = values is not None  # the mask of one lane in `interp`'s walk

    @staticmethod
    def unreachable() -> "AbstractEnv":
        return _UNREACHABLE

    @classmethod
    def tops(cls, kinds: dict[str, Kind]) -> "AbstractEnv":
        return cls({name: Interval.top(kind) for name, kind in kinds.items()})

    def is_bottom(self) -> bool:
        return self.values is None

    def get(self, name: str) -> Interval:
        if self.values is None:
            raise DomainError("lookup in unreachable environment")
        try:
            return self.values[name]
        except KeyError:
            raise DomainError(f"undeclared variable '{name}'") from None

    def assign(self, name: str, iv: Interval) -> "AbstractEnv":
        if self.values is None:
            return self
        if name not in self.values:
            raise DomainError(f"undeclared variable '{name}'")
        if iv.is_bottom():
            return AbstractEnv.unreachable()
        values = dict(self.values)
        values[name] = iv
        return AbstractEnv(values)

    def _pair(self, other: "AbstractEnv", rule) -> "AbstractEnv":
        """``rule`` variable by variable; a value both hold as one object is
        kept, as every rule gives it back (no environment holds an empty)."""

        theirs = other.values
        return AbstractEnv(
            {name: iv if iv is theirs[name] else rule(iv, theirs[name])
             for name, iv in self.values.items()}
        )

    def join(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.values is None:
            return other
        if other.values is None:
            return self
        return self._pair(other, Interval.join)

    def widen(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.values is None:
            return other
        if other.values is None:
            return self
        return self._pair(other, Interval.widen)

    def narrow(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.values is None or other.values is None:
            return AbstractEnv.unreachable()
        return self._pair(other, Interval.narrow)

    def __eq__(self, other) -> bool:
        return isinstance(other, AbstractEnv) and self.values == other.values

    def __repr__(self) -> str:
        return f"AbstractEnv({self.render()})"

    def render(self) -> str:
        if self.values is None:
            return "unreachable"
        return " ".join(f"{name}={iv.render()}" for name, iv in self.values.items())


_UNREACHABLE = AbstractEnv(None)

# ---------------------------------------------------------------------------
# Expression ranges and guard filtering
# ---------------------------------------------------------------------------


_SCALAR = SimpleNamespace(
    get=AbstractEnv.get, bind=AbstractEnv.assign, join=AbstractEnv.join, none=False,
    checked=lambda value, mask: value,
    add=lambda kind, op, a, b, mask: a.add(b) if op == "+" else a.sub(b),
    scale=lambda kind, a, c, mask: a.scale(c),
    drop=lambda env, empty: _UNREACHABLE if empty else env,
)


def eval_range(expr: lang.Expr, env, draw=None, alg=_SCALAR, mask=True):
    """Interval of an expression's possible values, or its value under
    the value algebra ``alg`` on the lanes of ``mask``.  Generators
    contribute their full range, unless a ``draw`` hook is given: then
    each generator node evaluates to ``draw(node, mask)``, in
    left-to-right order."""

    node = type(expr)
    if node is lang.Var:
        return alg.get(env, expr.name)
    if node is lang.Lit:
        return alg.checked(Interval(expr.kind, expr.value, expr.value), mask)
    if node is lang.Binary:
        if expr.op == "*":  # the left is the literal coefficient
            right = eval_range(expr.right, env, draw, alg, mask)
            return alg.scale(expr.kind, right, expr.left.value, mask)
        left = eval_range(expr.left, env, draw, alg, mask)
        right = eval_range(expr.right, env, draw, alg, mask)
        return alg.add(expr.kind, expr.op, left, right, mask)
    if node is lang.Draw:
        return GENERATOR_RANGE[expr.kind] if draw is None else draw(expr, mask)
    raise DomainError(f"unknown expression node {node.__name__}")


_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def _definitely_empty(op: str, alo, ahi, blo, bhi):
    """No pair (x in [alo, ahi], y in [blo, bhi]) satisfies ``x op y``.
    Exact, including strict comparisons on reals.  `|` and `&` rather than
    `or` and `and`, so that `lanes` applies it to arrays of bounds too."""

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
        return empty | (alo > bhi) | (blo > ahi)
    if op == "!=":
        return empty | ((alo == ahi) & (ahi == blo) & (blo == bhi))
    raise DomainError(f"unknown comparison operator {op!r}")


def _constraint(op: str, blo, bhi, integral: bool):
    """The bounds (lo, hi) of the values x with ``x op b`` for some b in
    [blo, bhi], on numbers or arrays of bounds.  Strict real comparisons
    weaken to their closed form; ``inf - 1`` is ``inf``."""

    if op == "<":
        return -INF, bhi - 1 if integral else bhi
    if op == "<=":
        return -INF, bhi
    if op == ">":
        return blo + 1 if integral else blo, INF
    if op == ">=":
        return blo, INF
    if op == "==":
        return blo, bhi
    raise DomainError(f"unknown comparison operator {op!r}")


def _cut(clo, chi, blo, bhi):
    """The INT bounds (lo, hi) of the values x in [clo, chi] with ``x != y``
    for some y in [blo, bhi], on numbers or arrays of bounds: an endpoint
    equal to b's single value moves inward by one.  Both move by
    subtraction, which keeps the bits of an endpoint that stays, the sign
    of a zero among them (``-0.0 - 0`` is ``-0.0`` where ``-0.0 + 0`` is
    ``0.0``).  An empty b is never a single value."""

    single = blo == bhi
    return clo - (single & (clo == blo)) * -1, chi - (single & (chi == bhi))


def _refined(cur: Interval, op: str, b: Interval) -> Interval:
    """``cur`` narrowed to the values x with ``x op y`` for some y in b."""

    if op != "!=":
        pair = (cur.lo, cur.hi)
        bounds = _meet(pair, _constraint(op, b.lo, b.hi, cur.kind is Kind.INT))
        if bounds[0] > bounds[1]:
            return Interval.bottom(cur.kind)
        return cur if bounds is pair else Interval(cur.kind, *bounds)
    if cur.kind is Kind.INT:
        return Interval.make(cur.kind, *_cut(cur.lo, cur.hi, b.lo, b.hi))
    return cur


def _refine_var(env, name: str, op: str, b, alg, mask):
    cur = alg.get(env, name)
    if type(cur) is Interval and type(b) is Interval:
        new = _refined(cur, op, b)
        return env if new is cur else alg.bind(env, name, alg.checked(new, mask))
    return alg.refine(env, name, op, cur, b, mask)


_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _refine_cmp(env, left: lang.Expr, op: str, right: lang.Expr, a, b, alg, mask):
    alo, ahi = (a.lo, a.hi) if type(a) is Interval else a  # or lanes' (2, lanes)
    blo, bhi = (b.lo, b.hi) if type(b) is Interval else b
    empty = _definitely_empty(op, alo, ahi, blo, bhi)
    if empty is not False:  # a mask of lanes, or True
        env = alg.drop(env, empty)
    if isinstance(left, lang.Var) and env.reach is not alg.none:
        env = _refine_var(env, left.name, op, b, alg, mask)
    if isinstance(right, lang.Var) and env.reach is not alg.none:
        env = _refine_var(env, right.name, _MIRROR[op], a, alg, mask)
    return env


def filter_env(env, cond: lang.Expr, polarity: bool = True, alg=_SCALAR, mask=True):
    """Sound refinement of ``env`` by ``cond`` (or its negation when
    polarity is false); every concrete environment satisfying the
    condition stays inside the result.  Under the value algebra ``alg``,
    values are computed on the lanes of ``mask``."""

    if env.reach is alg.none:
        return env
    op = cond.op
    if op in _NEGATED:
        if mask is not env.reach:
            mask = mask & env.reach
        left, right = cond.left, cond.right
        a, b = eval_range(left, env, None, alg, mask), eval_range(right, env, None, alg, mask)
        return _refine_cmp(env, left, op if polarity else _NEGATED[op], right, a, b, alg, mask)
    if op not in ("&&", "||"):
        raise DomainError(f"unknown condition operator {op!r}")
    # a conjunction (&& or a negated ||) refines by both sides in turn,
    # a disjunction joins the refinements by each side
    if (op == "&&") == polarity:
        env = filter_env(env, cond.left, polarity, alg, mask)
        return filter_env(env, cond.right, polarity, alg, mask)
    either = filter_env(env, cond.left, polarity, alg, mask)
    return alg.join(either, filter_env(env, cond.right, polarity, alg, mask))


def split_env(env, cond: lang.Expr, alg=_SCALAR, mask=True):
    """`filter_env` of ``cond`` and of its negation, a comparison's operands
    evaluated once; `&&` and `||` filter each polarity (one joins refinements of ``env``)."""

    if cond.op not in _NEGATED or env.reach is alg.none:
        return filter_env(env, cond, True, alg, mask), filter_env(env, cond, False, alg, mask)
    if mask is not env.reach:
        mask = mask & env.reach
    left, right = cond.left, cond.right
    a, b = eval_range(left, env, None, alg, mask), eval_range(right, env, None, alg, mask)
    then_env = _refine_cmp(env, left, cond.op, right, a, b, alg, mask)
    return then_env, _refine_cmp(env, left, _NEGATED[cond.op], right, a, b, alg, mask)
