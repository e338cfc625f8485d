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

Guard filtering (`filter_env`) refines an environment by a condition.
Comparisons of shape ``var op e`` and ``e op var`` refine the variable
against the interval of ``e``; other shapes refine nothing, which is
sound.  Decisions about definite emptiness use exact comparison
semantics; only the refined intervals weaken strict real inequalities
to their closed form (the boundary has measure zero).

The rules on bounds are written once for the scalar engine and `lanes`,
and take Python numbers and numpy arrays of bounds alike: outward
rounding (`_outward` with `_sum_is_exact` or `_product_is_exact`), the
lattice rules on a pair of bounds (`_hull`, `_meet`, `_widened`,
`_narrowed`, their ties decided by `_outside`) and the guard rules
(`_definitely_empty`, `_constraint`, `_cut`).  A pair is a tuple (lower,
upper) of numbers, or a (2, ...) array.  The operations that numbers and
arrays spell differently come as ``xp``: `_NUMBERS` by default, numpy's
from `lanes`, so this module imports no numpy.

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
    where=_where, isinf=math.isinf, nextafter=math.nextafter, copysign=math.copysign,
    any=bool, all=bool, toward=(-INF, INF),
)


def _sum_is_exact(a: float, b: float, s: float) -> bool:
    # TwoSum error term; zero iff a + b == s exactly (`&`, not `and`: arrays too)
    bv = s - a
    av = s - bv
    return ((a - av) == 0.0) & ((b - bv) == 0.0)


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
    out = xp.where(exact, r, xp.nextafter(r, toward))
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

    __slots__ = ("values",)

    def __init__(self, values: dict[str, Interval] | None):
        self.values = values

    @classmethod
    def unreachable(cls) -> "AbstractEnv":
        return cls(None)

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


# ---------------------------------------------------------------------------
# Expression ranges and guard filtering
# ---------------------------------------------------------------------------


def eval_range(expr: lang.Expr, env: AbstractEnv, draw=None) -> Interval:
    """Interval of an expression's possible values.  Generators contribute
    their full range, unless a ``draw`` hook is given: then each generator
    node evaluates to ``draw(node)``, in left-to-right order."""

    if isinstance(expr, lang.Lit):
        return Interval.const(expr.kind, expr.value)
    if isinstance(expr, lang.Var):
        return env.get(expr.name)
    if isinstance(expr, lang.Binary):
        if expr.op == "*":  # the left is the literal coefficient
            return eval_range(expr.right, env, draw).scale(expr.left.value)
        left, right = eval_range(expr.left, env, draw), eval_range(expr.right, env, draw)
        return left.add(right) if expr.op == "+" else left.sub(right)
    if isinstance(expr, lang.Draw):
        return GENERATOR_RANGE[expr.kind] if draw is None else draw(expr)
    raise DomainError(f"unknown expression node {type(expr).__name__}")


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


def _refine_var(env: AbstractEnv, name: str, op: str, b: Interval) -> AbstractEnv:
    nv = _refined(env.get(name), op, b)
    if nv.is_bottom():
        return AbstractEnv.unreachable()
    return env.assign(name, nv)


_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _refine_cmp(env: AbstractEnv, left: lang.Expr, op: str, right: lang.Expr) -> AbstractEnv:
    li = eval_range(left, env)
    ri = eval_range(right, env)
    if _definitely_empty(op, li.lo, li.hi, ri.lo, ri.hi):
        return AbstractEnv.unreachable()
    out = env
    if isinstance(left, lang.Var):
        out = _refine_var(out, left.name, op, ri)
        if out.is_bottom():
            return out
    if isinstance(right, lang.Var):
        out = _refine_var(out, right.name, _MIRROR[op], li)
    return out


def filter_env(env: AbstractEnv, cond: lang.Expr, polarity: bool = True) -> AbstractEnv:
    """Sound refinement of ``env`` by ``cond`` (or its negation when
    polarity is false); every concrete environment satisfying the
    condition stays inside the result."""

    if env.is_bottom():
        return env
    op = cond.op
    if op in _NEGATED:
        return _refine_cmp(env, cond.left, op if polarity else _NEGATED[op], cond.right)
    if op not in ("&&", "||"):
        raise DomainError(f"unknown condition operator {op!r}")
    # a conjunction (&& or a negated ||) refines by both sides in turn,
    # a disjunction joins the refinements by each side
    if (op == "&&") == polarity:
        return filter_env(filter_env(env, cond.left, polarity), cond.right, polarity)
    return filter_env(env, cond.left, polarity).join(filter_env(env, cond.right, polarity))
