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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import lang
from .lang import Kind

INF = float("inf")
_MAX = sys.float_info.max


class DomainError(Exception):
    """Kind mismatch or malformed interval operation."""


# ---------------------------------------------------------------------------
# Outward-rounded double arithmetic
#
# IEEE add/sub/mul are correctly rounded, so the exact result is within
# one ulp of the computed one; a single nextafter step is enough.
# ---------------------------------------------------------------------------


def _sum_is_exact(a: float, b: float, s: float) -> bool:
    # TwoSum error term; zero iff a + b == s exactly.  `&` rather than
    # `and`, so that `lanes` applies it to arrays too
    bv = s - a
    av = s - bv
    return ((a - av) == 0.0) & ((b - bv) == 0.0)


def _mul_is_exact(a: float, b: float, p: float) -> bool:
    return Fraction(a) * Fraction(b) == Fraction(p)


def _outward(r: float, a: float, b: float, exact, toward: float) -> float:
    """``r``, the rounded sum or product of ``a`` and ``b``, moved one ulp
    toward ``toward`` (-INF or INF) unless ``exact(a, b, r)`` says it is the
    exact result.  An overflow away from ``toward`` stops at the largest
    finite double, unless an operand is infinite."""

    if r != r:
        if exact is _sum_is_exact:
            raise DomainError("undefined sum of infinities")
        raise DomainError("undefined product with infinity")
    if math.isinf(r):  # finite operands whose result overflowed, or infinite ones
        if r == toward or math.isinf(a) or math.isinf(b):
            return r
        return math.copysign(_MAX, r)
    return r if exact(a, b, r) else math.nextafter(r, toward)


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


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval of one scalar kind; construct via the factories."""

    kind: Kind
    lo: int | float
    hi: int | float

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
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        return Interval(self.kind, min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        self._check_kind(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.kind)
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return Interval.bottom(self.kind)
        return Interval(self.kind, lo, hi)

    def widen(self, other: "Interval") -> "Interval":
        """Bounds of ``other`` strictly beyond ours become infinite."""

        self._check_kind(other)
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        lo = self.lo if other.lo >= self.lo else -INF
        hi = self.hi if other.hi <= self.hi else INF
        return Interval(self.kind, lo, hi)

    def narrow(self, other: "Interval") -> "Interval":
        """Refine infinite bounds to ``other``'s; requires other <= self."""

        self._check_kind(other)
        if other.is_bottom() or self.is_bottom():
            return Interval.bottom(self.kind)
        lo = other.lo if self.lo == -INF else self.lo
        hi = other.hi if self.hi == INF else self.hi
        return Interval.make(self.kind, lo, hi)

    # arithmetic

    def add(self, other: "Interval") -> "Interval":
        self._check_kind(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.kind)
        if self.kind is Kind.INT:
            return Interval.make(
                self.kind, _int_sum(self.lo, other.lo), _int_sum(self.hi, other.hi)
            )
        return Interval.make(
            self.kind,
            _outward(self.lo + other.lo, self.lo, other.lo, _sum_is_exact, -INF),
            _outward(self.hi + other.hi, self.hi, other.hi, _sum_is_exact, INF),
        )

    def sub(self, other: "Interval") -> "Interval":
        self._check_kind(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.kind)
        if self.kind is Kind.INT:
            return Interval.make(
                self.kind, _int_sum(self.lo, -other.hi), _int_sum(self.hi, -other.lo)
            )
        return Interval.make(
            self.kind,
            _outward(self.lo - other.hi, self.lo, -other.hi, _sum_is_exact, -INF),
            _outward(self.hi - other.lo, self.hi, -other.lo, _sum_is_exact, INF),
        )

    def scale(self, coeff) -> "Interval":
        """Multiply by a literal coefficient of the same kind."""

        if self.is_bottom():
            return self
        if coeff == 0:
            return Interval.const(self.kind, coeff)
        if self.kind is Kind.INT:
            a, b = _int_scaled(coeff, self.lo), _int_scaled(coeff, self.hi)
            return Interval.make(self.kind, min(a, b), max(a, b))
        c = float(coeff)
        lo, hi = (self.lo, self.hi) if c > 0 else (self.hi, self.lo)
        return Interval.make(
            self.kind,
            _outward(c * lo, c, lo, _mul_is_exact, -INF),
            _outward(c * hi, c, hi, _mul_is_exact, INF),
        )

    # rendering

    def render(self) -> str:
        if self.is_bottom():
            return "bottom"
        left = "(-inf" if self.lo == -INF else "[" + _fmt(self.kind, self.lo)
        right = "+inf)" if self.hi == INF else _fmt(self.kind, self.hi) + "]"
        return f"{left}, {right}"

    def __str__(self) -> str:
        return self.render()


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

    def join(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.values is None:
            return other
        if other.values is None:
            return self
        return AbstractEnv(
            {name: iv.join(other.values[name]) for name, iv in self.values.items()}
        )

    def widen(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.values is None:
            return other
        if other.values is None:
            return self
        return AbstractEnv(
            {name: iv.widen(other.values[name]) for name, iv in self.values.items()}
        )

    def narrow(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.values is None or other.values is None:
            return AbstractEnv.unreachable()
        return AbstractEnv(
            {name: iv.narrow(other.values[name]) for name, iv in self.values.items()}
        )

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


def _definitely_empty(op: str, a: Interval, b: Interval) -> bool:
    """No pair (x in a, y in b) satisfies ``x op y``.  Exact, including
    strict comparisons on reals."""

    if a.is_bottom() or b.is_bottom():
        return True
    if op == "<":
        return a.lo >= b.hi
    if op == "<=":
        return a.lo > b.hi
    if op == ">":
        return a.hi <= b.lo
    if op == ">=":
        return a.hi < b.lo
    if op == "==":
        return max(a.lo, b.lo) > min(a.hi, b.hi)
    if op == "!=":
        return a.lo == a.hi == b.lo == b.hi
    raise DomainError(f"unknown comparison operator {op!r}")


def _constraint(op: str, b: Interval, kind: Kind) -> Interval:
    """Values of the left operand compatible with ``left op b`` for some
    value of b.  Strict real comparisons weaken to their closed form."""

    if op == "<":
        hi = b.hi - 1 if (kind is Kind.INT and b.hi != INF) else b.hi
        return Interval.make(kind, -INF, hi)
    if op == "<=":
        return Interval.make(kind, -INF, b.hi)
    if op == ">":
        lo = b.lo + 1 if (kind is Kind.INT and b.lo != -INF) else b.lo
        return Interval.make(kind, lo, INF)
    if op == ">=":
        return Interval.make(kind, b.lo, INF)
    if op == "==":
        return b
    raise DomainError(f"unknown comparison operator {op!r}")


def _refine_var(env: AbstractEnv, name: str, op: str, b: Interval) -> AbstractEnv:
    cur = env.get(name)
    if op == "!=":
        if b.lo == b.hi and cur.kind is Kind.INT and not b.is_bottom():
            v = b.lo
            lo = cur.lo + 1 if cur.lo == v else cur.lo
            hi = cur.hi - 1 if cur.hi == v else cur.hi
            nv = Interval.make(cur.kind, lo, hi)
        else:
            nv = cur
    else:
        nv = cur.meet(_constraint(op, b, cur.kind))
    if nv.is_bottom():
        return AbstractEnv.unreachable()
    return env.assign(name, nv)


_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _refine_cmp(env: AbstractEnv, left: lang.Expr, op: str, right: lang.Expr) -> AbstractEnv:
    li = eval_range(left, env)
    ri = eval_range(right, env)
    if _definitely_empty(op, li, ri):
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
