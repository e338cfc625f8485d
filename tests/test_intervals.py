import ast
import copy
import dataclasses
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from absmc import lang
from absmc.intervals import (
    _MAX,
    _PRODUCT_RANGE,
    INF,
    AbstractEnv,
    DomainError,
    Interval,
    _constraint,
    _cut,
    _definitely_empty,
    _hull,
    _meet,
    _narrowed,
    _outside_product_range,
    _outward,
    _product_is_exact,
    _refined,
    _sum_is_exact,
    _widened,
    filter_env,
)
from absmc.lanes import _ARRAYS, _TOWARD
from absmc.lang import Kind

I = lambda lo, hi: Interval.make(Kind.INT, lo, hi)  # noqa: E731
R = lambda lo, hi: Interval.make(Kind.REAL, lo, hi)  # noqa: E731
BOT_I = Interval.bottom(Kind.INT)


def gamma(iv):
    """Concretization of a small integer interval."""
    assert not math.isinf(iv.lo) and not math.isinf(iv.hi) or iv.is_bottom()
    if iv.is_bottom():
        return set()
    return set(range(int(iv.lo), int(iv.hi) + 1))


# --- documented examples -----------------------------------------------------


def test_join_examples():
    assert I(0, 1).join(I(3, 5)) == I(0, 5)
    assert BOT_I.join(I(1, 2)) == I(1, 2)
    assert I(0, 2).join(I(1, 3)) == I(0, 3)


def test_meet_examples():
    assert I(0, 5).meet(I(3, 9)) == I(3, 5)
    assert I(0, 1).meet(I(2, 3)).is_bottom()
    assert I(0, INF).meet(I(-INF, 3)) == I(0, 3)


def test_widen_examples():
    assert I(0, 1).widen(I(0, 2)) == I(0, INF)
    assert I(0, 1).widen(I(0, 1)) == I(0, 1)
    assert I(-1, 1).widen(I(-2, 1)) == I(-INF, 1)


def test_narrow_examples():
    assert I(0, INF).narrow(I(0, 4)) == I(0, 4)
    assert I(0, 5).narrow(I(1, 4)) == I(0, 5)  # finite bounds kept
    assert BOT_I.narrow(BOT_I).is_bottom()


def test_arith_examples():
    assert I(0, 2).add(I(3, 4)) == I(3, 6)
    assert I(1, 2).sub(I(0, 1)) == I(0, 2)
    assert I(1, 3).scale(-2) == I(-6, -2)
    huge = 10**400  # past the float range: infinite bounds stay infinite
    assert I(0, INF).add(I(huge, huge)) == I(huge, INF)
    assert I(-INF, 0).sub(I(-huge, huge)) == I(-INF, huge)
    assert I(1, INF).scale(-huge) == I(-INF, -huge)


def test_kind_mismatch_raises():
    with pytest.raises(DomainError):
        I(0, 1).join(R(0.0, 1.0))
    with pytest.raises(DomainError):
        I(0, 1).add(R(0.0, 1.0))


def env_of(**ivs):
    return AbstractEnv(dict(ivs))


def test_filter_examples():
    out = filter_env(env_of(x=I(0, 10)), lang.parse_condition("x < 3", {"x": Kind.INT}))
    assert out.get("x") == I(0, 2)

    out = filter_env(
        env_of(x=R(0.0, 1.0)),
        lang.parse_condition("x < 2.0", {"x": Kind.REAL}),
        polarity=False,
    )
    assert out.is_bottom()  # x >= 2 intersected with [0, 1]


def test_filter_derived_example_matches_brute_force():
    # every (x, y) with x in [0,5], y in [0,1] and x < y + 4, hulled
    sat = [(x, y) for x in range(6) for y in range(2) if x < y + 4]
    hull_x = (min(x for x, _ in sat), max(x for x, _ in sat))
    hull_y = (min(y for _, y in sat), max(y for _, y in sat))
    assert hull_x == (0, 4) and hull_y == (0, 1)

    env = env_of(x=I(0, 5), y=I(0, 1))
    cond = lang.parse_condition("x < y + 4", {"x": Kind.INT, "y": Kind.INT})
    out = filter_env(env, cond)
    assert out.get("x") == I(*hull_x)
    assert out.get("y") == I(*hull_y)


def test_filter_definite_decisions_are_exact():
    # a strict real comparison on a touching bound is definitely false
    env = env_of(i=R(3.0, 3.0))
    cond = lang.parse_condition("i < 3.0", {"i": Kind.REAL})
    assert filter_env(env, cond, True).is_bottom()
    assert filter_env(env, cond, False).get("i") == R(3.0, 3.0)


def test_rendering():
    assert I(0, 5).render() == "[0, 5]"
    assert I(0, INF).render() == "[0, +inf)"
    assert R(-INF, 3.0).render() == "(-inf, 3.0]"
    assert BOT_I.render() == "bottom"
    assert R(0.1, 0.1).render() == "[0.1, 0.1]"


def test_env_operations():
    bot = AbstractEnv.unreachable()
    env = AbstractEnv.tops({"x": Kind.INT})
    assert bot.join(env) == env and env.join(bot) == env
    assert bot.is_bottom()
    assert env.assign("x", BOT_I).is_bottom()
    with pytest.raises(DomainError):
        env.get("nope")


# --- property tests -----------------------------------------------------------

small = st.integers(min_value=-8, max_value=8)


@st.composite
def small_interval(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return BOT_I
    a, b = draw(small), draw(small)
    return I(min(a, b), max(a, b))


@given(small_interval(), small_interval())
def test_join_is_exact_hull(a, b):
    j = a.join(b)
    union = gamma(a) | gamma(b)
    assert union <= gamma(j)
    if union:
        assert gamma(j) == set(range(min(union), max(union) + 1))
    else:
        assert j.is_bottom()


@given(small_interval(), small_interval())
def test_meet_is_exact_intersection(a, b):
    assert gamma(a.meet(b)) == gamma(a) & gamma(b)


@given(small_interval(), small_interval())
def test_add_sub_exact(a, b):
    sums = {x + y for x in gamma(a) for y in gamma(b)}
    diffs = {x - y for x in gamma(a) for y in gamma(b)}
    assert gamma(a.add(b)) == (set(range(min(sums), max(sums) + 1)) if sums else set())
    assert gamma(a.sub(b)) == (set(range(min(diffs), max(diffs) + 1)) if diffs else set())


@given(small_interval(), st.integers(min_value=-4, max_value=4))
def test_mul_const_sound_and_exact(a, k):
    prods = {k * x for x in gamma(a)}
    got = gamma(a.scale(k))
    assert prods <= got
    if prods:
        assert min(got) == min(prods) and max(got) == max(prods)


@given(st.lists(small_interval().filter(lambda v: not v.is_bottom()), min_size=1, max_size=12))
def test_widening_chain_stabilizes(chain):
    # ascending chain: cumulative joins
    ascending = []
    acc = chain[0]
    for iv in chain:
        acc = acc.join(iv)
        ascending.append(acc)
    w = ascending[0]
    lo_changes = hi_changes = 0
    for nxt in ascending[1:]:
        new = w.widen(w.join(nxt))
        lo_changes += new.lo != w.lo
        hi_changes += new.hi != w.hi
        w = new
    assert lo_changes <= 2 and hi_changes <= 2
    assert ascending[-1].join(w) == w
    assert w.widen(w.join(ascending[-1])) == w  # stabilized


finite_float = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@given(finite_float, finite_float, finite_float, finite_float)
@settings(max_examples=300)
def test_real_arith_outward_rounding_sound(a, b, c, d):
    x = R(min(a, b), max(a, b))
    y = R(min(c, d), max(c, d))
    s = x.add(y)
    diff = x.sub(y)
    # exact rational endpoints must lie inside the computed intervals
    for ex in (Fraction(x.lo) + Fraction(y.lo), Fraction(x.hi) + Fraction(y.hi)):
        assert Fraction(s.lo) <= ex <= Fraction(s.hi)
    for ex in (Fraction(x.lo) - Fraction(y.hi), Fraction(x.hi) - Fraction(y.lo)):
        assert Fraction(diff.lo) <= ex <= Fraction(diff.hi)


@given(finite_float, finite_float, st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=300)
def test_real_scale_outward_rounding_sound(a, b, k):
    x = R(min(a, b), max(a, b))
    p = x.scale(k)
    for ex in (Fraction(k) * Fraction(x.lo), Fraction(k) * Fraction(x.hi)):
        assert Fraction(p.lo) <= ex <= Fraction(p.hi)


@given(small_interval(), small_interval(), st.sampled_from(lang.RELOPS))
# != cuts an endpoint only against a single value: y = [3, 4] keeps
# x = [0, 3], y = [3, 3] cuts it to [0, 2], and x = y = [3, 3] is bottom
@example(I(0, 3), I(3, 4), "!=")
@example(I(0, 3), I(3, 3), "!=")
@example(I(3, 3), I(3, 3), "!=")
def test_filter_atom_soundness_and_exactness(xs, ys, op):
    env = env_of(x=xs, y=ys)
    cond = lang.Binary(lang.Var("x"), op, lang.Var("y"))
    out = filter_env(env, cond, True)
    opf = {
        "<": lambda p, q: p < q,
        "<=": lambda p, q: p <= q,
        ">": lambda p, q: p > q,
        ">=": lambda p, q: p >= q,
        "==": lambda p, q: p == q,
        "!=": lambda p, q: p != q,
    }[op]
    sat = [(p, q) for p in gamma(xs) for q in gamma(ys) if opf(p, q)]
    if not sat:
        assert out.is_bottom()
    else:
        xs_hull = {p for p, _ in sat}
        ys_hull = {q for _, q in sat}
        assert gamma(out.get("x")) >= xs_hull
        assert gamma(out.get("y")) >= ys_hull
        # exact for != too: a value it cannot cut has a partner on the
        # other side that differs from it
        assert min(gamma(out.get("x"))) == min(xs_hull)
        assert max(gamma(out.get("x"))) == max(xs_hull)
        assert min(gamma(out.get("y"))) == min(ys_hull)
        assert max(gamma(out.get("y"))) == max(ys_hull)


@given(small_interval(), small_interval(), st.sampled_from(lang.RELOPS))
def test_filter_negation_covers_complement(xs, ys, op):
    env = env_of(x=xs, y=ys)
    cond = lang.Binary(lang.Var("x"), op, lang.Var("y"))
    pos = filter_env(env, cond, True)
    neg = filter_env(env, cond, False)
    # every concrete point lands in at least one side
    for p in gamma(xs):
        for q in gamma(ys):
            side = pos if eval(f"p {op} q") else neg
            assert not side.is_bottom()
            x, y = side.get("x"), side.get("y")
            assert x.lo <= p <= x.hi and y.lo <= q <= y.hi


# --- the guard rules `lanes` shares ---------------------------------------------

# bounds as the scalar engine holds them (finite INT bounds as Python ints),
# with the zero signs, infinities and INT magnitudes near 2**53 where the
# two forms could part
EDGES = {
    Kind.INT: [-INF, -(2**53 - 1), -(2**53 - 2), -1, 0, 1, 2**53 - 2, 2**53 - 1, INF],
    Kind.REAL: [-INF, -1.5, -0.0, 0.0, 1.5, INF],
}


def _lanes_of(numbers):
    """The float64 array of a list of numbers, one lane each."""

    return np.array([float(x) for x in numbers])


def _bits(x):
    """A bound as float64 bits, so that -0.0 and 0.0 differ."""

    return np.float64(x).view(np.int64).item()


@pytest.mark.parametrize("kind", list(Kind))
def test_guard_rules_agree_on_numbers_and_lane_arrays(kind):
    # every pair of intervals over the edge bounds, empty ones among them,
    # once as numbers and once as lanes of one array
    ivs = [(lo, hi) for lo in EDGES[kind] for hi in EDGES[kind]]
    pairs = [(*a, *b) for a in ivs for b in ivs]
    lanes = [_lanes_of(bounds) for bounds in zip(*pairs)]
    for op in lang.RELOPS:
        empty = _definitely_empty(op, *lanes)
        assert empty.dtype == bool
        numbers = [_definitely_empty(op, *bounds) for bounds in pairs]
        assert all(type(e) is bool for e in numbers)
        assert empty.tolist() == numbers
    integral = kind is Kind.INT
    blo, bhi = (_lanes_of(bounds) for bounds in zip(*ivs))
    for op in ("<", "<=", ">", ">=", "=="):
        lo, hi = (np.broadcast_to(c, blo.shape) for c in _constraint(op, blo, bhi, integral))
        numbers = [_constraint(op, b_lo, b_hi, integral) for b_lo, b_hi in ivs]
        assert [(_bits(x), _bits(y)) for x, y in numbers] == list(
            zip(map(_bits, lo.tolist()), map(_bits, hi.tolist()))
        )
    with pytest.raises(DomainError):
        _constraint("!=", 0, 1, integral)
    # the != cut of [clo, chi] by b: an endpoint equal to b's single value
    # moves inward by one, and one that stays keeps its bits, -0.0 among them
    curs = ivs + [(-0.0, -0.0), (-0.0, 1), (-1, -0.0)]
    cut_pairs = [(*a, *b) for a in curs for b in ivs]
    lo, hi = _cut(*(_lanes_of(bounds) for bounds in zip(*cut_pairs)))
    numbers = [_cut(*bounds) for bounds in cut_pairs]
    assert [(_bits(x), _bits(y)) for x, y in numbers] == list(
        zip(map(_bits, lo.tolist()), map(_bits, hi.tolist()))
    )
    moved = [(x, y) != (clo, chi) for (x, y), (clo, chi, *_) in zip(numbers, cut_pairs)]
    assert 0 < sum(moved) < len(moved)
    assert [_bits(x) for x in _cut(-0.0, -0.0, 1, 1)] == [_bits(-0.0)] * 2


def _same(numbers, lanes):
    """Numbers and lane results agree bit for bit, a NaN with any NaN."""

    lanes = [float(x) for x in np.ravel(lanes)]
    assert len(numbers) == len(lanes)
    for x, y in zip(numbers, lanes):
        assert (math.isnan(x) and math.isnan(y)) or _bits(x) == _bits(y), (x, y)


# sums and products around each kind of rounding: exact and inexact, ties
# of zeros, overflow past the largest double, infinite operands, subnormal
# results and factors at the edges of the TwoProduct range
ROUNDING = [0.0, -0.0, 1.5, -1.5, 0.1, -0.3, 2.0**-1074, -(2.0**-1040), 1e308, _MAX, -_MAX]
ROUNDING += [INF, -INF]
FACTORS = [0.0, -0.0, 1.5, -0.1, 3.0, 5e-324, 2.0**-600, -(2.0**600), _MAX, INF, -INF]
EDGE_FACTORS = (*_PRODUCT_RANGE, 2.0**-481, 2.0**481, 1.25 * 2.0**-480)
FACTORS += [s * e for e in EDGE_FACTORS for s in (1, -1)]


def test_lattice_and_rounding_rules_agree_on_numbers_and_lane_arrays():
    # every pair of pairs of edge bounds, empty ones and ties among them,
    # as tuples of numbers and as one lane array of a variable; the hull of
    # points [a, a] and [b, b] is the INT scale rule's order of a and b
    for kind in Kind:
        bounds = EDGES[kind] + ([-0.0] if kind is Kind.INT else [])
        ivs = [(lo, hi) for lo in bounds for hi in bounds]
        pairs = [(a, b) for a in ivs for b in ivs]
        x, y = (np.array([_lanes_of(side) for side in zip(*half)]) for half in zip(*pairs))
        for rule in (_hull, _meet, _widened, _narrowed):
            numbers = [rule(a, b) for a, b in pairs]
            _same([lo for lo, _ in numbers] + [hi for _, hi in numbers], rule(x, y, _ARRAYS))
        assert _meet(x, x, _ARRAYS) is x  # a meet that tightens nothing
        # a value with itself gives it back bit for bit, non-empty or the
        # canonical empty, so `lanes` keeps a value both sides hold as one
        # object and computes nothing
        same = [(lo, hi) for lo, hi in ivs if lo <= hi] + [(INF, -INF)]
        z = np.array([_lanes_of(side) for side in zip(*same)])
        for rule in (_hull, _widened, _narrowed):
            bits = [_bits(b) for iv in same for b in iv]
            assert [_bits(b) for iv in same for b in rule(iv, iv)] == bits, rule.__name__
            _same([lo for lo, _ in same] + [hi for _, hi in same], rule(z, z, _ARRAYS))
    # a tie keeps the first argument's zero sign
    assert [_bits(b) for b in _hull((0.0, -0.0), (-0.0, 0.0))] == [_bits(0.0), _bits(-0.0)]
    assert [_bits(b) for b in _meet((-0.0, 0.0), (0.0, -0.0))] == [_bits(-0.0), _bits(0.0)]
    # each bound rounds toward its own side: row 0 of a lane array down, row
    # 1 up, as the number form does with -INF and INF
    rules = ((operator.add, ROUNDING, _sum_is_exact), (operator.mul, FACTORS, _product_is_exact))
    for op, values, exact in rules:
        pairs = [(a, b) for a in values for b in values]
        a, b = (_lanes_of(side) for side in zip(*pairs))
        with np.errstate(all="ignore"):
            r = op(a, b)
            rows = [np.array((v, v)) for v in (r, a, b)]
            got = _outward(*rows, exact, _TOWARD, _ARRAYS)
        # lanes hand back a lane whose factor leaves the product range
        inside = ~(_outside_product_range(a) | _outside_product_range(b)) | (op is operator.add)
        assert 0 < inside.sum() <= len(pairs)
        rounded = []
        for row, toward in enumerate((-INF, INF)):
            rounded.append([_outward(op(p, q), p, q, exact, toward) for p, q in pairs])
            _same([v for v, keep in zip(rounded[row], inside) if keep], got[row][inside])
        # the rounded bounds hold the exact result
        for (p, q), lo, hi in zip(pairs, *rounded):
            if all(map(math.isfinite, (p, q, lo, hi))):
                assert Fraction(lo) <= op(Fraction(p), Fraction(q)) <= Fraction(hi), (p, op, q)
    # finite operands that overflow away from the rounding direction stop at
    # the largest double; toward it, and from an infinite operand, they do not
    assert _outward(_MAX + _MAX, _MAX, _MAX, _sum_is_exact, -INF) == _MAX
    assert _outward(_MAX + _MAX, _MAX, _MAX, _sum_is_exact, INF) == INF
    assert _outward(INF + 1.0, INF, 1.0, _sum_is_exact, -INF) == INF
    assert _outward(-(2.0**600) * 2.0**600, -(2.0**600), 2.0**600, _product_is_exact, INF) == -_MAX
    assert _outward(1.5 + 1.5, 1.5, 1.5, _sum_is_exact, INF) == 3.0
    assert _outward(0.1 + 0.2, 0.1, 0.2, _sum_is_exact, INF) == math.nextafter(0.1 + 0.2, INF)


# finite edges of a REAL sum: signed zeros, subnormals, the neighbours of
# 2**53, the largest doubles, and operands that nearly cancel
SUM_EDGES = [0.0, -0.0, 5e-324, -5e-324, 3 * 2.0**-1074, 2.0**-1022, -(2.0**-1022), 1.0, -1.0]
SUM_EDGES += [2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2), 0.1, -0.1, 0.30000000000000004]
SUM_EDGES += [1 + 2.0**-52, -(1 + 2.0**-52), -(1 - 2.0**-53), 1e308, _MAX, -_MAX]
SUM_EDGES += [math.nextafter(_MAX, 0), -math.nextafter(_MAX, 0)]


def test_sum_exactness_matches_fractions():
    # Fast2Sum on numbers and on lane arrays: a finite sum is exact iff the
    # rationals agree; an overflow, an infinite operand or a NaN never is
    rng = random.Random(3)
    spread = [rng.uniform(-1, 1) * 2.0 ** rng.randint(-1074, 1023) for _ in range(60)]
    pairs = [(a, b) for a in SUM_EDGES + spread for b in SUM_EDGES + spread]
    a, b = (np.array(side) for side in zip(*pairs))
    with np.errstate(all="ignore"):
        s = a + b
        on_arrays = _sum_is_exact(a, b, s).tolist()
    truth = [
        math.isfinite(t) and Fraction(p) + Fraction(q) == Fraction(t)
        for (p, q), t in zip(pairs, s.tolist())
    ]
    assert [_sum_is_exact(p, q, p + q) for p, q in pairs] == truth == on_arrays
    assert 0 < sum(truth) < len(truth)
    nan = float("nan")
    never = [(INF, 1.0), (-INF, -INF), (INF, -INF), (nan, 1.0), (0.0, nan), (_MAX, _MAX)]
    for p, q in never + [(-_MAX, -1e308)]:
        assert not _sum_is_exact(p, q, p + q), (p, q)
        with np.errstate(all="ignore"):
            assert not _sum_is_exact(np.array(p), np.array(q), np.array(p) + q), (p, q)


def test_array_outward_keeps_the_bits_of_exact_lanes():
    # the nudge writes only inexact lanes: an exact sum keeps its bits on
    # both rows, a signed zero among them, and ``r`` itself is left as it was
    pairs = [(-0.0, -0.0), (0.0, -0.0), (1.5, -1.5), (-0.0, 0.0), (1.0, 2.0), (0.1, 0.2)]
    pairs.append((2.0**53, 1.0))
    a, b = (np.array((side, side)) for side in zip(*pairs))
    r = a + b
    before = r.copy()
    exact = _sum_is_exact(a, b, r)
    got = _outward(r, a, b, _sum_is_exact, _TOWARD, _ARRAYS)
    assert exact[0].tolist() == [True] * 5 + [False] * 2
    assert got[exact].view(np.uint64).tolist() == r[exact].view(np.uint64).tolist()
    assert got[~exact].tolist() == np.nextafter(r, _TOWARD)[~exact].tolist()
    assert r.view(np.uint64).tolist() == before.view(np.uint64).tolist()
    assert [_bits(x) for x in got[:, :4].ravel()] == [_bits(x) for x in (-0.0, 0.0, 0.0, 0.0)] * 2


OPS = dict(
    zip(lang.RELOPS, [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne])
)


def test_definitely_empty_matches_brute_force():
    # every pair of INT intervals inside [-2, 2], empty ones among them
    ivs = [(lo, hi) for lo in range(-2, 3) for hi in range(-2, 3)]
    pairs = [(*a, *b) for a in ivs for b in ivs]
    lanes = [_lanes_of(bounds) for bounds in zip(*pairs)]
    for op in lang.RELOPS:
        truth = [
            not any(OPS[op](x, y) for x in range(alo, ahi + 1) for y in range(blo, bhi + 1))
            for alo, ahi, blo, bhi in pairs
        ]
        assert [_definitely_empty(op, *bounds) for bounds in pairs] == truth
        assert _definitely_empty(op, *lanes).tolist() == truth


# --- identity and immutability of intervals -------------------------------------

# bound objects as the scalar engine holds them; each drawn as the listed object
# or as a fresh object of the same value, so that equal bounds may or may not
# be the same object
IDENTITY_BOUNDS = {
    Kind.INT: [-INF, -(2**60) - 1, -(2**53) - 1, -1, 0, 1, 2**53 + 1, 10**20, INF],
    Kind.REAL: [-INF, -_MAX, -1.5, -0.0, 0.0, 2.0**-1074, 0.1, 1.5, INF],
}


def _fresh(x):
    return type(x)(str(x))  # an equal number, a new object where the type allows


@st.composite
def identity_pair(draw):
    kind = draw(st.sampled_from(list(Kind)))
    bound = st.sampled_from(IDENTITY_BOUNDS[kind]).flatmap(
        lambda x: st.sampled_from([x, _fresh(x)])
    )

    def interval():
        if draw(st.integers(0, 5)) == 0:  # the canonical empty, shared or fresh
            return draw(st.sampled_from([Interval.bottom(kind), Interval(kind, INF, -INF)]))
        lo, hi = draw(bound), draw(bound)
        return Interval(kind, *sorted((lo, hi)))

    a = interval()
    return a, draw(st.sampled_from([a, interval()]))


def _signed(iv):
    """An interval's bounds with their types and zero signs."""

    return [(type(b), b, math.copysign(1.0, b)) for b in (iv.lo, iv.hi)]


def _holds(r, iv):
    return r.lo is iv.lo and r.hi is iv.hi


LATTICE = {"join": _hull, "meet": _meet, "widen": _widened, "narrow": _narrowed}


@given(identity_pair())
@settings(max_examples=500)
# narrowing takes the other's -inf, an object equal to this one's but not it
@example((Interval(Kind.REAL, -INF, 1.5), Interval(Kind.REAL, float("-inf"), 0.1)))
def test_lattice_results_keep_operand_identity(pair):
    # each lattice operation gives the bounds of a fresh interval of its rule,
    # zero signs and all, and is an operand exactly when the rule gave back
    # that operand's bound objects; a meet that empties gives the canonical
    # empty
    a, b = pair
    kind = a.kind
    for name, rule in LATTICE.items():
        r = getattr(a, name)(b)
        fresh = Interval(kind, *rule((a.lo, a.hi), (b.lo, b.hi)))
        if name == "meet" and fresh.is_bottom():
            assert r is Interval.bottom(kind)
            continue
        assert _signed(r) == _signed(fresh), name
        of_a, of_b = _holds(fresh, a), _holds(fresh, b)
        assert (r is a or r is b) == (of_a or of_b), name
        assert (r is not a or of_a) and (r is not b or of_b), name
    # environments keep a value both sides hold, and apply the rule to the rest
    x, y = AbstractEnv({"s": a, "v": a}), AbstractEnv({"s": a, "v": b})
    for name in ("join", "widen", "narrow"):
        out = getattr(x, name)(y).values
        assert out["s"] is a, name
        assert _signed(out["v"]) == _signed(getattr(a, name)(b)), name


@given(identity_pair())
@settings(max_examples=300)
def test_refined_meets_the_constraint_as_an_interval_meet_does(pair):
    # a guard's refinement is the meet with the interval of its constraint,
    # built or not: the same bounds, zero signs and all, the variable's own
    # interval when the guard keeps it, and the canonical empty when it empties
    cur, b = pair
    for op in ("<", "<=", ">", ">=", "=="):
        bounds = _constraint(op, b.lo, b.hi, cur.kind is Kind.INT)
        meet = cur.meet(Interval.make(cur.kind, *bounds))
        r = _refined(cur, op, b)
        assert _signed(r) == _signed(meet), op
        assert (r is cur) == (meet is cur), op
        assert not r.is_bottom() or r is Interval.bottom(cur.kind), op


def _stores_to_bounds(tree):
    """The lines that write ``.lo``, ``.hi`` or ``.kind`` of an object
    outside `Interval.__init__`: an assignment or deletion target, or a
    `setattr`, `delattr` or ``__setattr__`` call naming one of them."""

    fields = {"lo", "hi", "kind"}
    lines = []

    def visit(node, inside_init):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.attr in fields and not inside_init:
                lines.append(node.lineno)
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            field = node.args[1]
            named = not isinstance(field, ast.Constant) or field.value in fields
            if name in ("setattr", "delattr", "__setattr__", "__delattr__") and named:
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            init = inside_init or (
                isinstance(node, ast.ClassDef) and node.name == "Interval"
                and isinstance(child, ast.FunctionDef) and child.name == "__init__"
            )
            visit(child, init)

    visit(tree, False)
    return lines


def test_no_code_writes_into_an_interval():
    # lanes and the scalar pass reuse share Interval objects between
    # environments, so only Interval.__init__ may set an interval's fields
    sources = sorted((Path(__file__).parents[1] / "src" / "absmc").glob("*.py"))
    assert any(p.name == "intervals.py" for p in sources)
    for path in sources:
        assert _stores_to_bounds(ast.parse(path.read_text(), str(path))) == [], path.name
    caught = """
class Interval:
    def __init__(self, kind, lo, hi):
        self.kind, self.lo, self.hi = kind, lo, hi
    def widen(self, other):
        self.lo = other.lo
def f(iv, name):
    iv.hi += 1
    setattr(iv, "kind", None)
    object.__setattr__(iv, "lo", 0)
    setattr(iv, name, 0)
    del iv.hi
    for iv.lo in ():
        pass
"""
    assert _stores_to_bounds(ast.parse(caught)) == [6, 8, 9, 10, 11, 12, 13]


def test_interval_behaves_as_its_dataclass():
    # the frozen dataclass Interval was, for what callers see of it
    Reference = dataclasses.make_dataclass(
        "Interval", [("kind", Kind), ("lo", object), ("hi", object)], frozen=True, slots=True
    )
    ivs = [Interval(kind, lo, hi) for kind, bounds in IDENTITY_BOUNDS.items()
           for lo in bounds[:3] + bounds[-3:] for hi in (lo, bounds[-1])]
    ivs += [Interval(Kind.INT, 0, 0.0), Interval(Kind.REAL, 0.0, 0), Interval.bottom(Kind.REAL)]
    refs = [Reference(iv.kind, iv.lo, iv.hi) for iv in ivs]
    for iv, ref in zip(ivs, refs):
        assert repr(iv) == repr(ref)
        assert hash(iv) == hash(ref)
        for other, other_ref in zip(ivs, refs):
            assert (iv == other) is (ref == other_ref)
            assert (iv != other) is (ref != other_ref)
        for stranger in (ref, (iv.kind, iv.lo, iv.hi), None, iv.lo):
            assert (iv == stranger) is False and (iv != stranger) is True
        twin = copy.copy(iv)
        assert type(twin) is Interval and twin == iv and _holds(twin, iv)
    assert repr(Interval(Kind.REAL, -0.0, INF)) == "Interval(kind=<Kind.REAL: 'double'>, lo=-0.0, hi=inf)"
