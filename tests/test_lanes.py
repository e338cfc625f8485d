"""The lane engine against the scalar engine: the numeric edges of its
interval arithmetic, the values every lane shares, the lanes it hands
back to the scalar engine, the draws of a chunk's blocks and the memory a
block keeps."""

import importlib.util
import itertools
import math
import tracemalloc
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from absmc import estimator, lanes, lang
from absmc.interp import TrialConfig, analyze_trial
from absmc.intervals import (
    _PRODUCT_RANGE,
    AbstractEnv,
    Interval,
    _outside_product_range,
    _product_is_exact,
)
from absmc.lang import Kind, parse
from helpers import RecordingLanes, _intervals, run_lanes, summary

INF = float("inf")
MAX = sys.float_info.max
SEEDS = list(range(16))


def _lanes_equal_scalar(source, config=None):
    """The lane outcomes of `SEEDS`, none handed back and each equal to
    the scalar trial's."""

    p = parse(source)
    outs = run_lanes(p, SEEDS, config)
    assert None not in outs
    for seed, lane in zip(SEEDS, outs):
        assert summary(lane) == summary(analyze_trial(p, seed, config))
    return outs


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------

LOOPS = [
    # unrolled past the limit, then widened and narrowed
    "double x, i; know (x>=0. && x<=1.); i=0.; while (i < 170.) { x += uniform(); i += 1.0; }"
    " know (x<85.);",
    # one definite iteration, then the fixpoint of an unconstrained bound
    "double x, i, n; know (x<0.0 && x>0.0-1.0); know (n>=1.0 && n<=10.0); i=0.;"
    " while (i < n) { x += uniform(); i += 1.0; } know (x>=5.0);",
    # a coin counter whose guard is never definite
    "int x, i, n; double u; know (x>=0 && x<=2); know (n>=0 && n<=100); i=0; u = uniform();"
    " while (i < n) { x += coin_flip(); i++; } know (x>=55);",
    # nested loops with a branch drawing on both sides
    "int k, m, j; double x, z; know (x>=0.05 && x<=0.1); know (m>=0 && m<=5); k=0;"
    " while (k < m) { j=0; while (j < 3) { z=uniform(); z+=z;"
    " if (x+z<2.) { x += uniform(); } else { x -= uniform(); } j++; } k++; }"
    " know (x>0.9 && x<1.1);",
]
CONFIGS = [
    TrialConfig(),
    TrialConfig(unroll_limit=2, widening_delay=0),
    TrialConfig(narrowing_passes=1),
    TrialConfig(unroll_limit=0, widening_delay=0, narrowing_passes=3),
]


@pytest.mark.parametrize("config", CONFIGS, ids=range(len(CONFIGS)))
def test_corpus_and_loops_match_scalar_trials(figs, config):
    for p in [*figs.values(), *map(parse, LOOPS)]:
        _lanes_equal_scalar(lang.to_source(p), config)


D = lang.MAX_DEPTH - 2


@pytest.mark.parametrize(
    "source",
    [
        "double x; x = uniform();" + " if (x < 1.0) {" * D + " x = x + uniform();" + " }" * D
        + " know (x < 9.0);",
        "double x, i; x = uniform(); i = 0.0;" + " while (i < 1.0) {" * D
        + " i = i + 1.0; x = x + uniform();" + " }" * D + " know (x < 9.0);",
        "double x; x = " + "(" * D + "x + uniform()" + ")" * D + "; know (x < 9.0);",
        "double x; x = uniform(); know (" + " && ".join(["x < 9.0"] * (D + 1)) + ");",
    ],
    ids=["blocks", "loops", "parens", "and"],
)
def test_programs_at_the_nesting_bound_run_as_lanes(source):
    # the lane engine recurses about as deep as the scalar one
    _lanes_equal_scalar(source, TrialConfig(step_budget=5000))


def test_both_branches_draw_then_first():
    source = (
        "double x, y; know (y >= 0.0 && y <= 1.0);"
        " if (y < 0.5) { x = uniform(); } else { x = 0.5 * uniform(); } know (x < 0.25);"
    )
    for out in _lanes_equal_scalar(source):
        assert [site for site, _ in out.table] == [2, 4]


# ---------------------------------------------------------------------------
# Numeric edges
# ---------------------------------------------------------------------------

BRANCHES = (
    "double x, y; know (y >= 0.0 && y <= 1.0); x = uniform();"
    " if (y < 0.5) {{ x = {}; }} else {{ x = {}; }} know (x <= 1.0);"
)
MEETS = (
    "double x; x = uniform(); x = {} * x; know (x >= -0.0 && x >= 0.0); know ({}); know (x < 2.0);"
)


@pytest.mark.parametrize(
    "source, rendered",
    [
        # Python's min and max keep the first of two equal bounds, where
        # np.minimum(0.0, -0.0) gives -0.0
        (BRANCHES.format("0.0", "-0.0"), "x=[0.0, 0.0]"),
        (BRANCHES.format("-0.0", "0.0"), "x=[-0.0, -0.0]"),
        # meet: max(-0.0, 0.0) and min(-0.0, 0.0) are both -0.0
        (MEETS.format("-0.0", "0.0 >= x"), "x=[-0.0, -0.0]"),
        (MEETS.format("0.0", "x <= -0.0"), "x=[0.0, 0.0]"),
    ],
)
def test_join_and_meet_keep_the_scalar_zero_sign(source, rendered):
    for out in _lanes_equal_scalar(source):
        assert rendered in out.env.render()


def test_zero_signs_keep_through_selects_and_joins_of_lanes_apart():
    # lanes leave the unrolled loop after one or two iterations with either
    # zero, so its selects take partial masks; the last branch is reachable
    # both ways, so its join meets each lane's zero against 0.0 and keeps
    # the first, as Python's min and max do
    source = (
        "double x, u, i, m, y; know (y >= 0.0 && y <= 1.0); u = uniform();"
        " if (u < 0.5) { x = -0.0; m = 2.0; } else { x = 0.0; m = 1.0; } i = 0.0;"
        " while (i < m) { u = uniform(); if (u < 0.5) { x = -0.0; } else { x = 0.0; }"
        " i = i + 1.0; } if (y < 0.5) { x = x; } else { x = 0.0 - x; } know (x <= 0.0);"
    )
    finals = {out.env.render().split(" u=")[0] for out in _lanes_equal_scalar(source)}
    assert finals == {"x=[-0.0, -0.0]", "x=[0.0, 0.0]"}


@pytest.mark.parametrize(
    "ranges, rendered",
    [
        # != cuts an endpoint only against a single value
        ("x >= 0 && x <= 3 && y >= 3 && y <= 4", "x=[0, 3] y=[3, 4]"),
        ("x >= 0 && x <= 3 && y == 3", "x=[0, 2] y=[3, 3]"),
        ("x == 3 && y == 3", "unreachable"),
    ],
)
def test_not_equal_cuts_only_against_a_single_value(ranges, rendered):
    for out in _lanes_equal_scalar(f"int x, y; know ({ranges}); know (x != y); know (x < 9);"):
        assert out.env.render() == rendered


def test_inexact_sum_rounds_outward():
    outs = _lanes_equal_scalar("double x; x = uniform(); x = x + 0.1; know (x > 0.5);")
    inexact = 0
    for out in outs:
        (u,) = out.table.values()
        x = out.env.get("x")
        assert x.lo <= u + 0.1 <= x.hi  # the rounded sum, with the exact one between
        inexact += x.lo < x.hi
    assert inexact > 0


@pytest.mark.parametrize(
    "step, rendered",
    [("x = x + 1.7e308;", f"x=[{MAX!r}, +inf)"), ("x = x - 1.7e308;", f"x=(-inf, {-MAX!r}]")],
)
def test_overflow_clamps_to_the_largest_double(step, rendered):
    # finite operands that overflow away from the rounding direction stop
    # at the largest double; toward it they give the infinity
    source = f"double x; x = uniform(); {step} {step} know (x > 0.0);"
    for out in _lanes_equal_scalar(source):
        assert out.env.render() == rendered


def _as_lanes(envs):
    """`lanes._Env` of the AbstractEnvs over x and y, one lane each."""

    reach = np.array([not e.is_bottom() for e in envs])
    ivs = [e.values or {"x": Interval.top(Kind.REAL), "y": Interval.top(Kind.REAL)} for e in envs]
    bounds = [[[getattr(iv[name], side) for iv in ivs] for name in "xy"] for side in ("lo", "hi")]
    return lanes._Env(reach, np.array(bounds, dtype=float), (None, None))


def _from_lanes(env):
    lo, hi = env.bounds
    columns = [
        [shared] * len(env.reach) if shared is not None else _intervals(Kind.REAL, lo[r], hi[r])
        for r, shared in enumerate(env.shared)
    ]
    return [
        AbstractEnv(dict(zip("xy", ivs)) if reach else None)
        for reach, ivs in zip(env.reach.tolist(), zip(*columns))
    ]


def _env(x, y):
    return AbstractEnv({"x": Interval.make(Kind.REAL, *x), "y": Interval.make(Kind.REAL, *y)})


ENVS = [
    AbstractEnv.unreachable(),
    _env((0.0, 0.0), (-0.0, 1.0)),
    _env((-0.0, -0.0), (0.0, 1.0)),
    _env((-INF, 5.0), (0.0, 0.5)),
    _env((7.0, 9.0), (0.0, INF)),
    _env((INF, -INF), (-INF, INF)),  # x empty
    _env((-0.0, 9.0), (-INF, 0.0)),
]


def test_lattice_operations_match_the_scalar_ones():
    pairs = list(itertools.product(ENVS, repeat=2))
    a = _as_lanes([p for p, _ in pairs])
    b = _as_lanes([q for _, q in pairs])
    for lane_op, scalar_op in [
        (lanes._join, AbstractEnv.join),
        (lanes._widen, AbstractEnv.widen),
        (lanes._narrow, AbstractEnv.narrow),
    ]:
        got = [e.render() for e in _from_lanes(lane_op(a, b))]
        assert got == [scalar_op(p, q).render() for p, q in pairs], lane_op.__name__
    assert lanes._equal(a, b).tolist() == [p == q for p, q in pairs]


def test_narrowing_can_leave_an_empty_interval():
    acc, other = _env((-INF, 5.0), (0.0, 1.0)), _env((7.0, 9.0), (0.0, 0.5))
    (out,) = _from_lanes(lanes._narrow(_as_lanes([acc]), _as_lanes([other])))
    assert out.get("x").is_bottom() and not out.is_bottom()
    assert out.render() == acc.narrow(other).render() == "x=bottom y=[0.0, 1.0]"


def test_product_exactness_matches_fractions():
    # one rule on numbers and on lane arrays: rational arithmetic decides
    # whether c * x rounds exactly; lanes hand back a lane whose factor
    # lies outside _PRODUCT_RANGE, so arrays are checked inside it only
    rng = random.Random(5)
    xs = [rng.uniform(-4, 4) for _ in range(200)] + [0.0, -0.0, 1.0, 3.0, 0.75, -2.5, 2.0**40]
    xs += [rng.uniform(1, 2) * 2.0 ** rng.randint(-470, 470) for _ in range(200)]
    xs += [float(rng.randint(-(2**20), 2**20)) for _ in range(50)]
    edges = [2.0**-480, 2.0**480, 2.0**-481, 2.0**481, 1.5 * 2.0**-480, 2.0**-600, 2.0**600, 1e300]
    xs += [s * e for e in edges + [5e-324, 2.0**-1030, MAX, INF] for s in (1.0, -1.0)]
    x = np.array(xs)
    for c in (3.0, 0.1, -7.0, 2.0**-470, 1e100, 0.5, 2.0**-480, -(2.0**480), 2.0**-600, 1e-320):
        exact = lambda v: Fraction(c) * Fraction(v) == Fraction(c * v)  # noqa: E731
        truth = [math.isfinite(v) and math.isfinite(c * v) and exact(v) for v in xs]
        assert [_product_is_exact(c, v, c * v) for v in xs] == truth, c
        inside = ~_outside_product_range(x) & (not _outside_product_range(c))
        with np.errstate(all="ignore"):  # as in a block's run
            got = _product_is_exact(c, x, c * x)
        assert got[inside].tolist() == [t for t, keep in zip(truth, inside) if keep], c
        assert inside.any() != bool(_outside_product_range(c))
    assert _PRODUCT_RANGE == (2.0**-480, 2.0**480)


# ---------------------------------------------------------------------------
# Values every lane shares
# ---------------------------------------------------------------------------


def _load_loopgen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "loopgen.py"
    spec = importlib.util.spec_from_file_location("loopgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOOPGEN = {
    f"loops{seed}.{name}": source
    for seed in (1, 2, 3)
    for name, _, source in _load_loopgen().generate(seed)
}


def _bits(env):
    """The bounds of an environment, REAL ones as float64 bits so that -0.0
    and 0.0 differ (an INT bound is a Python int, which has no signed zero)."""

    if env is None or env.is_bottom():
        return None
    bits = lambda kind, b: b if kind is Kind.INT else np.float64(b).view(np.int64).item()  # noqa: E731
    return {name: [bits(iv.kind, iv.lo), bits(iv.kind, iv.hi)] for name, iv in env.values.items()}


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", *LOOPGEN])
def test_one_lane_blocks_match_scalar_trials_bit_for_bit(figs, name):
    p = figs[name] if name in figs else parse(LOOPGEN[name])
    for seed in range(4):
        (lane,) = run_lanes(p, [seed])
        scalar = analyze_trial(p, seed)
        assert summary(lane) == summary(scalar)
        assert _bits(lane.env) == _bits(scalar.env)


def test_a_fixpoint_entered_with_every_variable_shared_keeps_them_shared():
    # no variable differs between lanes, so the unrolled iterations, the
    # fixpoint and its guard run on the scalar rules and touch no row
    p = parse(
        "double n, x, i; know (n >= 0.0 && n <= 9.0); x = 0.0; i = 0.0;"
        " while (i < 100.0 - n) { x = x + 0.5; i = i + 1.0; } know (x > 1.0);"
    )
    seeds = lang.mix(np.arange(8, dtype=np.uint64))
    for config in CONFIGS:
        _lanes_equal_scalar(lang.to_source(p), config)
        block = lanes._Lanes(p, seeds, config, None)
        env, hits = block.run()
        assert None not in env.shared
        assert (block.widened == 1).all() and hits.all()


def test_a_shared_negative_zero_keeps_its_sign_in_a_row():
    # x = -0.0 on every lane is written into x's row where the first branch
    # joins lanes of 0.0; the second branch is reachable both ways, so its
    # join meets each lane's zero against a shared 0.0 and keeps the first
    source = (
        "double x, y, u; know (y >= 0.0 && y <= 1.0); u = uniform(); x = -0.0;"
        " if (u < 0.5) { x = 0.0 * u; } if (y < 0.5) { x = x; } else { x = 0.0; }"
        " know (x <= 0.0);"
    )
    outs = _lanes_equal_scalar(source)
    p = parse(source)
    for seed, lane in zip(SEEDS, outs):
        assert _bits(lane.env) == _bits(analyze_trial(p, seed).env)
    finals = {out.env.render().split(" y=")[0] for out in outs}
    assert finals == {"x=[-0.0, -0.0]", "x=[0.0, 0.0]"}


def test_not_equal_cuts_lanes_by_a_shared_value_and_back():
    # a shared x cut by a y that differs between lanes, then x, now in its
    # row, by a shared 3, and y by x
    source = (
        "int x, y; know (x >= 0 && x <= 3); y = 3 * coin_flip(); know (x != y);"
        " know (x != 3); know (y != x); know (x < 9);"
    )
    renders = {out.env.render() for out in _lanes_equal_scalar(source)}
    assert renders == {"x=[0, 2] y=[3, 3]", "x=[1, 2] y=[0, 0]"}


SHARED = [
    Interval.make(Kind.REAL, 0.0, 0.0),
    Interval.make(Kind.REAL, -0.0, -0.0),
    Interval.make(Kind.REAL, -INF, 5.0),
    Interval.make(Kind.REAL, 7.0, 9.0),
    Interval.bottom(Kind.REAL),
]


def _share(env, iv):
    """``env`` with x held as ``iv`` on every lane; its row holds NaN, so
    an operation that read it would show."""

    bounds = env.bounds.copy()
    bounds[:, 0] = np.nan
    return lanes._Env(env.reach, bounds, (iv, None))


def _scalar_share(env, iv):
    return env if env.is_bottom() else AbstractEnv({**env.values, "x": iv})


@pytest.mark.parametrize("side", ["left", "right", "both"])
def test_lattice_operations_of_shared_and_row_variables_match_the_scalar_ones(side):
    # every pair of ENVS with x shared on one side or both, the other side's
    # x in its row; y stays in its row
    pairs = list(itertools.product(ENVS, repeat=2))
    for iv in SHARED:
        ps = [p if side == "right" else _scalar_share(p, iv) for p, _ in pairs]
        qs = [q if side == "left" else _scalar_share(q, iv) for _, q in pairs]
        a, b = _as_lanes(ps), _as_lanes(qs)
        a = a if side == "right" else _share(a, iv)
        b = b if side == "left" else _share(b, iv)
        for lane_op, scalar_op in [
            (lanes._join, AbstractEnv.join),
            (lanes._widen, AbstractEnv.widen),
            (lanes._narrow, AbstractEnv.narrow),
        ]:
            out = lane_op(a, b)
            got = [_bits(e) for e in _from_lanes(out)]
            assert got == [_bits(scalar_op(p, q)) for p, q in zip(ps, qs)], lane_op.__name__
            if side == "both":
                assert out.shared[0] is not None  # every lane reaches both sides
        assert lanes._equal(a, b).tolist() == [p == q for p, q in zip(ps, qs)]
        mask = np.arange(len(pairs)) % 3 == 0
        got = [_bits(e) for e in _from_lanes(lanes._select(mask, a, b))]
        assert got == [_bits(p if m else q) for p, q, m in zip(ps, qs, mask)]
    # a select keeps a variable shared only when both sides hold it bit for bit
    envs = ENVS[1:]
    mask = np.arange(len(envs)) % 2 == 0
    for x, y in itertools.product(SHARED[:2], repeat=2):
        out = lanes._select(mask, _share(_as_lanes(envs), x), _share(_as_lanes(envs), y))
        assert (out.shared[0] is not None) == (x is y)
        got = [_bits(e) for e in _from_lanes(out)]
        assert got == [_bits(_scalar_share(e, x if m else y)) for e, m in zip(envs, mask)]


# ---------------------------------------------------------------------------
# Hand-backs to the scalar engine
# ---------------------------------------------------------------------------

INT_HEAD = "int k; double u; u = uniform();"


def test_int_bounds_below_2_53_stay_in_lanes():
    outs = _lanes_equal_scalar(f"{INT_HEAD} k = 4503599627370496 + 4503599627370495; know (k > 0);")
    assert all("k=[9007199254740991, 9007199254740991]" in out.env.render() for out in outs)


@pytest.mark.parametrize(
    "body",
    [
        "k = 4503599627370496 + 4503599627370495; k = k + 1;",  # a sum reaches 2**53
        "k = 9007199254740992;",  # a literal
        "k = 3 * 3002399751580331;",  # a product
        "know (k < 0 - 9007199254740991);",  # a refined bound, b.hi - 1
        "k = 9007199254740992 * k;",  # a coefficient
    ],
)
def test_int_bounds_from_2_53_go_back_to_the_scalar_engine(body):
    p = parse(f"{INT_HEAD} {body} know (k > 0);")
    assert run_lanes(p, SEEDS) == [None] * len(SEEDS)


@pytest.mark.parametrize(
    "body",
    [
        "u = 1e-150 * u;",  # the coefficient lies below the TwoProduct range
        "u = u + 1e150; u = 2.0 * u;",  # the other factor lies above it
    ],
)
def test_products_past_the_two_product_range_go_back(body):
    p = parse(f"{INT_HEAD} {body} know (u > 0.5);")
    assert run_lanes(p, SEEDS) == [None] * len(SEEDS)


def test_products_inside_the_two_product_range_stay_in_lanes():
    _lanes_equal_scalar(f"{INT_HEAD} u = 3.0 * u; u = 0.1 * (u + 1e140); know (u > 0.5);")
    # an unbounded factor makes an infinite bound, with no exactness test
    _lanes_equal_scalar("double u, v; u = uniform(); v = -3.0 * v + u; know (v > 0.5);")


def test_a_chunk_runs_handed_back_trials_on_the_scalar_engine(engines):
    # lanes whose draw makes k reach 2**53 go back; the others stay
    p = parse(
        "int k; double u; k = 4503599627370496 + 4503599627370495; u = uniform();"
        " if (u < 0.5) { k = k + 1; } know (k > 9007199254740991);"
    )
    config = TrialConfig()
    got = estimator._trial_chunk((p, config, None, 5, 0, 40))
    outs = [analyze_trial(p, estimator.derive_seed(5, i), config) for i in range(40)]
    assert got == (sum(o.hit for o in outs), 0, 0)
    assert 0 < got[0] < 40
    # the probe, then each lane that went back, in order: the hits after the probe
    back = [estimator.derive_seed(5, i) for i in range(1, 40) if outs[i].hit]
    assert engines["scalar"] == [estimator.derive_seed(5, 0), *back]


MIXED_FATES = (
    # a lane whose u falls below 0.01 takes k to 2**53 and goes back to the
    # scalar engine; one whose u passes 0.5 often runs past the step budget
    "int k, i; double u, v; k = 4503599627370496 + 4503599627370495; i = 0;"
    " while (i < 12) { u = uniform(); if (u < 0.01) { k = k + 1; }"
    " if (u > 0.5) { v = uniform(); v = v + 1.0; v = v + 1.0; } i++; } know (k > 0);"
)


@pytest.mark.parametrize("width", [1, 2, 49, 4096])
def test_lanes_of_mixed_fates_in_one_loop_match_scalar_trials(width):
    # one or two lanes see only whole or empty masks; wider blocks lose
    # lanes to hand-backs and aborts at different iterations of the loop
    p = parse(MIXED_FATES)
    config = TrialConfig(step_budget=85)
    outs = run_lanes(p, range(width), config)
    u_site = lang.generator_sites(p)[0].site
    fates = set()
    for seed in range(0, width, 8 if width > 64 else 1):  # every 8th lane of the widest block
        scalar = analyze_trial(p, seed, config)
        lane = outs[seed]
        if lane is None:
            fates.add("handed back")
            assert min(v for (site, _), v in scalar.table.items() if site == u_site) < 0.01
        else:
            fates.add("aborted" if lane.aborted else "finished")
            assert summary(lane) == summary(scalar)
    if width >= 49:
        assert fates == {"handed back", "aborted", "finished"}


def test_a_shared_int_counter_past_2_53_goes_back(engines):
    # k is the same on every lane: below 2**53 it stays shared and exact,
    # and the step that takes it to 2**53 hands back every lane that runs it
    head = "int k, i; double u; u = uniform(); k = 9007199254740989; i = 0;"
    _lanes_equal_scalar(f"{head} while (i < 2) {{ k = k + 1; i++; }} know (k > 0);")
    p = parse(f"{head} while (i < 5) {{ k = k + 1; i++; }} know (k > 0);")
    assert run_lanes(p, SEEDS) == [None] * len(SEEDS)
    config = TrialConfig()
    got = estimator._trial_chunk((p, config, None, 5, 0, 40))
    assert got == (40, 0, 0)
    assert engines["scalar"] == [estimator.derive_seed(5, i) for i in range(40)]


@pytest.mark.parametrize(
    "value",
    ["4503599627370495 * 4503599627370495", "4503599627370495 * (" * 20 + "3" + ")" * 20],
    ids=["2**104", "past the float range"],
)
def test_a_shared_int_past_2_63_meets_lane_arrays(value):
    # the shared product leaves the domain, so its lanes go back before it
    # meets the coin's lanes; no bound is converted past the float range
    # and no array becomes an object array
    p = parse(f"int k, c; c = coin_flip(); k = {value} + c; know (k > 0);")
    block = lanes._Lanes(p, lang.mix(np.arange(64, dtype=np.uint64)), TrialConfig(), None)
    env, hits = block.run()
    assert block.handed_back.all() and not hits.any()
    assert env.bounds.dtype == np.float64
    config = TrialConfig()
    outs = [analyze_trial(p, estimator.derive_seed(2, i), config) for i in range(20)]
    assert estimator._trial_chunk((p, config, None, 2, 0, 20)) == (sum(o.hit for o in outs), 0, 0)


def test_a_lane_aborts_at_the_step_budget():
    source = "double x, i; i = 0.; while (i < 3.0) { x += uniform(); i += 1.0; } know (x < 1.0);"
    for out in _lanes_equal_scalar(source, TrialConfig(step_budget=6)):
        assert out.aborted and out.hit == 1 and out.steps == 7 and out.env is None
        assert len(out.table) == 1  # the seventh step would have drawn again


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


def test_a_block_runs_only_the_trials_that_reach_a_uniform(monkeypatch):
    # every lane of a block draws the coin; the uniform's draw runs on the
    # lanes whose coin took the branch and on no other
    p = parse("int c; double u; c = coin_flip(); if (c == 1) { u = uniform(); } know (u > 0.5);")
    blocks = []

    class Recording(RecordingLanes):
        def __init__(self, *args):
            super().__init__(*args)
            blocks.append(self)

    monkeypatch.setattr(lanes, "_Lanes", Recording)
    monkeypatch.setattr(estimator, "BLOCK", 8)
    config = TrialConfig()
    got = estimator._trial_chunk((p, config, None, 3, 0, 40))
    outs = [analyze_trial(p, estimator.derive_seed(3, i), config) for i in range(40)]
    assert got == (sum(o.hit for o in outs), 0, 0)
    reached = [len(o.table) == 2 for o in outs[1:]]  # the trials after the probe
    assert 0 < sum(reached) < len(reached)
    assert len(blocks) == 5
    for k, block in enumerate(blocks):
        (coin, _, everyone, _), (uniform, _, taken, _) = block.draws
        assert (coin.kind, uniform.kind) == (Kind.INT, Kind.REAL)
        assert everyone.all()
        assert taken.tolist() == reached[8 * k : 8 * k + 8]


def test_block_memory_does_not_grow_with_its_draws():
    # a block of 4,096 lanes drawing a coin per unrolled iteration keeps
    # per-lane arrays after `run`, and nothing per draw
    seeds = lang.mix(np.arange(4096, dtype=np.uint64))

    def kept(iterations):
        p = parse(
            f"int x, i; i = 0; while (i < {iterations}) {{ x += coin_flip(); i++; }} know (x >= 4);"
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            block = lanes._Lanes(p, seeds, TrialConfig(), None)
            block.run()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    assert kept(64) - kept(8) < 64 * 1024
