"""The lane engine against the scalar engine: the numeric edges of its
interval arithmetic, the lanes it hands back to the scalar engine, and
the blocks a chunk runs."""

import itertools
import random
import sys

import numpy as np
import pytest

from absmc import estimator, lanes, lang
from absmc.interp import DrawTrie, TrialConfig, analyze_trial
from absmc.intervals import AbstractEnv, Interval, _mul_is_exact
from absmc.lanes import LaneBlock, run_lanes
from absmc.lang import Kind, parse
from helpers import summary

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
    lo = np.array([[iv[name].lo for iv in ivs] for name in ("x", "y")], dtype=float)
    hi = np.array([[iv[name].hi for iv in ivs] for name in ("x", "y")], dtype=float)
    return lanes._Env(reach, lo, hi)


def _from_lanes(env):
    columns = [lanes._intervals(Kind.REAL, env.lo[r], env.hi[r]) for r in range(2)]
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
    rng = random.Random(5)
    xs = [rng.uniform(-4, 4) for _ in range(200)] + [0.0, -0.0, 1.0, 3.0, 0.75, -2.5, 2.0**40]
    xs += [rng.uniform(1, 2) * 2.0 ** rng.randint(-470, 470) for _ in range(200)]
    xs += [float(rng.randint(-(2**20), 2**20)) for _ in range(50)]
    for c in (3.0, 0.1, -7.0, 2.0**-470, 1e100, 0.5):
        x = np.array(xs)
        p = c * x
        assert lanes._product_is_exact(c, x, p).tolist() == [_mul_is_exact(c, v, c * v) for v in xs]


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


def test_a_chunk_runs_handed_back_trials_on_the_scalar_engine():
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


def test_a_lane_aborts_at_the_step_budget():
    source = "double x, i; i = 0.; while (i < 3.0) { x += uniform(); i += 1.0; } know (x < 1.0);"
    for out in _lanes_equal_scalar(source, TrialConfig(step_budget=6)):
        assert out.aborted and out.hit == 1 and out.steps == 7 and out.env is None
        assert len(out.table) == 1  # the seventh step would have drawn again


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


def test_a_block_runs_only_the_trials_that_reach_a_uniform(monkeypatch):
    p = parse("int c; double u; c = coin_flip(); if (c == 1) { u = uniform(); } know (u > 0.5);")
    batches = []

    def recording(program, seeds, config, restriction):
        batches.append(list(seeds))
        return run_lanes(program, seeds, config, restriction)

    monkeypatch.setattr(lanes, "run_lanes", recording)
    seeds = [estimator.derive_seed(3, i) for i in range(40)]
    trie = DrawTrie()
    block = LaneBlock(p, TrialConfig(), None, seeds, trie)
    outs = [analyze_trial(p, s, TrialConfig(), trie=trie, lanes=block) for s in seeds]
    assert [summary(o) for o in outs] == [summary(analyze_trial(p, s)) for s in seeds]
    (batch,) = batches  # one batch per block
    drew_uniform = {s for s, o in zip(seeds, outs) if len(o.table) == 2}
    assert batch and set(batch) <= drew_uniform
    # a trial that ran as a lane is gone from the block, and one that never
    # was in the batch is not there
    assert block.outcome(batch[0]) is None and block.outcome(seeds[0]) is None
