import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from absmc import interp, lang
from absmc.intervals import AbstractEnv, Interval
from absmc.interp import (
    InterpError,
    TrialConfig,
    TrialContext,
    analyze_trial,
    eval_loop,
    eval_stmt,
)
from absmc.lang import Kind, parse
from helpers import run_lanes

I = lambda lo, hi: Interval.make(Kind.INT, lo, hi)  # noqa: E731
R = lambda lo, hi: Interval.make(Kind.REAL, lo, hi)  # noqa: E731


def ctx_with(randomize=True, **cfg):
    ctx = TrialContext(0, TrialConfig(**cfg))
    ctx.randomize = randomize
    return ctx


# --- whole trials on corpus programs -----------------------------------------


def trial_drawing(p, values):
    """A trial of ``p`` whose generators draw ``values``, in source order:
    a restriction to one point draws exactly that point."""

    spans = {g.site: (v, v) for g, v in zip(lang.generator_sites(p), values)}
    return analyze_trial(p, 0, restriction=spans)


def test_fig2_trial_low_samples(figs):
    out = trial_drawing(figs["fig2"], [0.3, 0.4, 0.5])
    x = out.env.get("x")
    assert abs(x.lo - 1.2) < 1e-12 and abs(x.hi - 2.2) < 1e-12
    assert out.hit == 1


def test_fig2_trial_high_samples(figs):
    out = trial_drawing(figs["fig2"], [0.9, 0.8, 0.7])
    x = out.env.get("x")
    assert abs(x.lo - 2.4) < 1e-12 and abs(x.hi - 3.4) < 1e-12
    assert out.hit == 0


def _seed_drawing(p, site, bits):
    """The first seed whose coins at ``site`` in iterations 1, 2, ...
    read ``bits``."""

    return next(
        seed
        for seed in itertools.count()
        if all(lang.draw(seed, site, (k,), Kind.INT) == b for k, b in enumerate(bits, 1))
    )


def test_fig1_trial_unrolls_and_records(figs):
    p = figs["fig1"]
    coin_site = lang.generator_sites(p)[0].site
    coins = lambda bits: {(coin_site, (k,)): b for k, b in enumerate(bits, 1)}  # noqa: E731
    out = analyze_trial(p, _seed_drawing(p, coin_site, [0, 1, 0, 0, 0]))
    assert out.env.get("x") == I(1, 3)
    assert out.env.get("i") == I(5, 5)
    assert out.hit == 1
    assert out.widened_loops == 0
    assert out.table == coins([0, 1, 0, 0, 0])

    out = analyze_trial(p, _seed_drawing(p, coin_site, [1, 1, 1, 0, 0]))
    assert out.env.get("x") == I(3, 5)
    assert out.hit == 0


def test_fig4_join_of_branches(figs):
    # hand execution: x in [0, 0.1], z = 2 * 0.1, branch condition definite,
    # so x becomes [u2, u2 + 0.1]; u2 = 0.7 stays below the outcome window
    out = trial_drawing(figs["fig4"], [0.1, 0.7, 0.5])
    x = out.env.get("x")
    assert abs(x.lo - 0.7) < 1e-12 and abs(x.hi - 0.8) < 1e-12
    assert out.hit == 0
    assert len(out.table) == 2  # else branch infeasible: its draw never happens

    # u2 = 0.85 straddles the window boundary 0.9: cannot be ruled out
    out = trial_drawing(figs["fig4"], [0.1, 0.85, 0.5])
    assert out.hit == 1

    # first draw near 1 leaves both branches feasible: both sample
    out = trial_drawing(figs["fig4"], [0.96, 0.85, 0.5])
    assert len(out.table) == 3


def test_trial_determinism(figs):
    for name, p in figs.items():
        a = analyze_trial(p, 1234)
        b = analyze_trial(p, 1234)
        assert (a.hit, a.table, a.widened_loops, a.env.values) == (
            b.hit,
            b.table,
            b.widened_loops,
            b.env.values,
        )


# --- statement-level behavior --------------------------------------------------


def test_assign_transfer():
    p = parse("int x, y, z; x = y + z; know(x<100);")
    env = AbstractEnv({"x": Interval.top(Kind.INT), "y": I(1, 2), "z": I(3, 3)})
    out = eval_stmt(p.body[0], env, ctx_with())
    assert out.get("x") == I(4, 5)
    assert out.get("y") == I(1, 2)


def test_know_filters():
    p = parse("int x; know(x>=0 && x<=2); know(x<100);")
    env = AbstractEnv.tops({"x": Kind.INT})
    out = eval_stmt(p.body[0], env, ctx_with())
    assert out.get("x") == I(0, 2)


def test_if_joins_branches():
    # concrete oracle: evaluate each x in [-1, 1]
    results = set()
    for x in (-1, 0, 1):
        results.add(x + 1 if x < 0 else x)
    assert (min(results), max(results)) == (0, 1)

    p = parse("int x; if (x < 0) { x += 1; } know(x<100);")
    env = AbstractEnv({"x": I(-1, 1)})
    out = eval_stmt(p.body[0], env, ctx_with())
    assert out.get("x") == I(0, 1)


def test_infeasible_branch_is_skipped():
    p = parse("int x; if (x < 0) { x = 90; } know(x<100);")
    env = AbstractEnv({"x": I(1, 5)})
    out = eval_stmt(p.body[0], env, ctx_with())
    assert out.get("x") == I(1, 5)


def test_loop_widen_then_narrow():
    p = parse("int x; x = 0; while (x < 10) { x += 1; } know(x<100);")
    loop = p.body[1]
    env = AbstractEnv({"x": I(0, 0)})
    out = eval_loop(loop, env, ctx_with(unroll_limit=0))
    assert out.get("x") == I(10, 10)


def test_loop_unrolled_when_definite():
    p = parse("int x; x = 0; while (x < 10) { x += 1; } know(x<100);")
    loop = p.body[1]
    ctx = ctx_with()
    out = eval_loop(loop, AbstractEnv({"x": I(0, 0)}), ctx)
    assert out.get("x") == I(10, 10)
    assert ctx.widened_loops == 0


def test_loop_false_guard_runs_zero_iterations():
    p = parse("int x; while (x < 0) { x += 1; } know(x<100);")
    loop = p.body[0]
    ctx = ctx_with()
    out = eval_loop(loop, AbstractEnv({"x": I(0, 5)}), ctx)
    assert out.get("x") == I(0, 5)
    assert ctx.table == {}


@pytest.mark.parametrize(
    "knobs",
    [{"unroll_limit": -1}, {"widening_delay": -1}, {"narrowing_passes": -1}, {"step_budget": 0}],
)
def test_trial_config_rejects_out_of_range_knobs(knobs):
    with pytest.raises(ValueError, match=next(iter(knobs))):
        TrialConfig(**knobs)
    TrialConfig(unroll_limit=0, widening_delay=0, narrowing_passes=0, step_budget=1)


def test_generator_records_singleton():
    ctx = ctx_with()
    ctx.restriction = {7: (1, 1)}
    ctx.word[:] = [2]
    iv = ctx.draw(lang.Draw(7, Kind.INT))
    assert iv == I(1, 1)
    # a site the restriction leaves draws from the seed (0 here) by lang's rule
    u = ctx.draw(lang.Draw(8, Kind.REAL)).lo
    assert u == lang.draw(0, 8, (2,), Kind.REAL)
    assert ctx.table == {(7, (2,)): 1, (8, (2,)): u}


def test_generator_full_range_inside_fixpoint():
    ctx = ctx_with(randomize=False)
    assert ctx.draw(lang.Draw(7, Kind.INT)) == I(0, 1)
    assert ctx.draw(lang.Draw(8, Kind.REAL)) == R(0.0, 1.0)
    assert ctx.table == {}


def test_duplicate_choice_key_rejected():
    ctx = ctx_with()
    ctx.draw(lang.Draw(7, Kind.INT))
    with pytest.raises(InterpError, match="duplicate"):
        ctx.draw(lang.Draw(7, Kind.INT))


def test_nested_fixpoint_keeps_randomize_off(figs):
    # an uncertain outer loop forces the inner loop through the fixpoint
    # path; generators inside must not record
    src = """
    int x, i;
    while (x < 4) {
        i = 0;
        while (i < 2) { x += coin_flip(); i += 1; }
    }
    know (x < 100);
    """
    p = parse(src)
    out = analyze_trial(p, 5)
    assert out.table == {}  # outer guard is uncertain from the start
    assert out.hit == 1


def test_step_budget_aborts_conservatively(figs):
    out = analyze_trial(figs["fig1"], 0, TrialConfig(step_budget=10))
    assert out.aborted
    assert out.hit == 1


def test_trial_accounts_widening(figs):
    src = "int x; x = 0; while (x < 10) { x += coin_flip(); } know (x < 100);"
    out = analyze_trial(parse(src), 3, TrialConfig(unroll_limit=4))
    assert out.widened_loops == 1
    assert out.hit == 1


# --- fixpoint pass reuse -------------------------------------------------------

# fig4's branch in an inner loop, nested in an outer loop with an
# unconstrained trip count: every trial runs both fixpoints
NESTED = """
int k, m, j;
double x, z;
know (x>=0.05 && x<=0.1);
know (m>=0 && m<=5);
k=0;
while (k < m) {
  j=0;
  while (j < 3) {
    z=uniform(); z+=z;
    if (x+z<2.) { x += uniform(); } else { x -= uniform(); }
    j++;
  }
  k++;
}
know (x>0.9 && x<1.1);
"""


def _summary(out):
    env = out.env and out.env.render()  # None when aborted
    return out.hit, out.table, out.widened_loops, out.steps, out.aborted, env


def _traced(*args, **kwargs):
    """A trial that recomputes every fixpoint pass: the reference."""

    return analyze_trial(*args, trace=lambda line: None, **kwargs)


@pytest.fixture
def bodies(monkeypatch):
    """Counts `eval_block` calls: fixpoint passes, branches and trial bodies."""

    calls = []
    real = interp.eval_block

    def counted(stmts, env, ctx):
        calls.append(stmts)
        return real(stmts, env, ctx)

    monkeypatch.setattr(interp, "eval_block", counted)
    return calls


def test_pass_reuse_matches_traced_trials():
    p = parse(NESTED)
    # pinned: a change that drifts the counters changes every loop Report
    assert analyze_trial(p, 0).steps == 281 and analyze_trial(p, 0).widened_loops == 7
    for seed in range(12):
        out = analyze_trial(p, seed)
        assert out.widened_loops > 1  # inner fixpoints widen inside the outer one
        assert _summary(out) == _summary(_traced(p, seed))


def test_untraced_trial_reuses_repeated_passes(bodies):
    p = parse(NESTED)
    _traced(p, 0)
    recomputed = len(bodies)
    bodies.clear()
    analyze_trial(p, 0)
    # the outer loop's first narrowing pass repeats its last ascending one
    assert len(bodies) < recomputed
    lines, again = [], []
    analyze_trial(p, 0, trace=lines.append)
    analyze_trial(p, 0, trace=again.append)
    assert lines == again and len(lines) > 100


def test_pass_reuse_stops_at_the_step_budget():
    p = parse(NESTED)
    full = analyze_trial(p, 1)
    for budget in (full.steps - 1, full.steps // 2):
        small = TrialConfig(step_budget=budget)
        out = analyze_trial(p, 1, small)
        assert out.aborted and out.steps == budget + 1
        assert _summary(out) == _summary(_traced(p, 1, small))
    assert analyze_trial(p, 1).steps == full.steps


def _loop_ctx(traced):
    ctx = ctx_with(unroll_limit=0)
    if traced:
        ctx.trace = lambda line: None
    return ctx


def test_pass_reuse_keeps_the_sign_of_zero(monkeypatch, bodies):
    # -0.0 == 0.0 with equal hashes; each entry must render its own zero
    p = parse("double x, y; while (y < 5.0) { y = y + 1.0; } know (x < 2.0);")
    loop = p.body[0]
    for zero in (-0.0, 0.0):
        env = AbstractEnv({"x": R(zero, 1.0), "y": R(0.0, 0.0)})
        out = eval_loop(loop, env, _loop_ctx(False))
        assert out.render() == eval_loop(loop, env, _loop_ctx(True)).render()
        assert out.render().startswith(f"x=[{zero!r}, ")

    # a guard filter that gives x a zero lower bound on each pass: when the
    # zero alternates, no entry repeats the last one, although all compare
    # equal, so every pass recomputes
    real = interp.filter_env
    for alternate in (False, True):
        passes = itertools.count()

        def zeroing(env, cond, polarity=True):
            out = real(env, cond, polarity)
            if cond is loop.cond and polarity and not out.is_bottom():
                zero = -0.0 if alternate and next(passes) % 2 else 0.0
                out = out.assign("x", R(zero, out.get("x").hi))
            return out

        monkeypatch.setattr(interp, "filter_env", zeroing)
        counts = []
        for traced in (True, False):
            bodies.clear()
            eval_loop(loop, AbstractEnv({"x": R(0.0, 1.0), "y": R(0.0, 0.0)}), _loop_ctx(traced))
            counts.append(len(bodies))
        recomputed, untraced = counts
        assert untraced == recomputed if alternate else untraced < recomputed


# --- pinned draws and traces --------------------------------------------------


def test_pinned_coin_leaves_the_other_draws():
    # counter draws: pinning the first coin leaves the second coin's draw
    # as it is without the pin, on the scalar engine and in lanes alike
    p = parse("int c, d; c = coin_flip(); d = coin_flip(); know (c + d > 1);")
    first, second = (s.expr.site for s in p.body)
    seeds = list(range(20))
    for pin in (0, 1):
        restriction = {first: (pin, pin)}
        lanes = run_lanes(p, seeds, None, restriction)
        for seed, lane in zip(seeds, lanes):
            free = analyze_trial(p, seed).table[(second, ())]
            pinned_trial = analyze_trial(p, seed, restriction=restriction)
            assert pinned_trial.table == {(first, ()): pin, (second, ()): free}
            assert _summary(lane) == _summary(pinned_trial)


def test_trace_and_pinned_rule_the_trial(figs):
    p = figs["fig1"]
    ones = {lang.generator_sites(p)[0].site: (1, 1)}
    first, second = [], []
    analyze_trial(p, 1, trace=first.append)
    analyze_trial(p, 1, trace=second.append)
    assert first == second and len(first) > 1
    assert _summary(_traced(p, 1)) == _summary(analyze_trial(p, 1))
    # a restriction to one point pins every draw at its site, whatever the seed
    for seed in (1, 2):
        assert list(analyze_trial(p, seed, restriction=ones).table.values()) == [1, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "src",
    [
        # uncertain data-dependent loop bound, nested fixpoint, post-loop draws
        """
        int x, i, j;
        know (x>=0 && x<=3);
        i = 0;
        while (i < x) {
          j = 0;
          while (j < 2) { x += coin_flip(); j++; }
          i++;
        }
        if (x > 2) { x -= coin_flip(); } else { x += coin_flip(); }
        know (x < 4);
        """,
        # generator in the guard: the loop is never unrolled concretely
        """
        int x, n;
        know (n>=0 && n<=2);
        x = 0;
        while (coin_flip() < 1) { x += 1; know (x < 5); }
        x += n;
        know (x >= 4);
        """,
        # real arithmetic with scaling and a discriminating branch
        """
        double a, b;
        know (a >= 0.0 && a <= 0.5);
        b = 2.0 * uniform();
        if (b < a) { b += uniform(); } else { b -= 0.5 * uniform(); }
        know (b > 0.75 && b < 1.5);
        """,
        # u overflows to inf and 0.0 * inf is nan, which no interval holds:
        # the concrete semantics makes the overflow an error, not a hit
        """
        double u, v;
        know (u >= 0.5 && u <= 1.0);
        u = 1e200 * (1e200 * u);
        v = 0.0 * u;
        know (v != 0.0);
        """,
    ],
)
def test_trials_over_approximate_concrete_replays(src):
    from absmc.concrete import ChoiceSource, NondetSpec, run_concrete
    from absmc.estimator import derive_seed

    p = parse(src)
    grids = NondetSpec.from_program(p).grid_points(p)
    for s in range(40):
        trial = analyze_trial(p, derive_seed(900, s))
        for r in range(40):
            rng = random.Random(derive_seed(9000 + s, r))
            init = {v: rng.choice(pts) for v, pts in grids.items()}
            try:
                concrete = run_concrete(p, init, ChoiceSource(trial.table, rng), step_budget=2000)
            except OverflowError:  # an error of the concrete semantics: no final state
                continue
            assert not (concrete == 1 and trial.hit == 0)


@given(
    st.integers(-5, 5),
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_body_transfer_monotone(lo, width, grow_lo, grow_hi):
    src = """
    int x, y;
    if (x < 3) { x += coin_flip(); } else { x -= 1; }
    y = 2 * x;
    know (x < 100);
    """
    p = parse(src)
    small_env = AbstractEnv({"x": I(lo, lo + width), "y": Interval.top(Kind.INT)})
    big_env = AbstractEnv(
        {"x": I(lo - grow_lo, lo + width + grow_hi), "y": Interval.top(Kind.INT)}
    )
    ctx = ctx_with(randomize=False)
    small_out = eval_stmt(p.body[0], small_env, ctx)
    small_out = eval_stmt(p.body[1], small_out, ctx)
    big_out = eval_stmt(p.body[0], big_env, ctx)
    big_out = eval_stmt(p.body[1], big_out, ctx)
    assert small_out.join(big_out) == big_out
