import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from absmc import interp, lang
from absmc.intervals import AbstractEnv, Interval
from absmc.interp import (
    DrawTrie,
    InterpError,
    TrialConfig,
    TrialContext,
    analyze_trial,
    eval_loop,
    eval_stmt,
)
from absmc.lang import Kind, parse
from helpers import ScriptedRandom

I = lambda lo, hi: Interval.make(Kind.INT, lo, hi)  # noqa: E731
R = lambda lo, hi: Interval.make(Kind.REAL, lo, hi)  # noqa: E731


def ctx_with(rng=None, randomize=True, **cfg):
    ctx = TrialContext(rng=rng or random.Random(0), config=TrialConfig(**cfg))
    ctx.randomize = randomize
    return ctx


# --- whole trials on corpus programs -----------------------------------------


def test_fig2_trial_low_samples(figs):
    out = analyze_trial(figs["fig2"], 0, rng=ScriptedRandom(uniforms=[0.3, 0.4, 0.5]))
    x = out.env.get("x")
    assert abs(x.lo - 1.2) < 1e-12 and abs(x.hi - 2.2) < 1e-12
    assert out.hit == 1


def test_fig2_trial_high_samples(figs):
    out = analyze_trial(figs["fig2"], 0, rng=ScriptedRandom(uniforms=[0.9, 0.8, 0.7]))
    x = out.env.get("x")
    assert abs(x.lo - 2.4) < 1e-12 and abs(x.hi - 3.4) < 1e-12
    assert out.hit == 0


def test_fig1_trial_unrolls_and_records(figs):
    p = figs["fig1"]
    coin_site = lang.generator_sites(p)[0].site
    out = analyze_trial(p, 0, rng=ScriptedRandom(bits=[0, 1, 0, 0, 0]))
    assert out.env.get("x") == I(1, 3)
    assert out.env.get("i") == I(5, 5)
    assert out.hit == 1
    assert out.widened_loops == 0
    assert out.table == {(coin_site, (k,)): b for k, b in zip(range(1, 6), [0, 1, 0, 0, 0])}

    out = analyze_trial(p, 0, rng=ScriptedRandom(bits=[1, 1, 1, 0, 0]))
    assert out.env.get("x") == I(3, 5)
    assert out.hit == 0


def test_fig4_join_of_branches(figs):
    # hand execution: x in [0, 0.1], z = 2 * 0.1, branch condition definite,
    # so x becomes [u2, u2 + 0.1]; u2 = 0.7 stays below the outcome window
    out = analyze_trial(figs["fig4"], 0, rng=ScriptedRandom(uniforms=[0.1, 0.7, 0.5]))
    x = out.env.get("x")
    assert abs(x.lo - 0.7) < 1e-12 and abs(x.hi - 0.8) < 1e-12
    assert out.hit == 0
    assert len(out.table) == 2  # else branch infeasible: its draw never happens

    # u2 = 0.85 straddles the window boundary 0.9: cannot be ruled out
    out = analyze_trial(figs["fig4"], 0, rng=ScriptedRandom(uniforms=[0.1, 0.85, 0.5]))
    assert out.hit == 1

    # first draw near 1 leaves both branches feasible: both sample
    out = analyze_trial(figs["fig4"], 0, rng=ScriptedRandom(uniforms=[0.96, 0.85, 0.5]))
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
    ctx = ctx_with(rng=ScriptedRandom(bits=[1]))
    ctx.word[:] = [2]
    iv = ctx.draw(lang.Draw(7, Kind.INT))
    assert iv == I(1, 1)
    assert ctx.table == {(7, (2,)): 1}


def test_generator_full_range_inside_fixpoint():
    ctx = ctx_with(randomize=False)
    assert ctx.draw(lang.Draw(7, Kind.INT)) == I(0, 1)
    assert ctx.draw(lang.Draw(8, Kind.REAL)) == R(0.0, 1.0)
    assert ctx.table == {}


def test_duplicate_choice_key_rejected():
    ctx = ctx_with(rng=ScriptedRandom(bits=[1, 0]))
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


# --- the fixpoint memo ----------------------------------------------------------

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


def test_memo_keeps_the_sign_of_zero():
    # -0.0 == 0.0 with equal hashes; each entry must replay its own zero
    p = parse("double x, y; while (y < 5.0) { y = y + 1.0; } know (x < 2.0);")
    memo = {}
    for zero in (-0.0, 0.0):
        env = AbstractEnv({"x": R(zero, 1.0), "y": R(0.0, 0.0)})
        plain = eval_loop(p.body[0], env, ctx_with(unroll_limit=0))
        ctx = ctx_with(unroll_limit=0)
        ctx.memo = memo
        assert eval_loop(p.body[0], env, ctx).render() == plain.render()
        assert plain.render().startswith(f"x=[{zero!r}, ")
    assert len(memo) == 2


def test_memo_replay_replays_steps_and_widenings():
    p = parse(NESTED)
    memo = {}
    analyze_trial(p, 0, memo=memo)
    entries = dict(memo)
    for seed in range(1, 12):
        out = analyze_trial(p, seed, memo=memo)
        assert out.widened_loops > 1  # inner fixpoints widen inside the outer one
        assert _summary(out) == _summary(analyze_trial(p, seed))
    assert memo == entries  # no draw reaches a fixpoint's entry: every later one hits


def test_memo_replay_stops_at_the_step_budget():
    p = parse(NESTED)
    memo = {}
    full = analyze_trial(p, 1, memo=memo)
    for budget in (full.steps - 1, full.steps // 2):
        small = TrialConfig(step_budget=budget)
        replay = analyze_trial(p, 1, small, memo=memo)
        assert replay.aborted and replay.steps == budget + 1
        assert replay.steps == analyze_trial(p, 1, small).steps
    assert analyze_trial(p, 1, memo=memo).steps == full.steps


def test_traced_trial_bypasses_memo():
    p = parse(NESTED)
    memo = {}
    lines, plain = [], []
    analyze_trial(p, 1, memo=memo, trace=lines.append)
    assert memo == {}
    analyze_trial(p, 1, memo=memo)
    analyze_trial(p, 1, memo=memo, trace=lines.append)
    analyze_trial(p, 1, trace=plain.append)
    assert lines == plain + plain


# --- the draw trie ----------------------------------------------------------


class CountingRandom(random.Random):
    """random.Random that logs its instances and calls."""

    log: list = []

    def __init__(self, seed=None):
        self.log.append(("new", seed))
        super().__init__(seed)

    def getrandbits(self, k):
        self.log.append(("bits", k))
        return super().getrandbits(k)

    def random(self):
        self.log.append(("random",))
        return super().random()


@pytest.fixture
def counting(monkeypatch):
    monkeypatch.setattr(CountingRandom, "log", [])
    monkeypatch.setattr(random, "Random", CountingRandom)
    return CountingRandom.log


def test_trie_serves_coin_paths(figs):
    p = figs["fig1"]
    trie = DrawTrie()
    for seed in range(200):
        assert _summary(analyze_trial(p, seed, trie=trie)) == _summary(analyze_trial(p, seed))
    assert trie.size == 63  # 5 coins: 31 draws and 32 leaves
    served = analyze_trial(p, 7, trie=trie)
    served.table.clear()  # a served trial owns its table
    assert _summary(analyze_trial(p, 7, trie=trie)) == _summary(analyze_trial(p, 7))


def test_trie_pinned_coin_draws_nothing(counting):
    p = parse("int c, d; c = coin_flip(); d = coin_flip(); know (c + d > 1);")
    first = p.body[0].expr.site
    trie = DrawTrie()
    for pin in (0, 1):
        restriction = {first: (pin, pin)}
        analyze_trial(p, 3, restriction=restriction, trie=trie)  # inserts
        counting.clear()
        served = analyze_trial(p, 3, restriction=restriction, trie=trie)
        walk = list(counting)
        counting.clear()
        full = analyze_trial(p, 3, restriction=restriction)
        assert _summary(served) == _summary(full)
        assert walk == counting == [("new", 3), ("bits", 1)]  # only the free coin


def test_trie_with_only_pinned_coins_never_seeds(counting):
    p = parse("int c; c = coin_flip(); know (c > 0);")
    restriction = {p.body[0].expr.site: (1, 1)}
    trie = DrawTrie()
    analyze_trial(p, 5, restriction=restriction, trie=trie)
    counting.clear()
    assert analyze_trial(p, 5, restriction=restriction, trie=trie).hit == 1
    assert counting == []


def test_trie_uniform_after_a_coin_runs_in_full(counting):
    p = parse("int c; double r; c = coin_flip(); r = uniform(); know (r < 0.5);")
    trie = DrawTrie()
    for seed in range(20):
        assert _summary(analyze_trial(p, seed, trie=trie)) == _summary(analyze_trial(p, seed))
    root = trie.entry[None]
    assert all(node.children is None for node in root.children.values())
    assert trie.size == 3  # the coin and one uniform under each value
    counting.clear()
    analyze_trial(p, 4, trie=trie)
    walk_and_full = list(counting)
    counting.clear()
    analyze_trial(p, 4)
    # the walk draws the coin, then the full trial redraws it from its seed
    assert walk_and_full == [("new", 4), ("bits", 1)] + counting


def test_trie_stores_a_step_budget_abort(figs):
    p = figs["fig1"]
    small = TrialConfig(step_budget=10)
    trie = DrawTrie()
    first = analyze_trial(p, 0, small, trie=trie)
    assert first.aborted and trie.size > 1
    size = trie.size
    served = analyze_trial(p, 0, small, trie=trie)
    assert trie.size == size  # served from its leaf
    assert served.aborted and served.env is None and served.hit == 1
    assert _summary(served) == _summary(analyze_trial(p, 0, small))


def test_trie_bypassed_by_trace_and_rng(figs):
    p = figs["fig1"]
    trie = DrawTrie()
    lines, plain = [], []
    analyze_trial(p, 1, trace=lines.append, trie=trie)
    analyze_trial(p, 1, rng=ScriptedRandom(bits=[1, 1, 1, 1, 1]), trie=trie)
    assert trie.size == 0
    analyze_trial(p, 1, trie=trie)
    assert trie.size > 0
    analyze_trial(p, 1, trace=lines.append, trie=trie)
    analyze_trial(p, 1, trace=plain.append)
    assert lines == plain + plain
    # an rng script the trie's paths do not follow still rules the trial
    scripted = analyze_trial(p, 1, rng=ScriptedRandom(bits=[1, 1, 1, 1, 1]), trie=trie)
    assert list(scripted.table.values()) == [1, 1, 1, 1, 1]


def test_trie_serves_any_restriction():
    # the same draws lead to the same outcome whatever span they came from
    p = parse("int c, d; c = coin_flip(); d = coin_flip(); know (c + d > 1);")
    first = p.body[0].expr.site
    trie = DrawTrie()
    for seed in range(40):
        for restriction in (None, {first: (0, 0)}, {first: (1, 1)}, {first: (0, 1)}):
            served = analyze_trial(p, seed, restriction=restriction, trie=trie)
            assert _summary(served) == _summary(analyze_trial(p, seed, restriction=restriction))
    assert trie.size == 7


def test_trie_stops_growing_at_its_cap(figs, monkeypatch):
    monkeypatch.setattr(interp, "_TRIE_CAP", 10)
    p = figs["fig1"]
    trie = DrawTrie()
    for seed in range(100):
        assert _summary(analyze_trial(p, seed, trie=trie)) == _summary(analyze_trial(p, seed))
    assert trie.size == 10


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
