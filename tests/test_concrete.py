import math
import random
from dataclasses import asdict

import pytest

from absmc import lang
from absmc.concrete import (
    ChoiceSource,
    MissingChoice,
    NondetSpec,
    OracleError,
    oracle_estimate,
    run_concrete,
)
from absmc.estimator import run
from absmc.lang import parse


def fig1_table(figs, flips):
    site = lang.generator_sites(figs["fig1"])[0].site
    return {(site, (k,)): f for k, f in zip(range(1, 6), flips)}


def test_run_concrete_fig1_examples(figs):
    p = figs["fig1"]
    src = ChoiceSource(fig1_table(figs, [0, 0, 1, 0, 0]))
    assert run_concrete(p, {"x": 2}, src) == 0  # final x = 3

    src = ChoiceSource(fig1_table(figs, [0, 1, 0, 0, 1]))
    assert run_concrete(p, {"x": 0}, src) == 1  # final x = 2


def test_run_concrete_empty_body():
    p = parse("int x; know(x<3);")
    assert run_concrete(p, {"x": 0}, ChoiceSource()) == 1
    assert run_concrete(p, {"x": 7}, ChoiceSource()) == 0


def test_run_concrete_know_prunes():
    p = parse("int x, y; know(x>=0); y = x + 1; know(y>0);")
    assert run_concrete(p, {"x": -5}, ChoiceSource()) == 0  # assumption fails


def test_run_concrete_fallback_stream_is_memoized():
    p = parse("double x; x = uniform(); x += uniform(); know(x<2.);")
    src = ChoiceSource(rng=random.Random(9))
    assert run_concrete(p, {}, src) == 1
    assert len(src.values) == 2
    again = run_concrete(p, {}, src)  # replays the memoized values
    assert again == 1


def test_run_concrete_missing_choice_without_fallback():
    p = parse("int x; x = coin_flip(); know(x<2);")
    with pytest.raises(MissingChoice):
        run_concrete(p, {}, ChoiceSource())


def test_run_concrete_divergence_returns_zero():
    p = parse("int x; x = 0; while (x < 1) { } know(x < 1);")
    notes = []
    assert run_concrete(p, {}, ChoiceSource(), step_budget=50, diagnostics=notes) == 0
    assert notes and "budget" in notes[0]


def test_nondet_spec_extraction(figs):
    assert NondetSpec.from_program(figs["fig1"]).ranges == {"x": (0, 2)}
    assert NondetSpec.from_program(figs["fig2"]).ranges == {"x": (0.0, 1.0)}
    assert NondetSpec.from_program(figs["fig3"]).ranges == {"x": (-1.0, 0.0)}
    fig4 = NondetSpec.from_program(figs["fig4"]).ranges
    assert set(fig4) == {"x"}
    assert fig4["x"][0] == 0.0 and abs(fig4["x"][1] - 0.1) < 1e-12


def test_nondet_spec_grid_points(figs):
    spec = NondetSpec.from_program(figs["fig1"], grid=64)
    assert spec.grid_points(figs["fig1"]) == {"x": [0, 1, 2]}
    spec = NondetSpec.from_program(figs["fig2"], grid=5)
    pts = spec.grid_points(figs["fig2"])["x"]
    assert pts == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_nondet_spec_grid_spans_the_double_range():
    # hi - lo overflows; the interior points must stay finite and in order
    p = parse("double u; know (u >= -1e308 && u <= 1e308); know (u > 0.5);")
    pts = NondetSpec.from_program(p, grid=5).grid_points(p)["u"]
    assert pts == [-1e308, -5e307, 0.0, 5e307, 1e308]
    p = parse("double u; know (u >= -1e308 && u <= 7e307); know (u > 0.5);")
    pts = NondetSpec.from_program(p, grid=5).grid_points(p)["u"]
    assert all(map(math.isfinite, pts)) and pts == sorted(set(pts))
    assert pts[0] == -1e308 and pts[-1] == 7e307


@pytest.mark.parametrize(
    "lo, hi", [(0, 18014398509481987), (0, 2**63 - 1), (-(2**63), 2**63 - 1), (-5, 2**60 + 3)]
)
@pytest.mark.parametrize("grid", [2, 3, 5, 64])
def test_nondet_spec_int_grid_stays_in_range(lo, hi, grid):
    # steps in float put the last point past hi beyond 2**53: 2**54 + 4 for
    # 2**54 + 3, and 2**63 for 2**63 - 1
    p = parse(f"int x; know (x >= {lo} && x <= {hi}); know (x == {hi});")
    pts = NondetSpec.from_program(p, grid=grid).grid_points(p)["x"]
    assert pts[0] == lo and pts[-1] == hi and len(pts) == grid
    assert all(type(v) is int and lo <= v <= hi for v in pts) and pts == sorted(set(pts))


def test_sampled_oracle_runs_an_int_range_to_2_63():
    # the last grid point fits int64, and it is the one that hits
    p = parse("int x; know (x >= 0 && x <= 9223372036854775807); know (x == 9223372036854775807);")
    assert oracle_estimate(p, mode="sampled", n=100, seed=0).estimate == 1.0


def test_sampled_oracle_runs_an_int_range_from_minus_2_63():
    # the first grid point, -2**63, fits int64, though its magnitude does not
    p = parse("int x; know (x >= -9223372036854775808 && x <= 0); know (x == 0);")
    assert oracle_estimate(p, mode="sampled", n=100, seed=0).estimate == 1.0
    p = parse("int x, y; know (x >= -9223372036854775808 && x <= 0); y = x + 5; know (y == 5);")
    assert oracle_estimate(p, mode="sampled", n=100, seed=0).estimate == 1.0


@pytest.mark.parametrize("value", ["x - 1", "0 - x", "x + x", "2 * x"])
def test_sampled_oracle_rejects_a_sum_past_int64_from_minus_2_63(value):
    p = parse(f"int x, y; know (x >= -9223372036854775808 && x <= 0); y = {value}; know (y == 0);")
    with pytest.raises(OverflowError, match="integer overflow"):
        oracle_estimate(p, mode="sampled", n=100, seed=0)


def test_nondet_spec_unbounded_rejected():
    p = parse("int x, y; y = x + 1; know(y<3);")
    with pytest.raises(OracleError, match="unbounded"):
        NondetSpec.from_program(p)


def test_exact_oracle_fig1(figs):
    rep = oracle_estimate(figs["fig1"], mode="exact")
    assert rep.estimate == 0.5
    assert rep.paths_or_samples == 32
    assert rep.mode == "exact"


def test_exact_oracle_rejects_uniform(figs):
    with pytest.raises(OracleError, match="coin_flip"):
        oracle_estimate(figs["fig2"], mode="exact")


def test_exact_oracle_prunes_vacuous_paths():
    p = parse("int x; x = coin_flip(); know(x > 0); know(x >= 0);")
    rep = oracle_estimate(p, mode="exact")
    assert rep.estimate == 0.5


def test_exact_matches_sampled_without_nondet():
    # two coins, outcome both heads: exactly 1/4
    p = parse("int x; x = 0; x += coin_flip(); x += coin_flip(); know(x >= 2);")
    exact = oracle_estimate(p, mode="exact")
    assert exact.estimate == 0.25
    sampled = oracle_estimate(p, mode="sampled", n=40_000, seed=1)
    tol = 4 * (0.25 * 0.75 / 40_000) ** 0.5
    assert abs(sampled.estimate - exact.estimate) <= tol


def test_sampled_oracle_matches_scalar_reference(figs):
    # same estimator, scalar path: per-sample lazy table shared across the grid
    p = figs["fig2"]
    spec = NondetSpec.from_program(p)
    combos = spec.combos(p)
    m = 1500
    hits = 0
    for i in range(m):
        src = ChoiceSource(rng=random.Random(1000 + i))
        hits += max(run_concrete(p, combo, src) for combo in combos)
    scalar = hits / m
    vector = oracle_estimate(p, mode="sampled", n=100_000, grid=64, seed=2).estimate
    sigma = (5 / 6 * 1 / 6) ** 0.5 * ((1 / m) ** 0.5 + (1 / 100_000) ** 0.5)
    assert abs(scalar - vector) <= 4 * sigma


def test_sampled_oracle_deterministic(figs):
    a = oracle_estimate(figs["fig4"], mode="sampled", n=20_000, seed=5)
    b = oracle_estimate(figs["fig4"], mode="sampled", n=20_000, seed=5)
    assert a.estimate == b.estimate
    c = oracle_estimate(figs["fig4"], mode="sampled", n=20_000, seed=6)
    assert c.estimate != a.estimate  # different stream


def test_oracle_report_shape(figs):
    rep = oracle_estimate(figs["fig2"], mode="sampled", n=1000, seed=0)
    d = asdict(rep)
    assert set(d) == {"mode", "estimate", "paths_or_samples", "grid", "seed", "diagnostics"}
    assert d["paths_or_samples"] == 1000


def test_oracle_lower_bounds_analyzer(figs):
    # grid max <= true sup over the unconstrained inputs, and each trial
    # over-approximates, so the oracle stays below the analyzer's estimate
    for name in ("fig1", "fig2", "fig4"):
        p = figs[name]
        if name == "fig1":
            o = oracle_estimate(p, mode="exact").estimate
        else:
            o = oracle_estimate(p, mode="sampled", n=50_000, seed=11).estimate
        r = run(p, 4000, 0.01, master_seed=17)
        slack = 3 * (0.25 / 4000) ** 0.5 + 3 * (0.25 / 50_000) ** 0.5
        assert o <= r.p_hat + slack, name


def test_divergent_lanes_count_as_misses_in_sampled_mode():
    # half the lanes diverge (x stuck), half exit on the first coin
    p = parse("int x; x = coin_flip(); while (x < 1) { } know (x >= 0);")
    rep = oracle_estimate(p, mode="sampled", n=4000, seed=3, step_budget=200)
    assert rep.diagnostics
    assert abs(rep.estimate - 0.5) <= 4 * (0.25 / 4000) ** 0.5


def test_sampled_oracle_budget_is_per_grid_point():
    # every grid point runs 20 loop iterations; a budget of 30 suffices for
    # one point, so the hitting points x = 2 and x = 3 must still count
    p = parse("int x, i; know (x >= 0 && x <= 3); i = 0; while (i < 20) { i++; } know (x >= 2);")
    rep = oracle_estimate(p, mode="sampled", n=100, seed=0, step_budget=30)
    assert rep.estimate == 1.0
    assert rep.diagnostics == ()
    assert oracle_estimate(p, mode="exact").estimate == 1.0


def test_nondet_spec_grid_of_one_takes_low_end():
    p = parse("int x; double y; know (x >= 3 && x <= 90 && y >= 0.5 && y <= 2.0); know (x > 5 || y > 1.0);")
    spec = NondetSpec.from_program(p, grid=1)
    assert spec.grid_points(p) == {"x": [3], "y": [0.5]}
    with pytest.raises(OracleError, match="grid"):
        NondetSpec.from_program(p, grid=0)


def test_nondet_spec_grid_cap_counts_int_spans():
    # a narrow INT range gets one point per value, whatever the grid
    p = parse("int a, b; double u, v; know (a + b > 0 && u + v > 0.5);")
    ranges = {"a": (0, 1), "b": (0, 1), "u": (0.0, 1.0), "v": (0.0, 1.0)}
    assert len(NondetSpec(ranges, grid=512).grid_points(p)["u"]) == 512  # 4 * 512**2 == 1 << 20
    with pytest.raises(OracleError, match=f"{4 * 513**2} input combinations.*--grid"):
        NondetSpec(ranges, grid=513).grid_points(p)
