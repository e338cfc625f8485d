import concurrent.futures
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from absmc import estimator, lang
from absmc.estimator import (
    RestrictionError,
    RestrictionSpec,
    check_run,
    derive_seed,
    hoeffding_margin,
    plan_trials,
    run,
)
from absmc.interp import TrialConfig, analyze_trial
from absmc.lang import parse


def test_bound_reproduces_published_arithmetic():
    # closed form recomputed independently of the implementation path
    expected = 0.833 + math.sqrt(math.log(100.0) / (2 * 10_000))
    got = 0.833 + hoeffding_margin(10_000, 0.01)
    assert abs(got - expected) < 1e-12
    assert round(got, 4) == 0.8482


def test_bound_examples():
    assert hoeffding_margin(5, 1.0) == 0.0  # zero margin at epsilon = 1
    assert abs(0.5 + hoeffding_margin(10_000, 0.01) - 0.5151742713) < 1e-9
    always = parse("int x; x = 0; know(x < 1);")
    assert run(always, 100, 0.01).p_prime == 1.0  # clamps


def test_bound_domain_errors():
    always = parse("int x; x = 0; know(x < 1);")
    with pytest.raises(ValueError):
        hoeffding_margin(0, 0.01)
    with pytest.raises(ValueError):
        hoeffding_margin(10, 0.0)
    with pytest.raises(ValueError):
        run(always, 10, 1.5)


def test_plan_trials_examples():
    assert plan_trials(0.01, 0.01) == 23_026
    assert plan_trials(0.1, 0.01) == 231
    assert plan_trials(0.5, 0.999999) == 1  # ceiling of almost zero, clamped


def test_plan_trials_domain_errors():
    with pytest.raises(ValueError):
        plan_trials(0.0, 0.01)
    with pytest.raises(ValueError):
        plan_trials(0.01, 1.0)


@given(
    st.integers(min_value=1, max_value=10**7),
    st.integers(min_value=1, max_value=10**7),
    st.floats(min_value=1e-6, max_value=0.999),
    st.floats(min_value=1e-6, max_value=0.999),
)
def test_bound_monotone(n1, n2, e1, e2):
    lo_n, hi_n = min(n1, n2), max(n1, n2)
    lo_e, hi_e = min(e1, e2), max(e1, e2)
    assert hoeffding_margin(hi_n, lo_e) <= hoeffding_margin(lo_n, lo_e)
    assert hoeffding_margin(lo_n, hi_e) <= hoeffding_margin(lo_n, lo_e)


@given(
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1e-6, max_value=0.999),
)
def test_planned_trials_achieve_margin(t, eps):
    n = plan_trials(t, eps)
    assert hoeffding_margin(n, eps) <= t * (1 + 1e-12)
    if n > 1:
        assert hoeffding_margin(n - 1, eps) > t * (1 - 1e-12)


def test_derive_seed_is_documented_splitmix_split():
    # the master key folds the sign, then the magnitude's 64-bit limbs
    assert derive_seed(42, 7) == lang.mix(lang.fold((0, 42)) ^ 7)
    assert derive_seed(-42, 7) == lang.mix(lang.fold((1, 42)) ^ 7)
    assert derive_seed(2**64 + 42, 7) == lang.mix(lang.fold((0, 42, 1)) ^ 7)
    assert derive_seed(0, 7) == lang.mix(lang.fold((0, 0)) ^ 7)
    assert derive_seed(42, 7) != derive_seed(42, 8)
    assert derive_seed(42, 7) != derive_seed(43, 7)


def test_derive_seed_takes_an_index_array():
    # a lane block's seeds, one call for the block
    indices = np.array([0, 1, 7, 2**63, lang.M64], dtype=np.uint64)
    for master in (0, 42, -42, 2**64 + 42):
        seeds = derive_seed(master, indices)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(master, i) for i in indices.tolist()]


def test_run_trivial_program():
    p = parse("int x; x = 0; know(x < 1);")
    r = run(p, 1, 0.01)
    assert r.hits == 1 and r.p_hat == 1.0 and r.p_prime == 1.0
    assert r.margin == hoeffding_margin(1, 0.01)


def test_run_report_fields(figs):
    r = run(figs["fig2"], 500, 0.05, master_seed=3, jobs=1)
    d = r.to_dict()
    assert set(d) == {
        "program",
        "n",
        "hits",
        "p_hat",
        "epsilon",
        "margin",
        "p_prime",
        "seed",
        "jobs",
        "elapsed_ms",
        "config",
        "warnings",
    }
    assert d["n"] == 500
    assert d["p_hat"] == d["hits"] / 500
    assert abs(d["p_prime"] - min(1.0, d["p_hat"] + d["margin"])) < 1e-15
    assert d["config"]["unroll_limit"] == 64


# loops fig1's shape: the trip count is unconstrained, so the first
# iteration enters the fixpoint, where the coin draws nothing
LOOPS_FIG1 = (
    "int x, i, n; know (x>=0 && x<=2); know (n>=0 && n<=100); i=0;"
    " while (i < n) { x += coin_flip(); i++; } know (x>=55);"
)


def _without_timing(report):
    d = report.to_dict()
    d.pop("elapsed_ms")
    d.pop("jobs")  # echoes the request
    return d


@pytest.fixture
def inline_pools(monkeypatch):
    """Stands in for the process pool `estimator` imports when it starts
    one: records each pool's size and the tasks it maps, then maps them in
    this process."""

    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.tasks = []
            pools.append((max_workers, self.tasks))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            self.tasks.extend(tasks)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return pools


@pytest.fixture
def real_pools(monkeypatch):
    """The size of each real process pool that `estimator` starts."""

    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    class RecordedPool(real):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    return sizes


def test_run_jobs_do_not_change_results(figs, monkeypatch, real_pools):
    # a free pool and small blocks: the trials after the first 101 go to the pool
    monkeypatch.setattr(estimator, "POOL_COST_S", 0.0)
    monkeypatch.setattr(estimator, "BLOCK", 100)
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 2)
    a = run(figs["fig1"], 600, 0.01, master_seed=9, jobs=1)
    b = run(figs["fig1"], 600, 0.01, master_seed=9, jobs=2)
    assert real_pools == [2]
    assert _without_timing(a) == _without_timing(b)


@pytest.mark.parametrize("cpus, pools, chunks", [(2, [2], 2), (None, [], 0)])
def test_run_caps_workers_at_cpu_count(figs, monkeypatch, inline_pools, cpus, pools, chunks):
    monkeypatch.setattr(estimator, "POOL_COST_S", 0.0)
    monkeypatch.setattr(estimator, "BLOCK", 64)
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: cpus)
    capped = run(figs["fig1"], 400, 0.01, master_seed=9, jobs=5000)
    assert [size for size, _ in inline_pools] == pools
    assert sum(len(tasks) for _, tasks in inline_pools) == chunks
    assert capped.jobs == 5000
    inline = run(figs["fig1"], 400, 0.01, master_seed=9, jobs=1)
    assert _without_timing(capped) == _without_timing(inline)


def test_a_benchmark_sized_run_starts_no_pool(figs, monkeypatch, inline_pools):
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 2)
    pooled = run(figs["fig1"], 400, 0.01, master_seed=9, jobs=2)
    assert inline_pools == []
    assert _without_timing(pooled) == _without_timing(run(figs["fig1"], 400, 0.01, master_seed=9))


def test_the_pool_maps_the_trials_after_the_first_block(figs, monkeypatch, inline_pools, engines):
    monkeypatch.setattr(estimator, "POOL_COST_S", 0.0)
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 3)
    n, first = 10_000, 1 + estimator.BLOCK
    pooled = run(figs["fig3"], n, 0.01, master_seed=6, jobs=3)
    [(size, tasks)] = inline_pools
    assert size == 3
    # three contiguous ranges that cover [first, n) and nothing else
    assert [task[4:] for task in tasks] == [(4097, 6064), (6064, 8032), (8032, 10000)]
    assert all(task[3] == 6 for task in tasks)
    # the probe runs once, in this process; no worker probes again
    assert engines["scalar"] == [derive_seed(6, 0)]
    assert [len(b) for b in engines["blocks"]] == [first - 1, 1967, 1968, 1968]
    assert _without_timing(pooled) == _without_timing(run(figs["fig3"], n, 0.01, master_seed=6))


def test_a_slow_probe_does_not_start_a_pool(figs, monkeypatch, inline_pools):
    # T scales from the first lane block alone: a probe of 50 ms scaled
    # with it to the 5,903 trials left would read over 72 ms, past the
    # 60 ms at which a pool of 2 pays
    real, probe = estimator.analyze_trial, derive_seed(4, 0)

    def slow_probe(program, seed, *args, **kwargs):
        if seed == probe:
            time.sleep(0.05)
        return real(program, seed, *args, **kwargs)

    monkeypatch.setattr(estimator, "analyze_trial", slow_probe)
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 2)
    pooled = run(figs["fig3"], 10_000, 0.01, master_seed=4, jobs=2)
    assert inline_pools == []
    inline = run(figs["fig3"], 10_000, 0.01, master_seed=4)
    assert _without_timing(pooled) == _without_timing(inline)


@pytest.mark.parametrize("cost", [estimator.POOL_COST_S, 0.0], ids=["in-process", "pooled"])
@pytest.mark.parametrize("extra", [0, 1, 2], ids=["BLOCK", "BLOCK+1", "BLOCK+2"])
def test_reports_equal_across_jobs_on_both_paths(figs, monkeypatch, real_pools, cost, extra):
    monkeypatch.setattr(estimator, "POOL_COST_S", cost)
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 3)
    n = estimator.BLOCK + extra
    for p in (figs["fig3"], parse(LOOPS_FIG1)):
        reports = [_without_timing(run(p, n, 0.01, master_seed=13, jobs=jobs)) for jobs in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]
    # only a free pool takes a trial past the probe and the first block;
    # the draw-free probe stands for all n trials
    assert real_pools == ([2, 3] if cost == 0.0 and extra == 2 else [])


# --- chunks: a scalar probe, then lane blocks ------------------------------------


def _scalar_counts(p, config, restriction, master, start, stop):
    outs = [
        analyze_trial(p, derive_seed(master, i), config, restriction=restriction)
        for i in range(start, stop)
    ]
    return (
        sum(o.hit for o in outs),
        sum(o.widened_loops > 0 for o in outs),
        sum(o.aborted for o in outs),
    )


def test_run_walks_each_trial_once(figs, engines):
    run(figs["fig3"], 1000, 0.01, master_seed=5, jobs=1)
    # the probe on the scalar engine, then every later trial in one block
    assert engines["scalar"] == [derive_seed(5, 0)]
    assert [len(b) for b in engines["blocks"]] == [999]


def test_chunk_counts_equal_scalar_trials_on_the_corpus(figs, monkeypatch):
    monkeypatch.setattr(estimator, "BLOCK", 64)
    for p in figs.values():
        args = (p, TrialConfig(), None, 7, 3, 203)
        assert estimator._trial_chunk(args) == _scalar_counts(*args)


def test_a_chunk_splits_into_blocks_of_block_seeds(engines, monkeypatch):
    monkeypatch.setattr(estimator, "BLOCK", 8)
    p = parse("int c; double u; c = coin_flip(); if (c == 1) { u = uniform(); } know (u > 0.5);")
    args = (p, TrialConfig(), None, 3, 0, 40)
    assert estimator._trial_chunk(args) == _scalar_counts(*args)
    assert engines["scalar"] == [derive_seed(3, 0)]  # no lane went back
    # the trials after the probe, in order, BLOCK at a time
    assert [len(b) for b in engines["blocks"]] == [8, 8, 8, 8, 7]
    seeds = np.concatenate(engines["blocks"]).tolist()
    assert seeds == [derive_seed(3, i) for i in range(1, 40)]


def test_a_draw_free_probe_stands_for_its_chunk(engines):
    p = parse(LOOPS_FIG1)
    config = TrialConfig()
    for start, stop in [(0, 1000), (17, 18), (40, 4500)]:
        engines["scalar"].clear()
        got = estimator._trial_chunk((p, config, None, 2, start, stop))
        assert engines["scalar"] == [derive_seed(2, start)]
        assert got == (stop - start, stop - start, 0)  # every trial widens and may hit
    assert engines["blocks"] == []


def test_a_lane_handed_back_after_it_widened_counts_once(engines):
    # every trial widens the loop; the lanes that then take the branch
    # meet an INT literal of 2**53 and go back to the scalar engine
    p = parse(
        "int x, i, n, k; double u; know (n>=0 && n<=100); i=0;"
        " while (i < n) { x += coin_flip(); i++; }"
        " u = uniform(); if (u < 0.5) { k = 9007199254740992; } know (x >= 3);"
    )
    args = (p, TrialConfig(), None, 1, 0, 40)
    got = estimator._trial_chunk(args)
    assert got == _scalar_counts(*args) == (40, 40, 0)
    assert 1 < len(engines["scalar"]) < 40


def test_an_aborted_lane_counts_as_a_hit(figs):
    p, small = figs["fig1"], TrialConfig(step_budget=10)
    args = (p, small, None, 0, 0, 50)
    assert estimator._trial_chunk(args) == _scalar_counts(*args) == (50, 0, 50)


@pytest.mark.parametrize("master", [0, -1, 2**64 + 1, -(2**64) - 1])
def test_block_seeds_equal_derive_seed(figs, monkeypatch, engines, master):
    monkeypatch.setattr(estimator, "BLOCK", 8)
    estimator._trial_chunk((figs["fig3"], TrialConfig(), None, master, 5, 30))
    blocks = engines["blocks"]
    assert [b.dtype for b in blocks] == [np.uint64] * 3
    # blocks [6, 14), [14, 22), [22, 30): each crosses a multiple of 8
    assert [b.tolist() for b in blocks] == [
        [derive_seed(master, i) for i in range(first, first + 8)] for first in (6, 14, 22)
    ]


def test_chunk_counts_under_any_restriction():
    # a pinned coin is still a draw; the probe and each lane record it
    p = parse("int c, d; c = coin_flip(); d = coin_flip(); know (c + d > 1);")
    first = p.body[0].expr.site
    for restriction in (None, {first: (0, 0)}, {first: (1, 1)}, {first: (0, 1)}):
        args = (p, TrialConfig(), restriction, 3, 0, 80)
        assert estimator._trial_chunk(args) == _scalar_counts(*args)
    only = parse("int c; c = coin_flip(); know (c > 0);")
    restriction = {only.body[0].expr.site: (1, 1)}
    assert estimator._trial_chunk((only, TrialConfig(), restriction, 3, 0, 80)) == (80, 0, 0)


@pytest.mark.parametrize("n, block", [(7, 2), (1001, 99)], ids=["7", "1001"])
def test_uneven_chunks_do_not_change_results(figs, monkeypatch, n, block):
    # a free pool takes the trials after the first block, one range per
    # worker: 7 trials are a probe, a block of 2, then 1 + 1 + 2 at jobs=3
    monkeypatch.setattr(estimator, "POOL_COST_S", 0.0)
    monkeypatch.setattr(estimator, "BLOCK", block)
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 3)
    for name in ("fig1", "fig3"):
        reports = [_without_timing(run(figs[name], n, 0.01, master_seed=4, jobs=jobs)) for jobs in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]


def test_run_validates_arguments(figs):
    with pytest.raises(ValueError):
        run(figs["fig1"], 0, 0.01)
    with pytest.raises(ValueError):
        run(figs["fig1"], 10, 0.01, jobs=0)


def test_a_run_has_at_most_one_trial_per_seed(figs):
    # seeds count modulo 2**64, so trial 2**64 would draw as trial 0 and
    # the bound's trials would not be independent
    assert check_run(2**64, 0.01, 1) == hoeffding_margin(2**64, 0.01)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        check_run(2**64 + 1, 0.01, 1)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        run(figs["fig1"], 2**64 + 1, 0.01)


# --- restriction ----------------------------------------------------------------


def test_restriction_full_support_is_vacuous(figs):
    p = figs["fig4"]
    spec = RestrictionSpec.by_ordinal(p, {1: (0.0, 1.0), 2: (0.0, 1.0), 3: (0.0, 1.0)})
    assert spec.prob == 1.0
    base = run(p, 800, 0.01, master_seed=21)
    restricted = run(p, 800, 0.01, master_seed=21, restriction=spec)
    assert restricted.hits == base.hits
    assert restricted.p_hat == base.p_hat
    assert restricted.p_prime == base.p_prime
    assert any("restricted" in w for w in restricted.warnings)


def test_restriction_single_coin_value():
    p = parse("int x; x = coin_flip(); know(x >= 1);")
    spec = RestrictionSpec.by_ordinal(p, {1: (1, 1)})
    assert spec.prob == 0.5
    r = run(p, 400, 0.01, master_seed=2, restriction=spec)
    assert r.hits == 400  # the sampler always yields 1
    assert r.p_hat == 0.5
    assert abs(r.p_prime - min(1.0, 0.5 * (1.0 + r.margin))) < 1e-15


def test_restriction_validation(figs):
    with pytest.raises(RestrictionError, match="ordinal"):
        RestrictionSpec.by_ordinal(figs["fig4"], {9: (0.0, 1.0)})
    with pytest.raises(RestrictionError, match="loop"):
        RestrictionSpec.by_ordinal(figs["fig1"], {1: (0, 1)})
    with pytest.raises(RestrictionError, match="excludes"):
        coin = parse("int x; x = coin_flip(); know(x >= 1);")
        RestrictionSpec.by_ordinal(coin, {1: (0.4, 0.6)})
    with pytest.raises(RestrictionError, match="measure zero"):
        RestrictionSpec.by_ordinal(figs["fig4"], {2: (0.5, 0.5)})
    with pytest.raises(RestrictionError, match="empty"):
        RestrictionSpec.by_ordinal(figs["fig4"], {2: (0.9, 0.2)})


def test_fig4_hits_need_high_second_draw(figs):
    # oracle sweep backing the containment assertion: every hit records a
    # second-uniform value at or above 0.8, so [0.75, 1] contains them all
    p = figs["fig4"]
    site2 = lang.generator_sites(p)[1].site
    seen_hits = 0
    for i in range(1200):
        out = analyze_trial(p, derive_seed(77, i))
        if out.hit:
            seen_hits += 1
            assert out.table[(site2, ())] >= 0.75
    assert seen_hits > 100


def test_restricted_estimate_consistent_with_unrestricted(figs):
    p = figs["fig4"]
    spec = RestrictionSpec.by_ordinal(p, {2: (0.75, 1.0)})
    assert abs(spec.prob - 0.25) < 1e-12
    base = run(p, 4000, 0.01, master_seed=5)
    sharp = run(p, 4000, 0.01, master_seed=5, restriction=spec)
    assert abs(sharp.p_hat - base.p_hat) < 0.03
    # equal n: the restricted absolute margin shrinks by Pr(R)
    assert (sharp.p_prime - sharp.p_hat) < 0.3 * (base.p_prime - base.p_hat)
