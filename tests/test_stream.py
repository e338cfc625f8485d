"""The counter-based draw stream, `lang.draw`: the bits of a draw mix the
seed with its key's salt, ``lang.fold((site, *word))``, on a Python int in
the scalar engine and on a uint64 seed array in the lanes."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from absmc import lang
from absmc.estimator import derive_seed
from absmc.interp import analyze_trial
from absmc.lang import Kind
from helpers import run_lanes, summary

# upper 0.1% points of the chi-square distribution, by degrees of freedom
CRITICAL = {1: 10.828, 3: 16.266, 15: 37.697}
SITES = range(1, 9)
WORDS = [(), (1,), (2,), (1, 1), (3, 64)]
KEYS = [(site, word) for site in SITES for word in WORDS]  # site-major


def _chi2(counts, expected: float) -> float:
    return float(sum((c - expected) ** 2 / expected for c in counts))


def _cells(a, b, bins: int):
    """Counts of each (a, b) cell of two arrays of bin indices."""

    return np.bincount((a * bins + b).ravel(), minlength=bins * bins)


@pytest.mark.parametrize(
    "seeds",
    [list(range(256)), [derive_seed(7, i) for i in range(256)]],
    ids=["neighbouring-seeds", "trial-seeds"],
)
def test_coin_and_uniform_draws_are_uniform(seeds):
    # one row per key, one column per seed, drawn as lanes draw them
    array = np.array(seeds, dtype=np.uint64)
    coins, uniforms = (
        np.stack([lang.draw(array, site, word, kind) for site, word in KEYS])
        for kind in (Kind.INT, Kind.REAL)
    )
    coins = coins.astype(np.int64)
    quarters = (uniforms * 4).astype(np.int64)
    n = coins.size
    ones = int(coins.sum())
    assert _chi2([ones, n - ones], n / 2) < CRITICAL[1]
    sixteenths = (uniforms * 16).astype(np.int64)
    assert _chi2(np.bincount(sixteenths.ravel(), minlength=16), n / 16) < CRITICAL[15]
    # neighbouring seeds, and neighbouring sites at one word, draw
    # independently: their pairs fill every joint cell evenly
    w = len(WORDS)
    for a, b in [(np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-w], np.s_[w:])]:
        pairs = coins[a].size
        assert _chi2(_cells(coins[a], coins[b], 2), pairs / 4) < CRITICAL[3]
        assert _chi2(_cells(quarters[a], quarters[b], 4), pairs / 16) < CRITICAL[15]


U64 = st.integers(0, lang.M64)


@given(st.lists(U64, min_size=1, max_size=8), U64)
@example([0, lang.M64], 0)
@example([0, lang.M64], lang.M64)
def test_lane_mixer_equals_scalar_mixer(seeds, salt):
    bits = lang.mix(np.array(seeds, dtype=np.uint64) ^ salt)
    assert bits.dtype == np.uint64
    scalar = [lang.mix(seed ^ salt) for seed in seeds]
    assert bits.tolist() == scalar
    for kind, span in [(Kind.INT, None), (Kind.REAL, None), (Kind.REAL, (0.25, 0.75))]:
        values = lang.draw_value(bits, kind, span).tolist()
        assert values == [lang.draw_value(b, kind, span) for b in scalar]


@given(st.lists(U64, min_size=1, max_size=8), st.integers(1, 50), st.lists(st.integers(1, 64), max_size=3))
def test_a_draw_is_the_documented_rule_on_ints_and_lanes(seeds, site, word):
    array = np.array(seeds, dtype=np.uint64)
    salt = lang.fold((site, *word))
    spans = [(Kind.INT, None), (Kind.INT, (1, 1)), (Kind.REAL, None), (Kind.REAL, (0.5, 0.5))]
    for kind, span in spans:
        scalar = [lang.draw(seed, site, word, kind, span) for seed in seeds]
        assert scalar == [lang.draw_value(lang.mix(seed ^ salt), kind, span) for seed in seeds]
        assert lang.draw(array, site, word, kind, span).tolist() == scalar


def test_derive_seed_is_deterministic_for_any_master():
    # no per-process state enters the fold (no hash()), so the values are
    # fixed across runs and machines
    masters = [-1, -(2**64), 2**64, 2**100 + 3, -(2**200)]
    assert [derive_seed(m, 5) for m in masters] == [
        18035093637052006805,
        803639543076030125,
        9197540018484195984,
        1715763573270055007,
        93181977644108010,
    ]
    # sign and every limb count: no master aliases its low 64 bits or its negation
    tried = [0, 1, -1, 2**64, 2**64 + 1, -(2**64) - 1, 2**128 + 1]
    assert len({derive_seed(m, 5) for m in tried}) == len(tried)


def test_a_trial_without_a_seed_is_seed_0(figs):
    for p in figs.values():
        zero = summary(analyze_trial(p, 0))
        assert summary(analyze_trial(p, None)) == zero


def test_a_seed_counts_modulo_2_64(figs):
    p = figs["fig4"]
    for seed in (5, lang.M64):
        outs = [analyze_trial(p, seed + k * 2**64) for k in (-1, 0, 1)]
        assert len({repr(summary(o)) for o in outs}) == 1
        lanes = run_lanes(p, [seed - 2**64, seed, seed + 2**64])
        assert [summary(o) for o in lanes] == [summary(o) for o in outs]
