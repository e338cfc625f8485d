import pytest
from hypothesis import settings

from absmc import corpus, estimator, lanes

# `pytest --hypothesis-profile=ci` searches deeper: every property that
# leaves its example count to the profile runs 1,000 examples
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def figs():
    return {name: corpus.load(name) for name in corpus.NAMES}


@pytest.fixture
def engines(monkeypatch):
    """Records the seed of each scalar trial and the seed array of each
    lane block that `estimator._trial_chunk` runs."""

    runs = {"scalar": [], "blocks": []}
    real_trial, real_lanes = estimator.analyze_trial, lanes._Lanes

    def trial(program, seed, *args, **kwargs):
        runs["scalar"].append(seed)
        return real_trial(program, seed, *args, **kwargs)

    def block(program, seeds, *args):
        runs["blocks"].append(seeds.copy())
        return real_lanes(program, seeds, *args)

    monkeypatch.setattr(estimator, "analyze_trial", trial)
    monkeypatch.setattr(lanes, "_Lanes", block)
    return runs
