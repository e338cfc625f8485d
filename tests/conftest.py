import pytest
from hypothesis import settings

from absmc import corpus

# `pytest --hypothesis-profile=ci` searches deeper: every property that
# leaves its example count to the profile runs 1,000 examples
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def figs():
    return {name: corpus.load(name) for name in corpus.NAMES}
