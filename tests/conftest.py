import pytest

from multiekr.corpus import random_family_corpus


@pytest.fixture(scope="session")
def small_corpus():
    """A quick seeded corpus of random maximal families for unit tests."""
    return random_family_corpus(30, seed=424, n_max=5, k_max=4)
