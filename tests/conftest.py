import pytest

from pkh import corpus
from pkh.complexes import build_complex


@pytest.fixture(scope="session")
def diagrams():
    """Corpus diagrams, built once per session."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = corpus.build(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def complexes(diagrams):
    """The Khovanov complex of a corpus diagram, shared through the session."""
    return lambda name: build_complex(diagrams(name))
