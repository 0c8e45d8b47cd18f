import pytest

from bhmirror.catalog import find_case
from bhmirror.mirror import build_mirror_pair


@pytest.fixture(scope="session")
def pair_cache():
    """Lazily built mirror pairs for catalog cases, shared across tests."""
    cache = {}

    def get(name: str):
        if name not in cache:
            case = find_case(name)
            W = case.parse()
            cache[name] = build_mirror_pair(W, case.K_group(W))
        return cache[name]

    return get
