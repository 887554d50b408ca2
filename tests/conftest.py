import functools
import pathlib
import sys

import pytest

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from quivercount.mutation_class import enumerate_class, seed_cycle  # noqa: E402


@pytest.fixture(scope="session")
def cycle_class():
    """Enumerated annular classes, each enumerated once per session; shared,
    so never modify one."""
    return functools.cache(lambda r, s: enumerate_class(seed_cycle(r, s)))


@pytest.fixture
def data_dir():
    return pathlib.Path(__file__).resolve().parent / "data"
