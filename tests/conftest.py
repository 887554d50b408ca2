import pathlib
import sys

import pytest

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from quivercount import verify  # noqa: E402


@pytest.fixture(scope="session")
def cycle_class():
    """Enumerated annular classes, from the cache ``verify`` reads too."""
    return verify.cycle_class


@pytest.fixture(scope="session")
def dynkin_class():
    return verify.dynkin_class


@pytest.fixture
def data_dir():
    return pathlib.Path(__file__).resolve().parent / "data"
