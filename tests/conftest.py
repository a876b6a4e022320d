from pathlib import Path

import pytest
from hypothesis import settings

REPO_ROOT = Path(__file__).resolve().parent.parent

# Property tests draw the same examples on every run and have no time limit,
# so a slow or busy host cannot make them fail or flake.
settings.register_profile("bdcsim", derandomize=True, deadline=None)
settings.load_profile("bdcsim")


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return REPO_ROOT / "scenarios"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(__file__).resolve().parent / "data"
