import concurrent.futures
from pathlib import Path

import pytest

from aslyap import parse_model

MODELS = Path(__file__).resolve().parent.parent / "models"


def load(name):
    return parse_model((MODELS / name).read_text())


@pytest.fixture(scope="session")
def rotational():
    """Planar model with tangential noise: f = -x, sigma = (-x2, x1)."""
    return load("rotational.model")


@pytest.fixture(scope="session")
def linear1d():
    return load("linear1d.model")


@pytest.fixture(scope="session")
def unstable1d():
    return load("unstable1d.model")


@pytest.fixture(scope="session")
def unstable2d():
    return load("unstable2d.model")


@pytest.fixture(scope="session")
def bang1d():
    return load("bang1d.model")


@pytest.fixture(scope="session")
def circle_target():
    return load("circle_target.model")


@pytest.fixture
def pools(monkeypatch):
    """The arguments of every thread pool started during the test, in order."""
    made = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    return made
