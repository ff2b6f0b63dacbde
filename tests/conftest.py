import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

from ott.terms import Const, Signature

# pytest puts src on this process's path (``pythonpath`` in pyproject.toml);
# the tests that run ``python -m ott.cli`` in a subprocess find it the same way
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

settings.register_profile("ott", deadline=None)
settings.load_profile("ott")


@pytest.fixture
def sig() -> Signature:
    return Signature().with_type("A").with_const("a", Const("A"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(2077)
