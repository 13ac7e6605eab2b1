import os
from pathlib import Path

import pytest

from pettis_forge import (
    PsiSpec,
    SequenceRule,
    build_continuous_model,
    build_model,
)


@pytest.fixture(scope="session", autouse=True)
def _child_pythonpath():
    """CLI tests run ``python -m pettis_forge.cli`` in a child process; give
    it the checkout's ``src``, which pytest's ``pythonpath`` setting puts on
    this process's sys.path only."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture(scope="session")
def power34_spec():
    return PsiSpec("power", exponent=0.75)


@pytest.fixture(scope="session")
def unit_rule():
    return SequenceRule("affine")


@pytest.fixture(scope="session")
def model24(power34_spec, unit_rule):
    """The reference model: power 3/4 gauge, l2 backend, depth 24."""
    return build_model(None, power34_spec, K=1.0, p=2.0, rule=unit_rule, depth=24)


@pytest.fixture(scope="session")
def model12(power34_spec, unit_rule):
    return build_model(None, power34_spec, K=1.0, p=2.0, rule=unit_rule, depth=12)


@pytest.fixture(scope="session")
def cmodel9():
    """The reference continuous model: s^(1/4) gauge, p_n = 4n, depth 9."""
    return build_continuous_model(
        PsiSpec("power", exponent=0.25), K=1.0, rule=SequenceRule("affine", a=4.0), depth=9
    )
