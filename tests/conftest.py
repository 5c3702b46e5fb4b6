import numpy as np
import pytest

from beamsquint import squint, verification
from beamsquint.array_model import gain_kernel_magnitude, worst_subcarrier_gain


@pytest.fixture
def primitive_calls(monkeypatch):
    """Angles per worst_subcarrier_gain call made by verification."""
    calls = []

    def counting(psi, *args, **kwargs):
        calls.append(np.size(psi))
        return worst_subcarrier_gain(psi, *args, **kwargs)

    monkeypatch.setattr(verification, "worst_subcarrier_gain", counting)
    return calls


@pytest.fixture
def refinement_blocks(monkeypatch):
    """Angles per kernel block that squint evaluates itself: numeric_coverage's
    refinement rounds (its scan goes through array_model, which is not counted)."""
    blocks = []

    def counting(x, n):
        blocks.append(len(np.atleast_1d(x)))
        return gain_kernel_magnitude(x, n)

    monkeypatch.setattr(squint, "gain_kernel_magnitude", counting)
    return blocks
