import numpy as np
import pytest

from beamsquint import squint, verification
from beamsquint.array_model import worst_subcarrier_gain


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
    """Angles per margin call of numeric_coverage's refinement rounds (its
    scan is not counted)."""
    blocks = []
    gaps = squint._failure_gaps

    def recording(grid, failing, margin):
        return gaps(grid, failing, lambda angles: blocks.append(len(angles)) or margin(angles))

    monkeypatch.setattr(squint, "_failure_gaps", recording)
    return blocks
