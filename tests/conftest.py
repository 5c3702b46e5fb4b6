import numpy as np
import pytest

from beamsquint import squint, verification
from beamsquint.array_model import worst_subcarrier_gain


@pytest.fixture
def primitive_calls(monkeypatch):
    """Angles per worst_subcarrier_gain call made by verification and squint."""
    calls = []

    def counting(psi, *args, **kwargs):
        calls.append(np.size(psi))
        return worst_subcarrier_gain(psi, *args, **kwargs)

    monkeypatch.setattr(verification, "worst_subcarrier_gain", counting)
    monkeypatch.setattr(squint, "worst_subcarrier_gain", counting)
    return calls
