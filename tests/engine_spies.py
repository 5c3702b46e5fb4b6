"""The spies of the engine pins. Each patches one binding of the package
through the test's ``monkeypatch`` and returns the list that it records
into; the patch goes when the test ends."""

import numpy as np

from beamsquint import array_model, squint, verification


def record_kernel_blocks(monkeypatch, keep=np.shape):
    """``keep`` of each block that array_model hands ``gain_kernel_magnitude``
    (its shape, unless the test keeps the values)."""
    blocks, kernel = [], array_model.gain_kernel_magnitude

    def recording(x, n):
        blocks.append(keep(x))
        return kernel(x, n)

    monkeypatch.setattr(array_model, "gain_kernel_magnitude", recording)
    return blocks


def count_cascade_calls(monkeypatch):
    """Angles per ``worst_subcarrier_gain`` call made by verification."""
    calls, cascade = [], verification.worst_subcarrier_gain

    def counting(psi, *args, **kwargs):
        calls.append(np.size(psi))
        return cascade(psi, *args, **kwargs)

    monkeypatch.setattr(verification, "worst_subcarrier_gain", counting)
    return calls


def record_refinement_blocks(monkeypatch):
    """Angles per margin call of numeric_coverage's refinement rounds (its
    scan is not counted)."""
    blocks, gaps = [], squint._failure_gaps

    def recording(grid, failing, margin):
        return gaps(grid, failing, lambda angles: blocks.append(len(angles)) or margin(angles))

    monkeypatch.setattr(squint, "_failure_gaps", recording)
    return blocks
