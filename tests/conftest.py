import pytest

from beamsquint.codebook import design_with_squint
from beamsquint.squint import BandSpec


@pytest.fixture(scope="module")
def book16():
    """The squint-aware codebook of the paper's N=16, b = 0.0342 case (22 beams)."""
    return design_with_squint(16, BandSpec(0.0342), 1.0).codebook
