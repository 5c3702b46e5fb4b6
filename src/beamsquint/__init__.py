"""Analog-beamforming codebooks for uniform linear arrays under wideband
beam squint: gain models, squint algebra, minimum-size codebook design,
feasibility bounds, and brute-force coverage certification."""

from types import ModuleType as _Module

from .array_model import ArrayGeometry, array_gain_sum, equivalent_aoa, fine_beam_weights, gain_kernel, gain_kernel_magnitude, psi_from_theta, steering_vector, theta_from_psi
from .codebook import Beam, Codebook, CodebookFormatError, DesignOutcome, Infeasibility, design_no_squint, design_with_squint, max_antennas, max_fractional_bandwidth, min_size_no_squint
from .squint import HALF_POWER_CONSTANT, BandSpec, CoverageInterval, GainThreshold, effective_beamwidth, exact_half_power_beamwidth, focus_from_left_edge, half_power_beamwidth, numeric_coverage, squinted_coverage
from .verification import CoverageReport, SweepPoint, SweepSeries, SweepTable, sweep_size_vs_b, sweep_size_vs_n, verify_codebook

__version__ = "0.1.0"

# the public names imported above, without the submodules those imports bind
__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _Module))]
__all__.append("__version__")
