"""
Desk-scale numerical laboratory for logarithmic (Norlund-type) means of
quadratical partial sums of double Fourier series: grid Fourier analysis,
the mean's kernel in direct and closed form, Orlicz/Luxemburg machinery,
and the extremal-bump divergence experiments.
"""

from .grid import GridFunction2D, GridMismatchError, GridResolutionError, axis_points
from .fourier import (
    BandwidthError,
    GridOp,
    SpectralCoeffs,
    axis_l1_distance,
    dirichlet_kernel,
    evaluate_grid,
    fourier_coeffs,
)
from .means import harmonic_number, l1_distance
from .kernels import (
    EmptyRegionError,
    KernelEvaluation,
    LemmaReport,
    RegionSpec,
    SingularTubeError,
    alpha,
    beta,
    build_region,
    gamma,
    lemma_main_check,
    log_kernel_closed,
    log_kernel_direct,
    phase_range_check,
    sin_sum,
)
from .orlicz import (
    LOG,
    LOG2,
    YoungFunction,
    inclusion_deficit,
    luxemburg_norm,
    modular,
    young_power,
)
from .counterexamples import (
    BUMP_PREFACTOR,
    bump_mean_lower_bound,
    exceedance_measure,
    geometric_sum,
    l1_growth,
    make_bump,
    operator_norm_probe,
    r_nm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
