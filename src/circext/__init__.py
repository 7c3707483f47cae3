"""Rational covariance and cepstral extension on the discrete unit circle.

The library works on the 2N-point uniform grid of unit-circle nodes: spectra
are node sample vectors, covariances are their trigonometric moments, and the
extension problems ask for rational spectra P/Q of bounded degree matching
prescribed moments.  Solvers are damped Newton methods on strictly convex
dual functionals; feasibility is decided exactly by a small linear program.

Main entry points: `newton_solve` (match lags with a fixed numerator),
`maxent_solve` (numerator one), `joint_solve` (match lags and cepstra),
`feasibility_certificate`, `find_threshold`, `convergence_sweep`, and the
process tools `sample_realizations` / `estimate_covariances` /
`estimate_cepstra`.  The `circext` command line wraps all of them.
"""

from types import ModuleType as _ModuleType

from .approx import (
    NotInOuterCone,
    SweepReport,
    SweepStage,
    ThresholdNotFound,
    convergence_sweep,
    default_schedule,
    find_threshold,
)
from .cepstral import (
    JointProblem,
    JointReport,
    epsilon_report,
    joint_gradient,
    joint_hessian,
    joint_solve,
    joint_value,
)
from .circulant import (
    Circulant,
    CyclicShift,
    HermitianCirculant,
    SingularSymbolError,
    SymmetricPseudoPolynomial,
    add,
    banded_check,
    constant_symbol,
    eval_symbol,
    invert,
    is_positive_on_grid,
    multiply,
    symbol_from_samples,
)
from .dual import (
    BoundaryCollapseError,
    DualProblem,
    IterationRecord,
    MaxIterationsError,
    SolutionReport,
    SolverOptions,
    complete_covariances,
    dual_gradient,
    dual_hessian,
    dual_value,
    maxent_solve,
    newton_solve,
)
from .fileio import ARTIFACT_VERSION, InputFormatError
from .grid import (
    DiscreteGrid,
    GridMismatchError,
    Signal,
    SpectrumSamples,
    dft,
    dft_direct,
    idft,
    idft_direct,
    integrate,
    is_hermitian_even,
    plancherel_inner,
)
from .moments import (
    CepstralSequence,
    CovarianceSequence,
    FeasibilityCertificate,
    cepstral_moments,
    covariance_moments,
    feasibility_certificate,
    inner_product,
    toeplitz_matrix,
    toeplitz_positive,
)
from .process import (
    conjugacy_check,
    estimate_cepstra,
    estimate_covariances,
    periodogram,
    sample_realizations,
)

__version__ = ARTIFACT_VERSION

# the exports are the public names imported above, submodules aside
__all__ = sorted(
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))
)
