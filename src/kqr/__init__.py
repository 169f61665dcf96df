"""Kernel quantile regression with the pinball loss.

A small library for estimating conditional quantiles with a pinball-loss
SVM in a reproducing kernel Hilbert space, together with a numerical
harness that verifies the calibration theory behind it: closed-form excess
inner risks, self-calibration and variance inequalities, and learning-rate
experiments on synthetic distributions with known quantile structure.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationReport,
    PiecewiseConstant,
    check_self_calibration,
    check_variance_bound,
    dist_norm,
    excess_risk,
    exponents,
    random_test_functions,
    variance_term,
)
from .distributions import (
    CertificateError,
    ConditionalModel,
    QuantileInterval,
    SineLocation,
    TypeQParams,
    ZeroLocation,
    bounded_density_mixture,
    conditional_cdf,
    dirac_atom_mixture,
    gamma_inv_norm,
    polynomial_density,
    quantile_set,
    sample_joint,
    two_atom,
    type_q_params,
    uniform_noise,
)
from .experiments import (
    LambdaGrid,
    RateConfig,
    RateReport,
    UncertifiedFitError,
    lambda_grid,
    learning_rate_experiment,
    theoretical_gamma,
    tv_svm,
)
from .inner_risk import (
    InnerRiskProfile,
    excess_inner_risk,
    inner_risk,
    lower_pol_delta,
    min_inner_risk,
    self_cal_lower_bound,
    self_calibration_fn,
)
from .kernels import (
    DecayEstimate,
    GaussianKernel,
    MaternKernel,
    PolynomialKernel,
    fit_power_law,
    gram,
    spectrum_decay,
)
from .losses import Dataset, clip, empirical_risk, pinball_loss
from .solver import (
    SolveDiagnostics,
    SvmModel,
    kkt_residual,
    model_from_json,
    model_to_json,
    objective,
    predict,
    predict_clipped,
    reference_train,
    train,
)
