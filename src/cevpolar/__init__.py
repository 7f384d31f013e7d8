"""Bivariate vectors with polar representation R(u(T), v(T)).

Construction of light-tailed polar models, exact joint and conditional
sampling, a deterministic quadrature oracle for joint probabilities, the
limiting conditional laws with their normalizations, and numerical
verification diagnostics.
"""

from .diagnostics import (
    ConditionCheckReport,
    DecayReport,
    EmpiricalCDF,
    SweepReport,
    convergence_sweep,
    empirical_conditional_cdf,
    independence_condition_check,
    joint_exceedance_decay,
    ks_distance,
    lemma2_integral_check,
    oracle_grid_distance,
    oracle_quantiles,
)
from .errors import (
    CevError,
    ConfigError,
    ConstructionError,
    DegenerateWeightsError,
    DomainError,
    NumericError,
    QuadratureError,
    UnsupportedModelError,
)
from .geometry import (
    AngularLaw,
    CurveGerm,
    PowerAngular,
    TabulatedAngular,
    UniformAngular,
    angular_from_dict,
    angular_power,
    angular_uniform,
    curve_from_dict,
    elliptical_curve,
    lp_curve,
    power_curve,
)
from .limits import (
    ConditionalFrame,
    LimitLaw,
    SecondOrder,
    density_normalizer,
    limit_law_of,
    normalization,
    product_tail_asymptotic,
    quantile_y_asymptotic,
    second_order_conditional,
    survival_x_asymptotic,
)
from .model import (
    MixtureModel,
    PolarModel,
    WeightedSample,
    conditional_cdf_oracle,
    decompose_density,
    joint_cdf_y_oracle,
    joint_exceedance_oracle,
    mixture_conditional_cdf,
    model_from_dict,
    quartic_ridge_weight,
    sample_conditional,
    sample_joint,
    solve_b_x,
    solve_b_y,
    standard_normal_profile,
    survival_x_oracle,
    survival_y_oracle,
)
from .radial import (
    Exponential,
    Rayleigh,
    RadialLaw,
    TabulatedRadial,
    TailRatioWitness,
    VonMisesRadial,
    Weibull,
    build_von_mises,
    radial_from_dict,
    tail_ratio_bound,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
