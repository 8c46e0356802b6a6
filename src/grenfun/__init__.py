"""Tuning-parameter-free estimation of integrated functionals of a
nonincreasing density via the Grenander plug-in estimator."""

from .errors import GrenfunError, InputError, NumericError
from .functionals import (
    ScalarFunctional,
    SmoothFunctional,
    by_name,
    empirical_average,
    mu_plugin,
    nu_plugin,
    one_step_correction,
    tau_plugin,
)
from .grenander import StepDensity, evaluate, fit
from .harness import (
    SimulationReport,
    StudyConfig,
    ks_distance,
    run_study,
    run_uniform_study,
    true_sigma_eff,
    true_tau,
)
from .inference import (
    ConfidenceInterval,
    ci_mu,
    normal_cdf,
    normal_quantile,
    sigma_eff_mu,
    sigma_eff_nu,
    sigma_eff_tau,
    uniform_clt_statistic,
)
from .limitlaw import TrueModel, draw_y_samples, linear_y_samples
from .majorant import PiecewiseLinearConcave, lcm
from .samples import (
    Sample,
    ScenarioSpec,
    default_stream,
    derive_seed,
    draw,
    ecdf,
    ingest,
    read_observations,
    read_scenario,
)

__version__ = "0.1.0"
