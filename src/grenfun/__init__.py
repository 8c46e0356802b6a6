"""Tuning-parameter-free estimation of integrated functionals of a
nonincreasing density via the Grenander plug-in estimator."""

from .errors import GrenfunError, InputError, NumericError
from .functionals import (
    SmoothFunctional,
    by_name,
    tau_plugin,
)
from .grenander import StepDensity, evaluate, fit
from .harness import (
    SimulationReport,
    StudyConfig,
    ks_distance,
    run_study,
    run_uniform_study,
)
from .inference import (
    ConfidenceInterval,
    normal_cdf,
    normal_quantile,
    sigma_eff_tau,
    uniform_clt_statistic,
)
from .limitlaw import draw_y_samples
from .samples import (
    Sample,
    ScenarioSpec,
    default_stream,
    derive_seed,
    draw,
    ecdf,
    ingest,
    read_observations,
)

__version__ = "0.1.0"
