"""Averaging transforms on power series, tail criteria for measures on
[0, 1), and growth-space seminorm estimators, with a scenario harness
that checks the structural claims tying them together.
"""

import os

# idle OpenBLAS threads cost each call CPU; set before numpy loads, a caller's value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .carleson import (
    CARLESON,
    DISAGREEMENT,
    NOT_CARLESON,
    CarlesonVerdict,
    box_test,
    disk_kernel_test,
    integral_test_complex,
    integral_test_real,
    is_s_carleson,
    moment_test,
)
from .errors import (
    InconclusiveGrowthError,
    MeasureValidationError,
    NumericsError,
    ParameterError,
)
from .harness import (
    SCENARIOS,
    CheckRecord,
    ScenarioReport,
    TraceRecord,
    run_all,
)
from .measure import (
    Atomic,
    Lebesgue,
    MeasureSpec,
    Mixture,
    PowerDensity,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    moment,
    moments_array,
    save_measure,
    tail_mass,
    total_mass,
)
from .numerics import (
    GrowthReport,
    classify_growth,
    dyadic_radii,
    quad_measure,
    sup_on_dyadic_boundary,
)
from .series import (
    DEFAULT_ORDER,
    PowerSeries,
    cesaro_mu,
    cesaro_mu_s,
    compose_mobius,
    gamma_ratio,
    integral_rep_eval,
    kernel_series,
    read_coefficients,
    write_coefficients,
)
from .spaces import (
    Mp,
    SeminormEstimate,
    bloch_seminorm,
    circle_kernel_check,
    coeff_decay_test,
    hinf_norm,
    lambda_norm,
    qp_seminorm,
    two_kernel_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Atomic",
    "CARLESON",
    "CarlesonVerdict",
    "CheckRecord",
    "DEFAULT_ORDER",
    "DISAGREEMENT",
    "GrowthReport",
    "InconclusiveGrowthError",
    "Lebesgue",
    "MeasureSpec",
    "MeasureValidationError",
    "Mixture",
    "Mp",
    "NOT_CARLESON",
    "NumericsError",
    "ParameterError",
    "PowerDensity",
    "PowerSeries",
    "SCENARIOS",
    "ScenarioReport",
    "SeminormEstimate",
    "TraceRecord",
    "bloch_seminorm",
    "box_test",
    "cesaro_mu",
    "cesaro_mu_s",
    "circle_kernel_check",
    "classify_growth",
    "coeff_decay_test",
    "compose_mobius",
    "disk_kernel_test",
    "dyadic_radii",
    "gamma_ratio",
    "hinf_norm",
    "integral_rep_eval",
    "integral_test_complex",
    "integral_test_real",
    "is_s_carleson",
    "kernel_series",
    "lambda_norm",
    "load_measure",
    "measure_from_dict",
    "measure_to_dict",
    "moment",
    "moment_test",
    "moments_array",
    "qp_seminorm",
    "quad_measure",
    "read_coefficients",
    "run_all",
    "save_measure",
    "sup_on_dyadic_boundary",
    "tail_mass",
    "total_mass",
    "two_kernel_check",
    "write_coefficients",
]
