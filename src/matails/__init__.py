"""Heavy-tailed moving averages: simulation, limit tail measures, verification.

The package simulates MA(m) and truncated MA(infinity) processes driven by
nonnegative Pareto-tailed innovations, evaluates the theoretical
regular-variation limit measures (including the hidden, finer-scaled
orders) on upper-rectangle sets, and estimates the same quantities
empirically so theory and simulation can be compared at matched scalings.
"""

from .errors import AssumptionError, ParameterError, UnsupportedError
from .estimation import (
    HrvRow,
    TailMeasureEstimate,
    convergence_table,
    empirical_tail_measure,
    hill,
    hrv_scan,
    theoretical_tail_measure,
)
from .innovations import ParetoFamily, TailModel, block_generator, draw
from .limit_measures import (
    EvalMethod,
    MeasureValue,
    UpperRect,
    marginal_tail_constant,
    mu_j_rect,
    nu_alpha_tail,
    nu_inf_0_rect,
    nu_m0_rect,
    nu_m_j_rect,
    spike_cover_number,
)
from .ma_process import (
    INFINITE,
    AssumptionReport,
    CoefficientSeq,
    ExplicitFinite,
    Geometric,
    Polynomial,
    SimulationBatch,
    apply_Tm,
    check_assumptions,
    choose_truncation,
    continuity_modulus,
    innovation_matrix,
    simulate,
    truncation_diagnostic,
)
from .sequence_space import (
    ZERO,
    WindowSeq,
    cone_label,
    dist,
    exceedance_count,
    scale,
    spike,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "ParameterError",
    "UnsupportedError",
    "TailModel",
    "ParetoFamily",
    "block_generator",
    "draw",
    "WindowSeq",
    "ZERO",
    "spike",
    "dist",
    "exceedance_count",
    "cone_label",
    "scale",
    "INFINITE",
    "CoefficientSeq",
    "ExplicitFinite",
    "Geometric",
    "Polynomial",
    "AssumptionReport",
    "check_assumptions",
    "apply_Tm",
    "choose_truncation",
    "continuity_modulus",
    "SimulationBatch",
    "innovation_matrix",
    "simulate",
    "truncation_diagnostic",
    "UpperRect",
    "EvalMethod",
    "MeasureValue",
    "nu_alpha_tail",
    "mu_j_rect",
    "spike_cover_number",
    "nu_m0_rect",
    "nu_m_j_rect",
    "marginal_tail_constant",
    "nu_inf_0_rect",
    "TailMeasureEstimate",
    "HrvRow",
    "empirical_tail_measure",
    "hill",
    "theoretical_tail_measure",
    "hrv_scan",
    "convergence_table",
    "__version__",
]
