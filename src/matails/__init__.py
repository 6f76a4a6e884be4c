"""Heavy-tailed moving averages: simulation, limit tail measures, verification.

The package simulates MA(m) and truncated MA(infinity) processes driven by
nonnegative Pareto-tailed innovations, evaluates the theoretical
regular-variation limit measures (including the hidden, finer-scaled
orders) on upper-rectangle sets, and estimates the same quantities
empirically so theory and simulation can be compared at matched scalings.

``import matails`` loads no submodule: each public name, and each
submodule such as ``matails.ma_process``, is imported on first use.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    **dict.fromkeys(("AssumptionError", "ParameterError", "UnsupportedError"), "errors"),
    **dict.fromkeys(("TailModel", "ParetoFamily", "block_generator", "draw"), "innovations"),
    **dict.fromkeys(("WindowSeq", "ZERO", "spike", "dist", "exceedance_count", "cone_label",
                     "scale"), "sequence_space"),
    **dict.fromkeys(("INFINITE", "CoefficientSeq", "ExplicitFinite", "Geometric", "Polynomial",
                     "AssumptionReport", "check_assumptions", "apply_Tm", "choose_truncation",
                     "continuity_modulus", "SimulationBatch", "innovation_matrix", "simulate",
                     "truncation_diagnostic"), "ma_process"),
    **dict.fromkeys(("UpperRect", "EvalMethod", "MeasureValue", "nu_alpha_tail", "mu_j_rect",
                     "spike_cover_number", "nu_m0_rect", "nu_m_j_rect", "marginal_tail_constant",
                     "nu_inf_0_rect"), "limit_measures"),
    **dict.fromkeys(("TailMeasureEstimate", "HrvRow", "empirical_tail_measure", "hill",
                     "theoretical_tail_measure", "hrv_scan", "convergence_table"), "estimation"),
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    """A public name or a submodule, imported on first use (PEP 562)."""
    if name in _HOMES.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
