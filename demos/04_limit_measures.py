"""
Theoretical tail measures on upper rectangles
=============================================

The limit measures live on spike configurations: the order-j measure
charges only sequences built from j+1 innovations spread by the
coefficients.  On an upper rectangle {x : x_k > a_k, k in K} everything is
computable: feasibility is a covering question, the order-0 value is a
finite enumeration, and higher orders are low-dimensional tail integrals.
Each value is a function of (psi, alpha, j, A) alone: no evaluator takes a
seed or a work budget.
"""

import math

from matails import (
    ExplicitFinite,
    Geometric,
    UpperRect,
    marginal_tail_constant,
    mu_j_rect,
    nu_inf_0_rect,
    nu_m0_rect,
    nu_m_j_rect,
    spike_cover_number,
)

coeffs = ExplicitFinite([1.0, 0.5])

print("Feasibility = spike cover number (is the set bounded away from the cone?)")
for rect in (UpperRect({0: 1.0}), UpperRect({0: 1.0, 1: 1.0}), UpperRect({0: 1.0, 2: 1.0})):
    n = spike_cover_number(coeffs, 1, rect)
    print(f"  constraints at {rect.indices}: {n} spike(s) suffice "
          f"-> hidden orders j <= {n - 1} are meaningful")

print("\nOrder-0 measure (single spike spread by psi):")
print("  one coordinate  {0:1}:   ", nu_m0_rect(coeffs, 1, 1.0, UpperRect({0: 1.0})).value,
      " = sum psi_l   (marginal constant", marginal_tail_constant(coeffs, 1.0), ")")
print("  two coordinates {0:1,1:2}:", nu_m0_rect(coeffs, 1, 1.0, UpperRect({0: 1.0, 1: 2.0})).value,
      "  (only the spike at 0 reaches both)")

print("\nOrder-1 measure (two spikes):")
rect = UpperRect({0: 1.0, 2: 1.0})
value = nu_m_j_rect(coeffs, 1, 1.0, 1, rect)
print(f"  {dict(rect.constraints)}: {value.value}  (four covering pairs; all factor, so nothing"
      f" is drawn: {value.method.value})")
bind = UpperRect({0: 1.0, 1: 5.0, 2: 1.0})
value = nu_m_j_rect(coeffs, 1, 1.0, 1, bind)
print(f"  {dict(bind.constraints)}: {value.value:.16f} +- {value.stderr:.1e}"
      f"  (the middle constraint couples the spikes: {value.method.value},"
      f" against 0.45 + ln(13.5)/50 = {0.45 + math.log(13.5) / 50})")

print("\nInfeasible request is flagged, not computed:")
flagged = nu_m_j_rect(coeffs, 1, 1.0, 1, UpperRect({0: 1.0, 1: 1.0}))
print(f"  value = {flagged.value}  ({flagged.note})")

print("\nThe i.i.d. special case has a pure product form:")
print("  mu_1 of {0:2, 1:4} =", mu_j_rect(1, 1.0, UpperRect({0: 2.0, 1: 4.0})).value)
print("  mu_1 of {0:1, 1:1, 2:1} =", mu_j_rect(1, 1.0, UpperRect({0: 1, 1: 1, 2: 1})).value,
      " (three positive coordinates are impossible with two spikes)")

print("\nInfinite-order marginal comes with a one-sided truncation bound:")
got = nu_inf_0_rect(Geometric(0.5), 1.0, UpperRect({0: 1.0}), 1e-8)
print(f"  value = {got.value:.10f}, missed mass <= {got.truncation_error_bound:.2e}"
      "  (analytic value: 2)")
