"""
Simulating the process and controlling the truncation
=====================================================

The infinite-order process is simulated as an MA(N) whose neglected
coefficient mass is below a tolerance.  Two things make this trustworthy:
every simulated value can be recomputed from the logged innovation stream,
and the tail-mass diagnostic shows the neglected lags' contribution to the
tail probability dying out as the depth grows.
"""

import numpy as np

from matails import (
    INFINITE,
    Geometric,
    TailModel,
    check_assumptions,
    choose_truncation,
    innovation_matrix,
    simulate,
    truncation_diagnostic,
)

model = TailModel.standard_pareto(1.0)
coeffs = Geometric(0.5)

report = check_assumptions(coeffs, alpha=1.0)
print("Coefficient certificates for the geometric family:")
print(f"  sum psi = {report.sum_psi},  sum psi^alpha = {report.sum_psi_alpha},"
      f"  summability exponent = {report.a2_delta}")
for eps in (1e-2, 1e-4, 1e-8):
    print(f"  truncation depth for tolerance {eps:g}: N = {choose_truncation(coeffs, eps)}")

print("\nSimulate 5 replicates of the window [-1, 1] at depth N(1e-8):")
batch = simulate(coeffs, INFINITE, model, (-1, 1), 5, seed=7, trunc_eps=1e-8)
print(f"  effective depth: {batch.truncation_order}")
for r in range(3):
    w = batch.window(r)
    print(f"  replicate {r}: " + ", ".join(f"X_{k} = {v:.3f}" for k, v in w.support()))

print("\nEvery value is recomputable from the audited innovation stream:")
depth = batch.truncation_order
innov = innovation_matrix(model, 7, 5, 3 + depth)
psi = coeffs.psi_array(depth)
recomputed = sum(psi[j] * innov[0, depth - j + 2] for j in range(depth + 1))
print(f"  replicate 0, X_1 from simulate:    {batch.matrix[0, 2]!r}")
print(f"  replicate 0, X_1 from the stream:  {recomputed!r}")

print("\nTail-mass diagnostic: t P[sum_(j>N) psi_j Z_(-j) > b(t)] at t = 1000")
for depth in (0, 2, 5, 10, 20):
    value = truncation_diagnostic(coeffs, model, depth, 1e3, 1.0, 200_000, seed=11)
    bar = "#" * int(round(40 * value))
    print(f"  N = {depth:2d}: {value:8.5f} {bar}")
print("The decay to zero is what licenses simulating MA(inf) by truncation.")
