"""
Pareto-tailed innovations and the tail quantile b(t)
====================================================

The innovation laws are the raw material of every simulation in this
package.  Both families have closed-form survival functions and closed-form
tail quantiles, so the normalization used in tail-measure estimation is
exact rather than estimated.
"""

import numpy as np

from matails import TailModel, block_generator, draw

standard = TailModel.standard_pareto(alpha=1.0)
shifted = TailModel.shifted_pareto(alpha=1.0)

print("Survival functions")
print("  standard: P[Z > z] = z^-1 on [1, inf)   ->  P[Z > 4] =", standard.survival(4.0))
print("  shifted:  P[Z > z] = (1+z)^-1 on [0, inf) ->  P[Z > 4] =", shifted.survival(4.0))

print("\nTail quantile b(t) solves P[Z > b(t)] = 1/t")
for t in (10.0, 100.0, 10_000.0):
    print(f"  t = {t:8g}:  standard b(t) = {standard.quantile_b(t):10g}"
          f"   shifted b(t) = {shifted.quantile_b(t):10g}")

print("\nThe standard family satisfies t P[Z > b(t) z] = z^-1 *exactly*:")
for t in (10.0, 1e4):
    for z in (0.5, 1.0, 3.0):
        lhs = t * standard.survival(standard.quantile_b(t) * z)
        print(f"  t = {t:6g}, z = {z}:  t P[Z > b(t) z] = {lhs:.15f}  (z^-1 = {1 / z:.15f})")

print("\nThe shifted family only satisfies it in the limit; the error decays like 1/t:")
for t in (10.0, 100.0, 1e3, 1e4):
    err = abs(t * shifted.survival(shifted.quantile_b(t) * 2.0) - 0.5)
    print(f"  t = {t:6g}:  |error at z=2| = {err:.2e}")

print("\nSampling is inverse-transform on a counter-based generator;")
print("identical seeds reproduce the stream bit for bit:")
a = draw(standard, block_generator(42), 5)
b = draw(standard, block_generator(42), 5)
print("  seed 42, draw 1:", np.array2string(a, precision=4))
print("  seed 42, draw 2:", np.array2string(b, precision=4))
print("  identical:", np.array_equal(a, b))
