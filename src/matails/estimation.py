"""Empirical tail-measure estimation and theory-vs-simulation scans.

The estimand at order j is  t * P[X / b(t^(1/(j+1))) in A]  for an upper
rectangle A: the coarser-than-t scaling is what exposes the hidden limits.
Estimates are replicate-based (independent windows), so the exceedance
count is binomial and the reported standard error (t/n) sqrt(count) is the
Poisson approximation valid in the rare-event regime.

:func:`hrv_scan` simulates once and pairs each (j, rectangle) row's
empirical value with the matching theoretical evaluator;
:func:`convergence_table` repeats the scan along a grid of tail levels t so
the error decay is visible.  The Monte Carlo integration inside the
theoretical column runs on a seed derived from the scan seed (spawn tag
0xFFFFFFFF), never on the simulation stream itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, UnsupportedError
from .innovations import TailModel
from .limit_measures import (
    MeasureValue,
    UpperRect,
    mu_j_rect,
    nu_inf_0_rect,
    nu_m0_rect,
    nu_m_j_rect,
)
from .ma_process import INFINITE, CoefficientSeq, SimulationBatch, simulate

__all__ = [
    "TailMeasureEstimate",
    "HrvRow",
    "empirical_tail_measure",
    "hill",
    "theoretical_tail_measure",
    "hrv_scan",
    "convergence_table",
]

_ORACLE_TAG = 0xFFFFFFFF


def _derive_seed(seed: int, tag: int) -> int:
    """Deterministic fresh root seed for an auxiliary stream."""
    return int(np.random.SeedSequence(seed, spawn_key=(tag,)).generate_state(2, np.uint64)[0])


@dataclass(frozen=True)
class TailMeasureEstimate:
    """Empirical value (t/n) * count with its Poisson standard error."""

    value: float
    t: float
    count: int
    n: int
    stderr: float

    @property
    def degenerate(self) -> bool:
        """True when no replicate hit the set; the stderr of 0 is not informative."""
        return self.count == 0


def empirical_tail_measure(
    samples: SimulationBatch, model: TailModel, t: float, scaling_exponent: float, rect: UpperRect
) -> TailMeasureEstimate:
    """Estimate t * P[X / b(t^e) in rect] from replicated windows.

    Each row of ``samples.matrix`` is one replicate.  Membership is
    coordinatewise strict exceedance of the scaled thresholds; a constraint
    outside the simulated window is never met.
    """
    if t < 1.0:
        raise ParameterError(f"tail level must be >= 1, got {t}")
    if not 0.0 < scaling_exponent <= 1.0:
        raise ParameterError(f"scaling exponent must lie in (0, 1], got {scaling_exponent}")
    n, width = samples.matrix.shape
    if n < 1:
        raise ParameterError("at least one sample is required")
    b = model.quantile_b(t**scaling_exponent)
    mask = np.ones(n, dtype=bool)
    for k, a in rect.constraints:
        col = k - samples.lo
        if not 0 <= col < width:
            mask[:] = False
            break
        mask &= samples.matrix[:, col] > b * a
    count = int(np.count_nonzero(mask))
    return TailMeasureEstimate(
        value=t * count / n,
        t=t,
        count=count,
        n=n,
        stderr=t * math.sqrt(count) / n,
    )


def hill(values, k: int) -> float:
    """Hill tail-index estimate from the top-k order statistics.

    alpha_hat = k / sum_{i<=k} log(X_(n-i+1) / X_(n-k)).
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    if n < 3 or np.any(xs <= 0) or not np.all(np.isfinite(xs)):
        raise ParameterError("hill needs at least 3 finite positive values")
    if not 2 <= k < n:
        raise ParameterError(f"order count must satisfy 2 <= k < n, got k={k}, n={n}")
    log_spacings = np.log(xs[n - k:]) - math.log(xs[n - k - 1])
    return k / float(np.sum(log_spacings))


@dataclass(frozen=True)
class HrvRow:
    """One (order, rectangle) comparison row of a scan."""

    j: int
    scaling_exponent: float
    rect: UpperRect
    empirical: TailMeasureEstimate | None
    theoretical: MeasureValue | None
    error: str | None = None

    @property
    def abs_error(self) -> float | None:
        if self.empirical is None or self.theoretical is None or self.error:
            return None
        return abs(self.empirical.value - self.theoretical.value)

    @property
    def z_score(self) -> float | None:
        """Disagreement in combined standard errors; None when undefined."""
        if self.empirical is None or self.theoretical is None or self.error:
            return None
        spread = self.empirical.stderr**2
        if self.theoretical.stderr is not None:
            spread += self.theoretical.stderr**2
        if spread == 0.0:
            return 0.0 if self.abs_error == 0.0 else math.inf
        return (self.empirical.value - self.theoretical.value) / math.sqrt(spread)


def _is_identity(coeffs: CoefficientSeq, m) -> bool:
    return m == 0 and coeffs.order == 0 and coeffs.psi(0) == 1.0


def theoretical_tail_measure(
    coeffs: CoefficientSeq,
    m,
    alpha: float,
    j: int,
    rect: UpperRect,
    trunc_eps: float | None = None,
    integration_budget: int = 200_000,
    seed: int = 0,
) -> MeasureValue:
    """Dispatch to the limit-measure evaluator matching (m, j).

    Identity coefficients reduce to the closed-form i.i.d. measure (no
    spike-cover search); order 0 is the single-spike enumeration (truncated
    for the infinite process); higher orders use the tuple integration.
    The evaluators own every verdict: an infeasible rectangle comes back as
    the +inf flag with a ``note``; a negative order, or a hidden order of
    the infinite-order process, raises :class:`ParameterError`; a divergent
    series raises :class:`UnsupportedError`.
    """
    if j < 0:
        raise ParameterError(f"order must be nonnegative, got {j}")
    if m == INFINITE:
        if j != 0:
            raise ParameterError(
                "hidden orders beyond 0 are not available for the infinite-order process"
            )
        return nu_inf_0_rect(coeffs, alpha, rect, trunc_eps)
    if _is_identity(coeffs, m):
        return mu_j_rect(j, alpha, rect)
    if j == 0:
        return nu_m0_rect(coeffs, int(m), alpha, rect)
    return nu_m_j_rect(coeffs, int(m), alpha, j, rect, integration_budget, seed)


def hrv_scan(
    coeffs: CoefficientSeq,
    m,
    model: TailModel,
    rows: Sequence[tuple[int, UpperRect]],
    n: int,
    t: float,
    seed: int,
    trunc_eps: float | None = None,
    integration_budget: int = 200_000,
    threads: int = 1,
) -> list[HrvRow]:
    """Simulate once and compare each row against its theoretical limit.

    Row (j, rect) is estimated at scaling exponent 1/(j+1).  A row whose
    :func:`theoretical_tail_measure` is infinite or raises
    :class:`ParameterError` or :class:`UnsupportedError` becomes an error
    row (scaling exponent 0.0, no estimate) carrying the evaluator's note
    or message, and the scan continues.  This is the per-level body of
    :func:`convergence_table`.
    """
    if not rows:
        return []
    lo = min(rect.min_index for _, rect in rows)
    hi = max(rect.max_index for _, rect in rows)
    batch = simulate(coeffs, m, model, (lo, hi), n, seed, trunc_eps, threads=threads)
    oracle_seed = _derive_seed(seed, _ORACLE_TAG)
    out = []
    for j, rect in rows:
        try:
            theoretical = theoretical_tail_measure(
                coeffs, m, model.alpha, j, rect, trunc_eps, integration_budget, oracle_seed
            )
        except (ParameterError, UnsupportedError) as exc:
            out.append(HrvRow(j, 0.0, rect, None, None, error=str(exc)))
            continue
        if theoretical.is_infinite:
            out.append(HrvRow(j, 0.0, rect, None, None, error=theoretical.note))
            continue
        exponent = 1.0 / (j + 1)
        empirical = empirical_tail_measure(batch, model, t, exponent, rect)
        out.append(HrvRow(j, exponent, rect, empirical, theoretical))
    return out


def convergence_table(
    coeffs: CoefficientSeq,
    m,
    model: TailModel,
    rows: Sequence[tuple[int, UpperRect]],
    n: int,
    t_grid: Iterable[float],
    seed: int,
    trunc_eps: float | None = None,
    integration_budget: int = 200_000,
    threads: int = 1,
) -> list[tuple[float, HrvRow]]:
    """One scan per tail level, on increasing t.

    Returns (t, row) pairs in grid-major order; each level runs on its own
    derived seed (spawn tag = level position), so levels are independent.
    """
    grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("tail levels must be strictly increasing")
    out = []
    for ti, t in enumerate(grid):
        scan = hrv_scan(
            coeffs, m, model, rows, n, t, _derive_seed(seed, ti),
            trunc_eps, integration_budget, threads,
        )
        out.extend((t, row) for row in scan)
    return out
