"""Empirical tail-measure estimation and theory-vs-simulation scans.

The estimand at order j is  t * P[X / b(t^(1/(j+1))) in A]  for an upper
rectangle A: the coarser-than-t scaling is what exposes the hidden limits.
Estimates are replicate-based (independent windows), so the exceedance
count is binomial and the reported standard error (t/n) sqrt(count) is the
Poisson approximation valid in the rare-event regime.

:func:`convergence_table` is the one scan driver: it settles each
(j, rectangle) row's theory once and reads every tail level t of a grid
off one simulation, so the error decay along t shows; :func:`hrv_scan` is
its one-level case.  A row's theory is a function of the row alone, as in
``limits``: the scan seed reaches only the simulation.

The simulator and the evaluators are imported where they run, so
:func:`hill` loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ParameterError, UnsupportedError

if TYPE_CHECKING:
    from .innovations import TailModel
    from .limit_measures import MeasureValue, UpperRect
    from .ma_process import CoefficientSeq, SimulationBatch

__all__ = [
    "TailMeasureEstimate",
    "HrvRow",
    "empirical_tail_measure",
    "hill",
    "theoretical_tail_measure",
    "theoretical_verdicts",
    "hrv_scan",
    "convergence_table",
]

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


def _membership(lo: int, width: int, model: TailModel, t: float, scaling_exponent: float,
                rect: UpperRect) -> tuple[tuple[int, float], ...] | None:
    """The ``(column, b(t^e) * a)`` pairs a replicate of window [lo, lo + width)
    must strictly exceed to lie in ``rect``; None when a constraint falls
    outside the window, so no replicate can.  A threshold past the float64
    range raises :class:`ParameterError`."""
    if not 1.0 <= t < math.inf:
        raise ParameterError(f"tail level must be finite and >= 1, got {t}")
    if not 0.0 < scaling_exponent <= 1.0:
        raise ParameterError(f"scaling exponent must lie in (0, 1], got {scaling_exponent}")
    try:
        b = model.quantile_b(t**scaling_exponent)
    except OverflowError:
        b = math.inf
    if not math.isfinite(b * max(rect.thresholds)):
        raise ParameterError(f"at tail level t = {t!r} and alpha = {model.alpha!r} the scaled thresholds "
                             f"b(t^{scaling_exponent!r}) a_k pass the float64 range: "
                             f"use a smaller t or a larger alpha")
    pairs = tuple((k - lo, b * a) for k, a in rect.constraints)
    return pairs if all(0 <= col < width for col, _ in pairs) else None


def empirical_tail_measure(
    samples: SimulationBatch, model: TailModel, t: float, scaling_exponent: float, rect: UpperRect
) -> TailMeasureEstimate:
    """Estimate t * P[X / b(t^e) in rect] from replicated windows.

    Each replicate of ``samples`` is one window.  Membership is
    coordinatewise strict exceedance of the scaled thresholds; a constraint
    outside the simulated window is never met.  A counted batch must hold
    the count of this membership rule's constraint set.
    """
    n, width = samples.shape
    constraints = _membership(samples.lo, width, model, t, scaling_exponent, rect)
    if n < 1:
        raise ParameterError("at least one sample is required")
    count = 0 if constraints is None else samples.count(constraints)
    return TailMeasureEstimate(
        value=t * count / n,
        t=t,
        count=count,
        n=n,
        stderr=t * math.sqrt(count) / n,
    )


def check_order_count(k: int, n: int | None) -> None:
    """:func:`hill`'s bounds 2 <= k < n on the order count; only k >= 2 while n is None."""
    if not 2 <= k < (math.inf if n is None else n):
        known = "" if n is None else f", n={n}"
        raise ParameterError(f"order count must satisfy 2 <= k < n, got k={k}{known}")


def hill(values, k: int) -> float:
    """Hill tail-index estimate from the top-k order statistics.

    alpha_hat = k / sum_{i<=k} log(X_(n-i+1) / X_(n-k)); a zero sum (the top
    k + 1 values share one log, equal or not) raises ParameterError.
    """
    xs = np.asarray(values, dtype=float)
    n = xs.size
    if n < 3 or not (xs.min() > 0 and xs.max() < math.inf):  # NaN fails both
        raise ParameterError("hill needs at least 3 finite positive values")
    check_order_count(k, n)
    top = np.sort(np.partition(xs, n - k - 1)[n - k - 1:])  # X_(n-k), .., X_(n), sorted
    total = float(np.sum(np.log(top[1:]) - math.log(top[0])))
    if total == 0.0:
        raise ParameterError(f"hill's log spacings sum to 0: the top {k + 1} values share one log")
    return k / total


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


def theoretical_tail_measure(
    coeffs: CoefficientSeq,
    m,
    alpha: float,
    j: int,
    rect: UpperRect,
    trunc_eps: float | None = None,
) -> MeasureValue:
    """The order-j limit measure of ``rect``: the truncated single-spike
    enumeration for the infinite-order process, else
    :func:`~matails.limit_measures.nu_m_j_rect`.

    The evaluators own every verdict: an infeasible rectangle comes back as
    the +inf flag with a ``note``; a negative order, or a hidden order of
    the infinite-order process, raises :class:`ParameterError`; a divergent
    series raises :class:`UnsupportedError`.
    """
    from .limit_measures import nu_inf_0_rect, nu_m_j_rect
    from .ma_process import INFINITE

    if j < 0:
        raise ParameterError(f"order must be nonnegative, got {j}")
    if m == INFINITE:
        if j != 0:
            raise ParameterError(
                "hidden orders beyond 0 are not available for the infinite-order process"
            )
        return nu_inf_0_rect(coeffs, alpha, rect, trunc_eps)
    return nu_m_j_rect(coeffs, int(m), alpha, j, rect)


def theoretical_verdicts(
    coeffs: CoefficientSeq,
    m,
    alpha: float,
    rows: Sequence[tuple[int, UpperRect]],
    trunc_eps: float | None = None,
) -> list[MeasureValue | str]:
    """Each (j, rect) row's :func:`theoretical_tail_measure`, or the message
    of the :class:`ParameterError` or :class:`UnsupportedError` it raised;
    the shared lag depth is resolved first, so a depth over
    :data:`~matails.ma_process.MAX_DEPTH` raises before any evaluator runs."""
    from .ma_process import resolve_depth

    resolve_depth(coeffs, m, trunc_eps)
    verdicts = []
    for j, rect in rows:
        try:
            verdicts.append(theoretical_tail_measure(coeffs, m, alpha, j, rect, trunc_eps))
        except (ParameterError, UnsupportedError) as exc:
            verdicts.append(str(exc))
    return verdicts


def convergence_table(
    coeffs: CoefficientSeq,
    m,
    model: TailModel,
    rows: Sequence[tuple[int, UpperRect]],
    n: int,
    t_grid: Iterable[float],
    seed: int,
    trunc_eps: float | None = None,
    threads: int = 1,
) -> list[tuple[float, HrvRow]]:
    """Compare each row against its theoretical limit at every tail level t.

    The grid (strictly increasing, each t finite and >= 1) is checked
    before any work.  Each row's :func:`theoretical_verdicts` entry is
    settled once; an infinite value or an error message makes it an error
    row (scaling exponent 0.0, no estimate) at every level.  Then one
    count-mode simulation on ``seed`` counts every accepted (t, row)
    constraint set, row (j, rect) scaled at exponent 1/(j+1), and stores
    no ``n x width`` matrix.  Returns (t, row) pairs in grid-major order.
    """
    from .limit_measures import MeasureValue
    from .ma_process import simulate

    grid = [float(t) for t in t_grid]
    # each level is >= 1 and below the next one, the last one below +inf
    if not all(1.0 <= a < b for a, b in zip(grid, grid[1:] + [math.inf])):
        raise ParameterError(f"tail levels must be finite, >= 1 and strictly increasing: {grid}")
    if not grid or not rows:
        return []
    settled = theoretical_verdicts(coeffs, m, model.alpha, rows, trunc_eps)
    verdicts = [v.note if isinstance(v, MeasureValue) and v.is_infinite else v for v in settled]
    lo = min(rect.min_index for _, rect in rows)
    hi = max(rect.max_index for _, rect in rows)
    # Every row lies inside [lo, hi], so each membership is a constraint set.
    accepted = [
        _membership(lo, hi - lo + 1, model, t, 1.0 / (j + 1), rect)
        for t in grid
        for (j, rect), verdict in zip(rows, verdicts)
        if isinstance(verdict, MeasureValue)
    ]
    batch = simulate(coeffs, m, model, (lo, hi), n, seed, trunc_eps, threads=threads, count=accepted)

    def scan_row(t: float, j: int, rect: UpperRect, verdict) -> HrvRow:
        if not isinstance(verdict, MeasureValue):
            return HrvRow(j, 0.0, rect, None, None, error=verdict)
        exponent = 1.0 / (j + 1)
        empirical = empirical_tail_measure(batch, model, t, exponent, rect)
        return HrvRow(j, exponent, rect, empirical, verdict)

    return [(t, scan_row(t, j, rect, v)) for t in grid for (j, rect), v in zip(rows, verdicts)]


def hrv_scan(
    coeffs: CoefficientSeq,
    m,
    model: TailModel,
    rows: Sequence[tuple[int, UpperRect]],
    n: int,
    t: float,
    seed: int,
    trunc_eps: float | None = None,
    threads: int = 1,
) -> list[HrvRow]:
    """The rows of :func:`convergence_table` on the one-level grid [t]."""
    return [row for _, row in convergence_table(
        coeffs, m, model, rows, n, [t], seed, trunc_eps, threads)]
