"""Theoretical tail-measure limits on upper rectangles.

All evaluators act on sets of the form

    A = {x : x_k > a_k for all k in K},   K finite, a_k > 0,

which generate the convergence-determining sets for the hidden
regular-variation limits of moving averages and make feasibility a
combinatorial question.  The measures supported:

* ``nu_alpha_tail``     -- the one-dimensional tail measure a^-alpha on a ray;
* ``mu_j_rect``         -- the order-j limit for i.i.d. sequences, which puts
  one Pareto-tail factor on each of j+1 spike positions: the rectangle value
  is a product when |K| = j+1, zero when |K| > j+1 (the measure lives on
  exactly-(j+1)-spike configurations), and infinite when |K| < j+1 (the set
  is not bounded away from the removed cone);
* ``nu_m0_rect``        -- order-0 limit of the MA(m): single spikes spread
  by the coefficients, value  sum_i (max_k a_k / psi_{k-i})^-alpha  over the
  spike positions that reach every constrained coordinate;
* ``nu_m_j_rect``       -- order-j limit of the MA(m): an integral over
  (j+1)-tuples of spike positions, evaluated tuple by tuple with a
  conditioned-Pareto Monte Carlo proposal (exactly, when the tuple's
  constraints factor);
* ``nu_inf_0_rect``     -- order-0 limit of the MA(infinity), enumerated at a
  truncation depth with a reported bound on the neglected spike mass;
* ``marginal_tail_constant`` -- sum_l psi_l^alpha, the one-coordinate tail
  constant of the process.

Feasibility is decided by :func:`spike_cover_number`: the minimum number of
single-innovation spikes whose images can make every constrained coordinate
positive.  A rectangle is bounded away from the image of the j-spike cone
exactly when that number exceeds j.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ParameterError, UnsupportedError
from .innovations import TailModel, block_generator, draw
from .ma_process import CoefficientSeq, choose_truncation
from .sequence_space import WindowSeq

__all__ = [
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
]


@dataclass(frozen=True)
class UpperRect:
    """The set {x : x_k > a_k for k in K}, stored as sorted (k, a_k) pairs."""

    constraints: tuple[tuple[int, float], ...]

    def __init__(self, constraints: Mapping[int, float] | Iterable[tuple[int, float]]):
        items = constraints.items() if isinstance(constraints, Mapping) else constraints
        pairs = tuple(sorted((int(k), float(a)) for k, a in items))
        if not pairs:
            raise ParameterError("a rectangle needs at least one constraint")
        if len({k for k, _ in pairs}) != len(pairs):
            raise ParameterError("duplicate constrained index")
        if not all(a > 0 for _, a in pairs):
            raise ParameterError("all thresholds must be positive")
        object.__setattr__(self, "constraints", pairs)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.constraints)

    @property
    def thresholds(self) -> tuple[float, ...]:
        return tuple(a for _, a in self.constraints)

    @property
    def min_index(self) -> int:
        return self.constraints[0][0]

    @property
    def max_index(self) -> int:
        return self.constraints[-1][0]

    def scaled(self, lam: float) -> "UpperRect":
        """The rectangle lam * A, i.e. every threshold multiplied by lam."""
        if lam <= 0:
            raise ParameterError(f"scaling factor must be positive, got {lam}")
        return UpperRect([(k, lam * a) for k, a in self.constraints])

    def contains(self, x: WindowSeq) -> bool:
        return all(x.value_at(k) > a for k, a in self.constraints)


class EvalMethod(str, enum.Enum):
    CLOSED_FORM = "closed_form"
    ENUMERATION = "enumeration"
    MONTE_CARLO = "monte_carlo_integration"


@dataclass(frozen=True)
class MeasureValue:
    """A tail-measure value; +inf marks a set not bounded away from the cone.

    ``stderr`` is present exactly for Monte Carlo evaluations;
    ``truncation_error_bound`` bounds one-sided mass missed by a truncated
    enumeration (the true value lies in [value, value + bound]).
    """

    value: float
    method: EvalMethod
    stderr: float | None = None
    truncation_error_bound: float | None = None
    note: str | None = None

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def nu_alpha_tail(a: float, alpha: float) -> float:
    """One-dimensional tail measure of (a, inf): a^-alpha."""
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if a <= 0:
        raise ParameterError(
            f"threshold must be positive (the tail measure has infinite mass at 0), got {a}"
        )
    return a**-alpha


def mu_j_rect(j: int, alpha: float, rect: UpperRect) -> MeasureValue:
    """Order-j i.i.d. limit measure of an upper rectangle.

    One Pareto-tail factor per constrained coordinate when |K| = j+1;
    zero when the rectangle demands more positive coordinates than the
    measure's spike count; infinite when it demands fewer.
    """
    if j < 0:
        raise ParameterError(f"order must be nonnegative, got {j}")
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    k = len(rect.constraints)
    if k < j + 1:
        return MeasureValue(
            math.inf,
            EvalMethod.CLOSED_FORM,
            note=f"{k} constraints cannot bound the set away from the {j}-spike cone",
        )
    if k > j + 1:
        return MeasureValue(0.0, EvalMethod.CLOSED_FORM)
    value = float(np.prod([a**-alpha for a in rect.thresholds]))
    return MeasureValue(value, EvalMethod.CLOSED_FORM)


def _coverage(coeffs: CoefficientSeq, m: int, rect: UpperRect, i: int) -> frozenset[int]:
    """Constrained coordinates a spike at position i can make positive."""
    return frozenset(
        k for k in rect.indices if 0 <= k - i <= m and coeffs.psi(k - i) > 0.0
    )


def _candidate_positions(coeffs: CoefficientSeq, m: int, rect: UpperRect):
    """Spike positions that influence at least one constrained coordinate."""
    out = []
    for i in range(rect.min_index - m, rect.max_index + 1):
        cov = _coverage(coeffs, m, rect, i)
        if cov:
            out.append((i, cov))
    return out


def spike_cover_number(coeffs: CoefficientSeq, m: int, rect: UpperRect) -> int:
    """Minimum number of spikes whose lag-map images cover every constraint.

    The rectangle is bounded away from the image of the j-spike cone iff
    this number is at least j + 1.  Always at most |K| (a spike placed on a
    constrained coordinate covers it, since psi_0 > 0).
    """
    if m < 0:
        raise ParameterError(f"order must be nonnegative, got {m}")
    needed = frozenset(rect.indices)
    candidates = _candidate_positions(coeffs, m, rect)
    covers = [cov for _, cov in candidates]
    for r in range(1, len(rect.constraints) + 1):
        for combo in itertools.combinations(covers, r):
            if frozenset().union(*combo) >= needed:
                return r
    raise AssertionError("unreachable: each constraint is coverable by its own spike")


def nu_m0_rect(coeffs: CoefficientSeq, m: int, alpha: float, rect: UpperRect) -> MeasureValue:
    """Order-0 MA(m) limit measure of an upper rectangle.

    Enumerates single-spike positions i reaching all of K and sums
    (max_k a_k / psi_{k-i})^-alpha; positions with a zero coefficient at
    some constrained offset drop out (their threshold is infinite).
    """
    if m < 0:
        raise ParameterError(f"order must be nonnegative, got {m}")
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    needed = frozenset(rect.indices)
    total = 0.0
    for i, cov in _candidate_positions(coeffs, m, rect):
        if cov == needed:
            z_min = max(a / coeffs.psi(k - i) for k, a in rect.constraints)
            total += z_min**-alpha
    return MeasureValue(total, EvalMethod.ENUMERATION)


def _tuple_contribution(
    coeffs: CoefficientSeq,
    alpha: float,
    rect: UpperRect,
    positions: tuple[int, ...],
    covers: tuple[frozenset[int], ...],
    budget: int,
    rng,
) -> tuple[float, float]:
    """(value, variance) of one spike-position tuple's rectangle integral.

    Every member has at least one private constraint (no smaller spike set
    covers K), which pins z_k above a positive threshold L_k; the proposal
    is independent Pareto(alpha) conditioned above L_k, carrying mass
    prod L_k^-alpha.  When no constraint is shared between members the
    region is exactly the product of rays and the value is exact.
    """
    d = len(positions)
    lower = np.zeros(d)
    shared = []
    for k, a in rect.constraints:
        holders = [idx for idx in range(d) if k in covers[idx]]
        if len(holders) == 1:
            idx = holders[0]
            lower[idx] = max(lower[idx], a / coeffs.psi(k - positions[idx]))
        else:
            shared.append((k, a, holders))
    assert np.all(lower > 0), "tuple member without a private constraint"
    mass = float(np.prod(lower**-alpha))
    if not shared:
        return mass, 0.0
    z = lower * draw(TailModel.standard_pareto(alpha), rng, (budget, d))
    ok = np.ones(budget, dtype=bool)
    for k, a, holders in shared:
        lhs = np.zeros(budget)
        for idx in holders:
            lhs += coeffs.psi(k - positions[idx]) * z[:, idx]
        ok &= lhs > a
    p_hat = ok.mean()
    value = mass * float(p_hat)
    variance = mass**2 * float(p_hat) * (1.0 - float(p_hat)) / budget
    return value, variance


def nu_m_j_rect(
    coeffs: CoefficientSeq,
    m: int,
    alpha: float,
    j: int,
    rect: UpperRect,
    integration_budget: int = 200_000,
    seed: int = 0,
) -> MeasureValue:
    """Order-j MA(m) limit measure of an upper rectangle.

    Sums, over increasing (j+1)-tuples of spike positions whose images
    jointly reach every constrained coordinate, the product tail integral
    of the rectangle indicator.  Tuples containing a position that cannot
    influence K never cover it (no smaller set does either) and contribute
    zero, so enumeration over influencing positions is exhaustive.

    ``integration_budget`` is the Monte Carlo sample count per tuple; each
    tuple integrates on its own sub-stream, so the result is deterministic
    in ``seed`` and tuples can be evaluated in parallel.
    """
    if integration_budget <= 0:
        raise ParameterError(f"integration budget must be positive, got {integration_budget}")
    if j < 0:
        raise ParameterError(f"order must be nonnegative, got {j}")
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    cover = spike_cover_number(coeffs, m, rect)
    if cover < j + 1:
        return MeasureValue(
            math.inf,
            EvalMethod.ENUMERATION,
            note=f"{cover} spike(s) already cover the rectangle; "
            f"it is not bounded away from the {j}-spike cone image",
        )
    needed = frozenset(rect.indices)
    candidates = _candidate_positions(coeffs, m, rect)
    total = 0.0
    var_total = 0.0
    for idx, combo in enumerate(itertools.combinations(candidates, j + 1)):
        positions = tuple(i for i, _ in combo)
        covers = tuple(cov for _, cov in combo)
        if frozenset().union(*covers) != needed:
            continue
        rng = block_generator(seed, idx)
        value, variance = _tuple_contribution(
            coeffs, alpha, rect, positions, covers, integration_budget, rng
        )
        total += value
        var_total += variance
    return MeasureValue(total, EvalMethod.MONTE_CARLO, stderr=math.sqrt(var_total))


def marginal_tail_constant(coeffs: CoefficientSeq, alpha: float, up_to: int | None = None) -> float:
    """sum_l psi_l^alpha: the single-coordinate tail constant of the process.

    ``up_to`` requests the partial sum through that lag; the default is the
    full analytic value, which must converge.
    """
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if up_to is not None:
        if up_to < 0:
            raise ParameterError(f"lag cutoff must be nonnegative, got {up_to}")
        return float(sum(coeffs.psi(l) ** alpha for l in range(up_to + 1) if coeffs.psi(l) > 0))
    value = coeffs.sum_psi_power(alpha)
    if not math.isfinite(value):
        raise UnsupportedError("sum of psi^alpha diverges for this coefficient sequence")
    return value


def nu_inf_0_rect(
    coeffs: CoefficientSeq, alpha: float, rect: UpperRect, trunc_eps: float | None = None
) -> MeasureValue:
    """Order-0 MA(infinity) limit measure, enumerated at a truncation depth.

    Runs the MA(N) enumeration with N = truncation depth for ``trunc_eps``
    (default as in :func:`~matails.ma_process.choose_truncation`) and
    reports the one-sided bound

        missed mass <= (min_k a_k)^-alpha * sum_{l>N} psi_l^alpha

    for spike positions too far left to enter the enumeration.  A divergent
    sum of psi^alpha raises :class:`UnsupportedError` here; a divergent
    coefficient series raises it from ``choose_truncation``.
    """
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not math.isfinite(coeffs.sum_psi_power(alpha)):
        raise UnsupportedError("sum of psi^alpha diverges")
    depth = choose_truncation(coeffs, trunc_eps)
    base = nu_m0_rect(coeffs, depth, alpha, rect)
    a_min = min(rect.thresholds)
    bound = a_min**-alpha * coeffs.tail_sum_bound(depth, alpha)
    return MeasureValue(
        base.value, EvalMethod.ENUMERATION, truncation_error_bound=bound
    )
