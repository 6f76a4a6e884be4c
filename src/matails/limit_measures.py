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
* ``nu_m_j_rect``       -- order-j limit of the MA(m): an integral over the
  (j+1)-tuples of spike positions that jointly reach K, evaluated tuple by
  tuple by conditional Monte Carlo: one member's Pareto tail is integrated
  in closed form given the others, which are drawn above their floors; a
  tuple is exact, and draws nothing, when no shared constraint survives
  its members' private floors;
* ``nu_inf_0_rect``     -- order-0 limit of the MA(infinity), enumerated at a
  truncation depth with a reported bound on the neglected spike mass;
* ``marginal_tail_constant`` -- sum_l psi_l^alpha, the one-coordinate tail
  constant of the process.

Feasibility is decided by :func:`spike_cover_number`: the minimum number of
single-innovation spikes whose images can make every constrained coordinate
positive.  A rectangle is bounded away from the image of the j-spike cone
exactly when that number exceeds j.  A spike at i reaches only i .. i+m, so
both searches run over positions left to right and prune by that reach.
"""

from __future__ import annotations

import enum
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

# Monte Carlo samples per shared-constraint tuple unless a caller sets one.
DEFAULT_INTEGRATION_BUDGET = 200_000


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
        if not lam > 0:
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
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not a > 0:
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
    if not alpha > 0:
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


def _candidate_positions(coeffs: CoefficientSeq, m: int, rect: UpperRect):
    """(i, reach) per spike position influencing K; bit p of reach is rect.indices[p].

    A finite family's spikes reach no further than its order, so m is capped there.
    """
    ks = rect.indices
    m = coeffs.capped(m)
    out = []
    for i in range(rect.min_index - m, rect.max_index + 1):
        reach = sum(1 << p for p, k in enumerate(ks) if 0 <= k - i <= m and coeffs.psi(k - i) > 0)
        if reach:
            out.append((i, reach))
    return out


def spike_cover_number(coeffs: CoefficientSeq, m: int, rect: UpperRect) -> int:
    """Minimum number of spikes whose lag-map images cover every constraint.

    The rectangle is bounded away from the image of the j-spike cone iff
    this number is at least j + 1.  Always at most |K| (a spike placed on a
    constrained coordinate covers it, since psi_0 > 0).

    Exact sweep over the positions, left to right: the fewest spikes per
    covered set, a set dropped once the sweep passes a constraint it misses.
    Cost: the positions, at most m + |K| with m capped at a finite family's
    order, times at most 2^min(m, |K|) sets live within m.
    """
    if m < 0:
        raise ParameterError(f"order must be nonnegative, got {m}")
    best = {0: 0}
    for i, reach in _candidate_positions(coeffs, m, rect):
        due = sum(1 << p for p, k in enumerate(rect.indices) if k < i)
        sweep = {}
        for covered, count in best.items():
            if covered & due == due:
                for state, spikes in ((covered, count), (covered | reach, count + 1)):
                    if spikes < sweep.get(state, spikes + 1):
                        sweep[state] = spikes
        best = sweep
    return best[(1 << len(rect.indices)) - 1]


def nu_m0_rect(coeffs: CoefficientSeq, m: int, alpha: float, rect: UpperRect) -> MeasureValue:
    """Order-0 MA(m) limit measure of an upper rectangle.

    Sums (max_k a_k / psi_{k-i})^-alpha, left to right, over the positions
    max K - m <= i <= min K; positions with a zero coefficient at some
    constrained offset drop out (their threshold is infinite).  m is capped
    at a finite family's order, which drops only positions that reach nothing.
    """
    if m < 0:
        raise ParameterError(f"order must be nonnegative, got {m}")
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    # Position w (i = max K - m + w) meets constraint k with back[max K - k + w].
    m = coeffs.capped(m)
    back = coeffs.psi_array(m)[::-1]
    width = max(m + 1 - (rect.max_index - rect.min_index), 0)
    reaches, z_min = np.ones(width, dtype=bool), np.zeros(width)
    with np.errstate(divide="ignore", over="ignore"):
        for k, a in rect.constraints:
            lags = back[rect.max_index - k: rect.max_index - k + width]
            reaches &= lags > 0.0
            np.maximum(z_min, a / lags, out=z_min)
    total = 0.0
    for z in z_min[reaches].tolist():
        total += z**-alpha
    return MeasureValue(total, EvalMethod.ENUMERATION)


def _tuple_contribution(
    coeffs: CoefficientSeq,
    alpha: float,
    rect: UpperRect,
    positions: tuple[int, ...],
    covers: tuple[int, ...],
    budget: int,
    seed: int,
    rank: int,
) -> tuple[float, float]:
    """(value, variance) of one spike-position tuple's rectangle integral.

    Every member has at least one private constraint (no smaller spike set
    covers K), which pins z_h above a positive floor L_h; the integral is
    over independent Pareto(alpha) values conditioned above L_h, carrying
    mass prod L_h^-alpha.  A shared constraint k is implied when its floor
    sum_h psi_{k-i_h} L_h already exceeds a_k: every draw is L_h times a
    Pareto value >= 1, and rounded products and sums are monotone, so it
    would hold on every sample.  When no shared constraint survives its
    floor the region is exactly the product of rays: the value is exact,
    drawn from no generator.

    Otherwise one member c is integrated out (conditional Monte Carlo):
    the one with the largest sum of w_c L_c over the surviving constraints
    it holds, the lowest index on ties.  The other d-1 members are drawn,
    in member order, as one (budget, d-1) array from sub-stream ``rank``.
    Given them, each surviving constraint c holds asks z_c > need_k =
    (a_k - sum_{h != c} w_h z_h) / w_c, which has conditional probability
    (max(L_c, need) / L_c)^-alpha; the surviving constraints c does not
    hold stay indicators.  With g that probability times the indicators,
    the value is mass mean(g) and the variance mass^2 var(g) / budget.
    """
    d = len(positions)
    lower = [0.0] * d
    shared = []
    for p, (k, a) in enumerate(rect.constraints):
        holders = [idx for idx in range(d) if covers[idx] >> p & 1]
        weights = [coeffs.psi(k - positions[idx]) for idx in holders]
        if len(holders) == 1:
            lower[holders[0]] = max(lower[holders[0]], a / weights[0])
        else:
            shared.append((a, holders, weights))
    assert all(low > 0 for low in lower), "tuple member without a private constraint"
    # One numpy power keeps the bits of np.prod(lower ** -alpha); Python's
    # pow can differ in the last place.
    mass = math.prod((np.array(lower) ** -alpha).tolist())
    drawn = []
    pull = [0.0] * d
    for a, holders, weights in shared:
        floor = 0.0
        for idx, w in zip(holders, weights):
            floor += w * lower[idx]
        if not floor > a:
            drawn.append((a, holders, weights))
            for idx, w in zip(holders, weights):
                pull[idx] += w * lower[idx]
    if not drawn:
        return mass, 0.0
    c = pull.index(max(pull))
    others = [idx for idx in range(d) if idx != c]
    x = draw(TailModel.standard_pareto(alpha), block_generator(seed, rank), (budget, d - 1))
    columns = dict(zip(others, x.T))
    # ratio = need / L_c, each constraint c holds read in units of w_c L_c.
    ratio = np.ones(budget)
    ok = np.ones(budget, dtype=bool)
    rest, term = np.empty(budget), np.empty(budget)
    for a, holders, weights in drawn:
        unit = weights[holders.index(c)] * lower[c] if c in holders else 1.0
        (coef, col), *more = [(w * lower[idx] / unit, columns[idx])
                              for idx, w in zip(holders, weights) if idx != c]
        np.multiply(coef, col, out=rest)
        for coef, col in more:
            rest += np.multiply(coef, col, out=term)
        if c in holders:
            np.subtract(a / unit, rest, out=rest)
            np.maximum(ratio, rest, out=ratio)
        else:
            ok &= rest > a
    g = ratio
    g **= -alpha
    g *= ok
    mean = float(g.mean())
    g -= mean
    g *= g
    return mass * mean, mass**2 * float(g.mean()) / budget


def _covering_tuples(candidates, size: int, ks: tuple[int, ...], start=0, covered=0, rank=0):
    """(rank, tuple) per ``size``-combination of candidates that reaches all of K.

    ``rank`` counts all combinations before it in lexicographic order: each
    branch passed over adds its C(n-1-c, size-1).  A prefix extends only at
    or left of its first uncovered constraint.
    """
    uncovered = ~covered & ((1 << len(ks)) - 1)
    first = ks[(uncovered & -uncovered).bit_length() - 1]  # max K once all are covered
    n = len(candidates)
    for c in range(start, n - size + 1):
        i, reach = candidates[c]
        if i > first:
            return
        if size > 1:
            for r, rest in _covering_tuples(candidates, size - 1, ks, c + 1, covered | reach, rank):
                yield r, (candidates[c],) + rest
        elif not uncovered & ~reach:
            yield rank, (candidates[c],)
        rank += math.comb(n - 1 - c, size - 1)


def nu_m_j_rect(
    coeffs: CoefficientSeq,
    m: int,
    alpha: float,
    j: int,
    rect: UpperRect,
    integration_budget: int = DEFAULT_INTEGRATION_BUDGET,
    seed: int = 0,
) -> MeasureValue:
    """Order-j MA(m) limit measure of an upper rectangle.

    Sums, over increasing (j+1)-tuples of spike positions whose images
    jointly reach every constrained coordinate, the product tail integral
    of the rectangle indicator.  Tuples containing a position that cannot
    influence K never cover it (no smaller set does either) and contribute
    zero, so walking the covering tuples of influencing positions is exhaustive.

    ``integration_budget`` is the Monte Carlo sample count per tuple; the tuple
    of rank r among the lexicographic (j+1)-combinations of those positions
    integrates on sub-stream r, so the result is deterministic in ``seed``.
    """
    if not integration_budget > 0:
        raise ParameterError(f"integration budget must be positive, got {integration_budget}")
    if j < 0:
        raise ParameterError(f"order must be nonnegative, got {j}")
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    cover = spike_cover_number(coeffs, m, rect)
    if cover < j + 1:
        return MeasureValue(
            math.inf,
            EvalMethod.ENUMERATION,
            note=f"{cover} spike(s) already cover the rectangle; "
            f"it is not bounded away from the {j}-spike cone image",
        )
    candidates = _candidate_positions(coeffs, m, rect)
    total = var_total = 0.0
    for rank, combo in _covering_tuples(candidates, j + 1, rect.indices):
        positions, covers = zip(*combo)
        value, variance = _tuple_contribution(
            coeffs, alpha, rect, positions, covers, integration_budget, seed, rank
        )
        total += value
        var_total += variance
    return MeasureValue(total, EvalMethod.MONTE_CARLO, stderr=math.sqrt(var_total))


def marginal_tail_constant(coeffs: CoefficientSeq, alpha: float, up_to: int | None = None) -> float:
    """sum_l psi_l^alpha: the single-coordinate tail constant of the process.

    ``up_to`` requests the partial sum through that lag; the default is the
    full analytic value, which must converge.
    """
    if not alpha > 0:
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
    if not alpha > 0:
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
