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
  (j+1)-tuples of spike positions that jointly reach K.  The tuples are
  counted first (at most :data:`MAX_TUPLES`), then walked and their floors
  computed in numpy a chunk at a time.  A tuple is exact, and draws
  nothing, when no shared constraint survives its members' private floors.
  The others integrate one member's Pareto tail in closed form (conditional
  Monte Carlo) over the members that share an open constraint with it,
  which run over :data:`SHIFTS` random shifts of one rank-1 lattice
  (randomized quasi-Monte Carlo; at most :data:`MAX_LATTICE_POINTS` points
  per row); the spread of the shift means is the standard error;
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
import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ParameterError, UnsupportedError
from .innovations import TailModel, block_generator
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

# Lattice points per drawn tuple unless a caller sets one; a budget is
# rounded up to a multiple of SHIFTS.
DEFAULT_INTEGRATION_BUDGET = 200_000

# Independent uniform shifts of each drawn tuple's lattice: the tuple's value
# is the mean of the shift means, its variance their spread over SHIFTS.
SHIFTS = 16

# Most lattice points the drawn tuples of one order-j rectangle may
# evaluate (about 12 s at the 8.6e7 points/s measured on one core of a
# 2-core machine); a larger count raises UnsupportedError before any draw.
MAX_LATTICE_POINTS = 10**9

# Most covering spike tuples one order-j rectangle may sum over; a larger
# count raises UnsupportedError before the walk.
MAX_TUPLES = 250_000

# Cells per (tuples, j+1, |K|) floor array of one numpy pass over a chunk of
# tuples: the walk and the floors hold a few such arrays whatever the tuple count.
CHUNK_CELLS = 1 << 17


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
    """(positions, weights): the spike positions that reach K, ascending, and
    a (positions, |K|) array of each one's psi_{k-i} on every constraint, 0
    where it does not reach k.

    A finite family's spikes reach no further than its order, so m is capped there.
    """
    m = coeffs.capped(m)
    psi = coeffs.psi_array(m)
    ks = np.array(rect.indices)
    # Each constraint's k - lag over the nonzero lags, sorted and deduplicated
    # (np.unique would import numpy.ma on its first call).
    reached = np.sort((ks[:, None] - np.flatnonzero(psi)).ravel())
    positions = reached[np.diff(reached, prepend=reached[0] - 1) > 0]
    lags = ks - positions[:, None]
    return positions, np.where((lags >= 0) & (lags <= m), psi[np.clip(lags, 0, m)], 0.0)


def _sweep(coeffs: CoefficientSeq, m: int, rect: UpperRect):
    """(due, reach) per influencing spike position, left to right: bit p of
    reach is set when the spike reaches rect.indices[p], of due when that
    constraint lies left of it, where no later spike reaches it either."""
    positions, weights = _candidate_positions(coeffs, m, rect)
    passed = np.searchsorted(rect.indices, positions).tolist()
    for left, held in zip(passed, weights > 0.0):
        yield (1 << left) - 1, sum(1 << p for p in np.flatnonzero(held).tolist())


def spike_cover_number(coeffs: CoefficientSeq, m: int, rect: UpperRect) -> int:
    """Minimum number of spikes whose lag-map images cover every constraint.

    The rectangle is bounded away from the image of the j-spike cone iff
    this number is at least j + 1.  Always at most |K| (a spike placed on a
    constrained coordinate covers it, since psi_0 > 0).

    Exact sweep over the positions, left to right: the fewest spikes per
    covered set, a set dropped once the sweep passes a constraint it misses.
    Cost: the positions within m of a constraint, at most |K| (m + 1) with m
    capped at a finite family's order, times at most 2^min(m, |K|) sets live
    within m.
    """
    if m < 0:
        raise ParameterError(f"order must be nonnegative, got {m}")
    best = {0: 0}
    for due, reach in _sweep(coeffs, m, rect):
        sweep = {}
        for covered, count in best.items():
            if covered & due == due:
                for state, spikes in ((covered, count), (covered | reach, count + 1)):
                    if spikes < sweep.get(state, spikes + 1):
                        sweep[state] = spikes
        best = sweep
    return best[(1 << len(rect.indices)) - 1]


def _covering_count(coeffs: CoefficientSeq, m: int, rect: UpperRect, size: int) -> int:
    """Number of ``size``-sets of spike positions that cover every constraint,
    by the sweep of :func:`spike_cover_number` counting per covered set and size."""
    counts = Counter({(0, 0): 1})
    for due, reach in _sweep(coeffs, m, rect):
        sweep = Counter()
        for (covered, used), count in counts.items():
            if covered & due == due:
                sweep[covered, used] += count
                if used < size:
                    sweep[covered | reach, used + 1] += count
        counts = sweep
    return counts[(1 << len(rect.indices)) - 1, size]


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


def _tuple_chunks(positions: np.ndarray, held: np.ndarray, ks: tuple[int, ...], size: int,
                  chunk: int):
    """The ``size``-combinations of candidates that reach all of K, as
    (tuples, size) arrays of candidate indices in lexicographic order, at
    most ``chunk`` tuples each (or one prefix's extensions, if more).

    The combinations grow one member per level; a prefix extends only at or
    left of its first uncovered constraint (max K once all are covered), and
    only while enough candidates remain and the members still to come, each
    reaching at most as many constraints as the widest candidate, can cover
    the rest.  Each level expands at most ``chunk`` extensions at a time,
    depth first, so memory does not grow with the tuple count.
    """
    n, ks, widest = len(positions), np.array(ks), int(held.sum(axis=1).max())

    def extend(prefix, covered):
        level = prefix.shape[1]
        # Each member still to come covers at most ``widest`` constraints.
        alive = (~covered).sum(axis=1) <= (size - level) * widest
        prefix, covered = prefix[alive], covered[alive]
        if level == size:
            if len(prefix):
                yield prefix
            return
        first = np.where(covered.all(axis=1), ks[-1], ks[np.argmin(covered, axis=1)])
        lo = prefix[:, -1] + 1 if level else np.zeros(len(prefix), dtype=np.intp)
        hi = np.minimum(np.searchsorted(positions, first, side="right"), n - size + level + 1)
        counts = np.maximum(hi - lo, 0)
        ends = np.cumsum(counts)
        start = 0
        while start < len(prefix):
            base = int(ends[start - 1]) if start else 0
            stop = max(int(np.searchsorted(ends, base + chunk, side="right")), start + 1)
            rows = np.repeat(np.arange(start, stop), counts[start:stop])
            if len(rows):
                cols = lo[rows] + np.arange(len(rows)) - (ends[rows] - counts[rows] - base)
                yield from extend(np.column_stack([prefix[rows], cols]), covered[rows] | held[cols])
            start = stop

    yield from extend(np.empty((1, 0), dtype=np.intp), np.zeros((1, len(ks)), dtype=bool))


def _rank(combo: list[int], n: int) -> int:
    """Lexicographic rank of an increasing combination among all C(n, len) of range(n)."""
    d = len(combo)
    return math.comb(n, d) - 1 - sum(math.comb(n - 1 - c, d - l) for l, c in enumerate(combo))


def _floors(alpha, thresholds, weights):
    """(mass, held, pulls, open) of a chunk of spike-position tuples.

    ``weights`` is (tuples, d, |K|): psi_{k-i_h} of member h on constraint k,
    0 where it does not reach k.  Every member has at least one private
    constraint (no smaller spike set covers K), which pins z_h above a
    positive floor L_h; the integral is over independent Pareto(alpha)
    values conditioned above L_h, carrying mass prod L_h^-alpha.  ``held``
    and ``pulls`` are (tuples, d, |K|): whether member h reaches k, and its
    w_h L_h there.  A shared constraint k is implied when its floor
    sum_h w_h L_h, added in member order, already exceeds a_k: every draw
    is L_h times a Pareto value >= 1, and rounded products and sums are
    monotone, so it would hold at every point.  ``open`` (tuples, |K|)
    marks the shared constraints left; a tuple with none is exactly its mass.
    """
    d = weights.shape[1]
    held = weights > 0.0
    holders = held.sum(axis=1)
    private = held & (holders == 1)[:, None, :]
    with np.errstate(divide="ignore"):
        lower = np.where(private, thresholds / weights, 0.0).max(axis=2)
    assert lower.all(), "tuple member without a private constraint"
    # Multiplied member by member, left to right, so a tuple's mass has the
    # same bits in any chunk.
    powers = lower**-alpha
    mass = powers[:, 0].copy()
    pulls = weights * lower[:, :, None]
    floor = pulls[:, 0].copy()
    for h in range(1, d):
        mass *= powers[:, h]
        floor += pulls[:, h]
    return mass, held, pulls, (holders > 1) & ~(floor > thresholds)


def _contributions(alpha, thresholds, floors, budget, seed, rank_of):
    """(values, variances) of a chunk of tuples with the given :func:`_floors`:
    an exact tuple's value is its mass, a drawn one (some shared constraint
    open) integrates on sub-stream ``rank_of(t)`` (see :func:`_conditional`)."""
    mass, held, pulls, open_ = floors
    values, variances = mass.copy(), np.zeros(len(mass))
    for t in np.flatnonzero(open_.any(axis=1)).tolist():
        mean, var = _conditional(
            alpha, thresholds.tolist(), held[t], pulls[t], open_[t], budget,
            block_generator(seed, rank_of(t)),
        )
        m = float(mass[t])
        values[t], variances[t] = m * mean, m**2 * var
    return values, variances


@functools.lru_cache(maxsize=16)
def _korobov(n: int) -> int:
    """The integer in [1, n) nearest n / phi that is coprime to n, phi the
    golden ratio (1 for n = 1): in two dimensions its lattice spreads like
    the Fibonacci lattice.  Cached: one row's drawn tuples share n."""
    k = np.arange(1, n)
    distance = np.where(np.gcd(k, n) == 1, np.abs(k - n / ((1.0 + math.sqrt(5.0)) / 2.0)), np.inf)
    return int(k[np.argmin(distance)]) if n > 1 else 1


def _conditional(alpha, thresholds, held, pulls, open_, budget, rng):
    """Mean of one drawn tuple's conditional score and the variance of that mean.

    ``held`` and ``pulls`` are (d, |K|): whether member h reaches
    constraint k, and its w_h L_h there.  One member c is integrated out: the one with the largest sum of
    w_c L_c over the open constraints it holds, the lowest index on ties.
    The r other members that hold an open constraint, in member order, are
    read; the rest are never read (their factor integrates to 1).  They run
    over a randomly shifted rank-1 lattice (Cranley & Patterson): ``rng``
    draws one (SHIFTS, r) array of shifts Delta_s, and each shift moves the
    n = ceil(budget / SHIFTS) points i z / n mod 1 (Korobov generator
    z = (1, a, a^2, ..) mod n, a = :func:`_korobov` (n); for r = 1 the
    points i / n) to u = frac(i z / n + Delta_s); coordinate u is the
    Pareto value inverse_survival(1 - u) above the member's floor.  Given
    the read members, each open constraint c holds asks
    z_c > need_k = (a_k - sum_{h != c} w_h z_h) / w_c, which has conditional
    probability (max(L_c, need) / L_c)^-alpha; the open constraints c does
    not hold stay indicators.  The score g is that probability times the
    indicators.  Each shifted lattice is uniform on [0, 1)^r, so each shift
    mean is an unbiased estimate; the mean is their average and its
    variance their sample variance over SHIFTS (SHIFTS - 1 degrees of freedom).
    """
    d = len(held)
    opened = np.flatnonzero(open_).tolist()
    pull = np.zeros(d)
    for p in opened:
        pull += pulls[:, p]
    c = int(np.argmax(pull))
    read = [h for h in range(d) if h != c and held[h, open_].any()]
    # Per open constraint: its threshold (over w_c L_c where c holds it), and
    # the read members' coefficients in the same unit.
    wl = pulls.tolist()
    checks = []
    for p in opened:
        unit = wl[c][p] if held[c, p] else 1.0
        checks.append((thresholds[p] / unit, bool(held[c, p]),
                       [(wl[h][p] / unit, read.index(h)) for h in read if held[h, p]]))
    n = -(-budget // SHIFTS)
    a = _korobov(n)
    lattice = np.array([np.arange(n) * pow(a, p, n) % n for p in range(len(read))]) / n
    model = TailModel.standard_pareto(alpha)
    rest, term = np.empty(n), np.empty(n)
    means = []
    for shift in rng.random((SHIFTS, len(read))).tolist():
        columns = []
        for points, delta in zip(lattice, shift):
            u = points + delta
            np.subtract(u, 1.0, out=u, where=u >= 1.0)
            np.subtract(1.0, u, out=u)
            columns.append(model.inverse_survival(u, out=u))
        # ratio = need / L_c, each constraint c holds read in units of w_c L_c.
        ratio = np.ones(n)
        ok = np.ones(n, dtype=bool)
        for bound, integrated, ((coef, col), *more) in checks:
            np.multiply(coef, columns[col], out=rest)
            for coef, col in more:
                rest += np.multiply(coef, columns[col], out=term)
            if integrated:
                np.subtract(bound, rest, out=rest)
                np.maximum(ratio, rest, out=ratio)
            else:
                ok &= rest > bound
        g = ratio
        g **= -alpha
        g *= ok
        means.append(g.mean())
    means = np.array(means)
    return float(means.mean()), float(means.var(ddof=1)) / SHIFTS


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

    The covering tuples are counted first; more than :data:`MAX_TUPLES`
    raise :class:`UnsupportedError` before the walk.  The walk and the
    tuples' floors then run a chunk of tuples at a time in numpy and count
    the drawn tuples; more than :data:`MAX_LATTICE_POINTS` lattice points
    in all raise :class:`UnsupportedError` before any draw.  With none
    drawn, the sum of the masses is the value.  Otherwise a second walk
    integrates each drawn tuple over SHIFTS * ceil(integration_budget /
    SHIFTS) lattice points; the tuple of rank r among the lexicographic
    (j+1)-combinations of the influencing positions draws its shifts from
    sub-stream r, so the result is deterministic in ``seed``.  Values are
    added in lexicographic order.
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
    count = _covering_count(coeffs, m, rect, j + 1)
    if count > MAX_TUPLES:
        raise UnsupportedError(
            f"{count} covering spike tuples exceed the tuple budget of {MAX_TUPLES}"
        )
    positions, weights = _candidate_positions(coeffs, m, rect)
    thresholds = np.array(rect.thresholds)
    chunk = max(CHUNK_CELLS // ((j + 1) * len(thresholds)), 1)

    def floored():
        for tuples in _tuple_chunks(positions, weights > 0.0, rect.indices, j + 1, chunk):
            yield tuples, _floors(alpha, thresholds, weights[tuples])

    drawn, total = 0, 0.0
    for _, (mass, _, _, open_) in floored():
        drawn += int(open_.any(axis=1).sum())
        for value in mass.tolist():
            total += value
    points = drawn * SHIFTS * -(-integration_budget // SHIFTS)
    if points > MAX_LATTICE_POINTS:
        raise UnsupportedError(
            f"{drawn} drawn spike tuples need {points} lattice points, "
            f"above the limit of {MAX_LATTICE_POINTS} (use a smaller integration_budget)"
        )
    if not drawn:
        return MeasureValue(total, EvalMethod.MONTE_CARLO, stderr=0.0)
    total = var_total = 0.0
    for tuples, floors in floored():
        values, variances = _contributions(
            alpha, thresholds, floors, integration_budget, seed,
            lambda t: _rank(tuples[t].tolist(), len(positions)),
        )
        for value, variance in zip(values.tolist(), variances.tolist()):
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
