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
* ``nu_m_j_rect``       -- order-j limit of the MA(m), the evaluator of every
  finite order (the two above at identity coefficients and at order 0): an
  integral over the (j+1)-tuples of spike positions that jointly reach K,
  counted first (at most :data:`MAX_TUPLES`), then walked and their floors
  computed in numpy a chunk at a time.  A tuple is exact, and draws
  nothing, when no shared constraint survives its members' private floors.
  The others integrate one member's Pareto tail in closed form (conditional
  Monte Carlo) over the members that share an open constraint with it,
  which run over :data:`SHIFTS` random shifts of one rank-1 lattice folded
  by the baker's (tent) transform (randomized quasi-Monte Carlo, error
  about budget^-2; at most :data:`MAX_LATTICE_POINTS` points per row) drawn
  from sub-streams of a root derived from the seed; the spread of the shift
  means is the standard error;
* ``nu_inf_0_rect``     -- order-0 limit of the MA(infinity), enumerated at a
  truncation depth with a reported bound on the neglected spike mass;
* ``marginal_tail_constant`` -- sum_l psi_l^alpha, the one-coordinate tail
  constant of the process.

Feasibility is decided by :func:`spike_cover_number`, the fewest single-
innovation spikes whose images make every constrained coordinate positive:
a rectangle is bounded away from the image of the j-spike cone exactly when
it exceeds j.  A spike at i reaches only i .. i+m, so one left-to-right sweep
over one table of spike images finds it and counts the covers of that size:
an order-j row's covering tuples when it is j + 1, none when it exceeds that.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .budgets import DEFAULT_INTEGRATION_BUDGET
from .errors import ParameterError, UnsupportedError
from .innovations import TailModel, _power, block_generator
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

# Spawn key of the root of the tuple sub-streams, apart from any simulation's.
_ORACLE_TAG = 0xFFFFFFFF


def _derive_seed(seed: int, tag: int) -> int:
    """Deterministic fresh root seed for an auxiliary stream."""
    return int(np.random.SeedSequence(seed, spawn_key=(tag,)).generate_state(2, np.uint64)[0])


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
    """The one table every rectangle evaluator reads, left to right in blocks
    of at most CHUNK_CELLS cells: (positions, weights), the positions that
    reach K and a (positions, |K|) array of each one's psi_{k-i}, 0 where i
    does not reach k.  Constraint k's column is psi reversed on k - m .. k, m
    capped at a finite family's order and psi's last nonzero lag."""
    if m < 0:
        raise ParameterError(f"order must be nonnegative, got {m}")
    psi = coeffs.psi_array(coeffs.capped(m))
    back = psi[len(psi) - 1 - int(np.argmax(psi[::-1] != 0.0))::-1]
    m, ks, gaps = len(back) - 1, rect.indices, not back.all()
    width = max(CHUNK_CELLS // len(ks), 1)
    # The windows k - m .. k run together where they overlap: cut at each gap.
    cuts = [r for r in range(1, len(ks)) if ks[r] - m > ks[r - 1] + 1]
    for first, last in zip([0, *cuts], [r - 1 for r in cuts] + [len(ks) - 1]):
        for a in range(ks[first] - m, ks[last] + 1, width):
            b = min(a + width, ks[last] + 1)
            rows = np.zeros((len(ks), b - a))
            # The constraints whose window k - m .. k meets a .. b - 1.
            for r in range(bisect.bisect_left(ks, a), bisect.bisect_left(ks, b + m)):
                s, e = max(a, ks[r] - m), min(b, ks[r] + 1)
                rows[r, s - a: e - a] = back[s - ks[r] + m: e - ks[r] + m]
            keep = rows.any(axis=0) if gaps else slice(None)  # zero lags reach nothing
            yield np.arange(a, b)[keep], rows[:, keep].T


def _cover_counts(blocks, ks) -> tuple[int, int]:
    """(cover, count): the fewest candidates that reach every constraint in
    ``ks``, and how many cover-sets do, over the (positions, weights)
    ``blocks`` of the :func:`_candidate_positions` table, one block held at
    a time.  One sweep, left to right, keeps per covered set of constraints
    its fewest members and how many sets have that many.  It drops a set
    once it passes a constraint the set misses, and a set with more members
    than the fewest of its covered set: each completion of it completes
    those to a smaller cover.  Cost: the candidates, at most |K| (m + 1),
    times at most 2^min(m, |K|) covered sets live within m.
    """
    fewest = {0: (0, 1)}
    for positions, weights in blocks:
        reach = [0] * len(positions)
        for i, p in np.argwhere(weights > 0.0).tolist():
            reach[i] |= 1 << p
        for passed, bits in zip(np.searchsorted(ks, positions).tolist(), reach):
            due, sweep = (1 << passed) - 1, {}
            for covered, (size, count) in fewest.items():
                if covered & due == due:
                    for state, spikes in ((covered, size), (covered | bits, size + 1)):
                        least, total = sweep.get(state, (spikes, 0))
                        if spikes <= least:
                            sweep[state] = spikes, (total + count if spikes == least else count)
            fewest = sweep
    return fewest[(1 << len(ks)) - 1]


def spike_cover_number(coeffs: CoefficientSeq, m: int, rect: UpperRect) -> int:
    """Minimum number of spikes whose lag-map images cover every constraint.

    The rectangle is bounded away from the image of the j-spike cone iff
    this number is at least j + 1.  Always at most |K| (a spike placed on a
    constrained coordinate covers it, since psi_0 > 0).  Found by one
    :func:`_cover_counts` sweep over the :func:`_candidate_positions` table.
    """
    return _cover_counts(_candidate_positions(coeffs, m, rect), rect.indices)[0]


def nu_m0_rect(coeffs: CoefficientSeq, m: int, alpha: float, rect: UpperRect) -> MeasureValue:
    """Order-0 MA(m) limit measure of an upper rectangle.

    Sums (max_k a_k / psi_{k-i})^-alpha, left to right, over the positions
    of the :func:`_candidate_positions` table that reach every constraint
    (max K - m <= i <= min K, psi_{k-i} > 0 for every k), a block at a time.
    """
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    total, thresholds = 0.0, np.array(rect.thresholds)[:, None]
    for positions, weights in _candidate_positions(coeffs, m, rect):
        if positions.size and positions[0] > rect.min_index:
            break  # right of min K no position reaches it
        with np.errstate(divide="ignore", over="ignore"):  # .max(axis=0) is far slower here
            z_min = functools.reduce(np.maximum, thresholds / weights.T)
        for z in z_min[(weights.T > 0.0).all(axis=0)].tolist():
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
    depth first, so memory does not grow with the tuple count.  The levels
    are a list, not a recursion, so ``size`` may exceed the recursion limit.
    """
    n, ks, widest = len(positions), np.array(ks), int(held.sum(axis=1).max())
    prefix, covered = np.empty((1, 0), dtype=np.intp), np.zeros((1, len(ks)), dtype=bool)
    levels = []  # per open level: [prefixes, covered, lo, counts, ends, next prefix]
    while True:
        level = prefix.shape[1]
        # Each member still to come covers at most ``widest`` constraints.
        alive = (~covered).sum(axis=1) <= (size - level) * widest
        prefix, covered = prefix[alive], covered[alive]
        if level == size:
            if len(prefix):
                yield prefix
        else:
            first = np.where(covered.all(axis=1), ks[-1], ks[np.argmin(covered, axis=1)])
            lo = prefix[:, -1] + 1 if level else np.zeros(len(prefix), dtype=np.intp)
            hi = np.minimum(np.searchsorted(positions, first, side="right"), n - size + level + 1)
            counts = np.maximum(hi - lo, 0)
            levels.append([prefix, covered, lo, counts, np.cumsum(counts), 0])
        # The next chunk of extensions of the deepest level with prefixes left.
        while levels:
            top = levels[-1]
            prefix, covered, lo, counts, ends, start = top
            if start == len(prefix):
                levels.pop()
                continue
            base = int(ends[start - 1]) if start else 0
            top[-1] = stop = max(int(np.searchsorted(ends, base + chunk, side="right")), start + 1)
            rows = np.repeat(np.arange(start, stop), counts[start:stop])
            if len(rows):
                cols = lo[rows] + np.arange(len(rows)) - (ends[rows] - counts[rows] - base)
                prefix, covered = np.column_stack([prefix[rows], cols]), covered[rows] | held[cols]
                break
        else:
            return


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
    powers = _power(lower, -alpha)
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
    Pareto value inverse_survival(|2u - 1|) above the member's floor.  The
    fold (the baker's or tent transform; Hickernell, MCQMC 2000) maps a
    uniform u to a uniform survival and makes the score periodic in u, so
    without indicators the error falls about as n^-2 rather than n^-1.  At
    u = 1/2 the survival is 0 and the value inf: its need is -inf and its
    indicators hold.  Given the read members, each open constraint c holds asks
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
    # Twice the lattice: 2 u - 1 = 2 (i z / n) + (2 Delta - 1) before the wrap.
    doubled = np.array([np.arange(n) * pow(a, p, n) % n for p in range(len(read))]) * (2.0 / n)
    model = TailModel.standard_pareto(alpha)
    columns = np.empty((len(read), n))
    ratio, ok, rest, term = np.empty(n), np.empty(n, dtype=bool), np.empty(n), np.empty(n)
    means = []
    for shift in rng.random((SHIFTS, len(read))).tolist():
        # Survival |2 u - 1|, 2 u - 1 wrapped into [-1, 1); 0 gives z = inf.
        with np.errstate(divide="ignore"):
            for column, points, delta in zip(columns, doubled, shift):
                np.add(points, 2.0 * delta - 1.0, out=column)
                np.subtract(column, 2.0, out=column, where=column >= 1.0)
                model.inverse_survival(np.abs(column, out=column), out=column)
        # ratio = need / L_c, each constraint c holds read in units of w_c L_c.
        ratio.fill(1.0)
        ok.fill(True)
        for bound, integrated, ((coef, col), *more) in checks:
            np.multiply(coef, columns[col], out=rest)
            for coef, col in more:
                rest += np.multiply(coef, columns[col], out=term)
            if integrated:
                np.subtract(bound, rest, out=rest)
                np.maximum(ratio, rest, out=ratio)
            else:
                ok &= rest > bound
        g = _power(ratio, -alpha, out=ratio)
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
    """Order-j MA(m) limit measure of an upper rectangle, the evaluator of
    every finite order: :func:`mu_j_rect` for identity coefficients (m = 0,
    psi = (1,)), :func:`nu_m0_rect` at order 0, errors included.

    Above order 0 it sums, over increasing (j+1)-tuples of spike positions
    whose images jointly reach every constrained coordinate, the product
    tail integral of the rectangle indicator.  Tuples containing a position
    that cannot influence K never cover it (no smaller set does either) and
    contribute zero, so walking the covering tuples of influencing positions
    is exhaustive.

    One :func:`_cover_counts` sweep, a table block at a time, gives the
    spike cover number (below j + 1: +inf) and the covering tuple count;
    more than :data:`MAX_TUPLES` raise :class:`UnsupportedError`, and none
    gives 0, before the table is joined for the walk.  The walk and the
    tuples' floors then run a chunk of tuples at a time in numpy and count
    the drawn tuples; more than :data:`MAX_LATTICE_POINTS` lattice points
    in all raise :class:`UnsupportedError` before any draw.  With none
    drawn, the sum of the masses is the value, an enumeration with no
    stderr.  Otherwise a second walk integrates each drawn tuple over
    SHIFTS * ceil(integration_budget / SHIFTS) lattice points; the tuple of
    rank r among the lexicographic (j+1)-combinations of the influencing
    positions draws its shifts from sub-stream r of the root derived from
    ``seed`` (spawn key :data:`_ORACLE_TAG`).  Values are added in
    lexicographic order.
    """
    if m == 0 and coeffs.order == 0 and coeffs.psi(0) == 1.0:  # no cover search
        return mu_j_rect(j, alpha, rect)
    if j == 0:
        return nu_m0_rect(coeffs, m, alpha, rect)
    if not integration_budget > 0:
        raise ParameterError(f"integration budget must be positive, got {integration_budget}")
    if j < 0:
        raise ParameterError(f"order must be nonnegative, got {j}")
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    cover, count = _cover_counts(_candidate_positions(coeffs, m, rect), rect.indices)
    if cover < j + 1:
        return MeasureValue(
            math.inf,
            EvalMethod.ENUMERATION,
            note=f"{cover} spike(s) already cover the rectangle; "
            f"it is not bounded away from the {j}-spike cone image",
        )
    count = count if cover == j + 1 else 0  # no (j+1)-set covers past the cover number
    if count > MAX_TUPLES:
        raise UnsupportedError(
            f"{count} covering spike tuples exceed the tuple budget of {MAX_TUPLES}"
        )
    if not count:
        return MeasureValue(0.0, EvalMethod.ENUMERATION)
    positions, weights = map(np.concatenate, zip(*_candidate_positions(coeffs, m, rect)))
    held = weights > 0.0
    thresholds = np.array(rect.thresholds)
    chunk = max(CHUNK_CELLS // ((j + 1) * len(thresholds)), 1)

    def floored():
        for tuples in _tuple_chunks(positions, held, rect.indices, j + 1, chunk):
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
        return MeasureValue(total, EvalMethod.ENUMERATION)
    total = var_total = 0.0
    root = _derive_seed(seed, _ORACLE_TAG)
    for tuples, floors in floored():
        values, variances = _contributions(
            alpha, thresholds, floors, integration_budget, root,
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
