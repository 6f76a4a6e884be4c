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
  counted, walked and floored in numpy a chunk at a time.  A tuple is exact
  when no shared constraint survives its members' private floors; the
  others integrate one member's Pareto tail in closed form and the members
  sharing an open constraint with it by Gauss-Legendre quadrature on
  closed-form pieces, nested in the log of each when there are several,
  within per-row limits on tuple counts, vertex systems and nodes.  So a
  value is a deterministic function of the row;
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
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ParameterError, UnsupportedError
from .innovations import _power
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

# Gauss-Legendre rules of a drawn tuple (see _rules): n and 2n nodes a piece,
# n from QUAD_NODES doubling while the two values differ by more than
# QUAD_TOLERANCE of the finer, up to 2n = QUAD_MAX_NODES; from and to NESTED
# in a tuple that reads several members, whose levels multiply their nodes.
# The reported error is their difference plus QUAD_ROUNDING of the value (the
# rounding of powers and differences) plus 2^-1074 a term, what underflow takes.
QUAD_NODES = 48
QUAD_MAX_NODES = 768
QUAD_TOLERANCE = 1e-13
QUAD_ROUNDING = 8 * 2.0**-52
NESTED = (QUAD_NODES // 4, 1e-10)

# A piece's cuts lie at most GRADING times their distance from the score's
# singularity s.  Each cut is 1 + GRADING times nearer s than the last, so
# from u <= 1 to a bottom at least 2^-1074 above s takes at most
# log_17 2^1074 < 263 cuts; _MAX_GRADES only guards against a rounding stall.
GRADING = 16.0
_MAX_GRADES = 300

# Most covering spike tuples one order-j rectangle may sum over; a larger
# count raises UnsupportedError before the walk.
MAX_TUPLES = 250_000

# Most drawn tuples that read two or more members one order-j rectangle may
# integrate (about 9 s at the mean 3 ms a tuple of 4,179 in 1,500 random
# rows, one core of a 2-core machine); more raise UnsupportedError in the count.
MAX_NESTED_TUPLES = 3_000

# Work of a row's tuples that read two or more members, in nodes of their
# rules; a row of a rule's round counts ROW_NODES more (its exact sums), a
# state a nested level takes STATE_NODES and one per vertex system its level
# solves.  Past it they raise UnsupportedError: about 8 s at the median 81 ns
# a node, 10 s at the slowest 104 ns, of 31 random rows taking over 1 s (one
# core of a 2-core machine).
MAX_NESTED_NODES = 100_000_000
ROW_NODES = 96
STATE_NODES = 16

# Most systems of m planes in R^m whose vertices one level of a tuple's nested
# quadrature solves, into (systems, m, 64) arrays; a level that needs more
# raises UnsupportedError before it solves any.
MAX_VERTEX_SYSTEMS = 4_096

# Most drawn tuples that read one member one order-j rectangle may integrate
# (about 10 s at 97 us a tuple, on 25 constraints and 13 members, one core of
# a 2-core machine, before a chunk's tuples shared one quadrature, which takes
# about 55 us a tuple); more raise UnsupportedError in the count.
MAX_QUADRATURE_TUPLES = 100_000

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
    """How a value was computed: exactly (closed form, enumeration), or by
    quadrature of its drawn tuples."""

    CLOSED_FORM = "closed_form"
    ENUMERATION = "enumeration"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class MeasureValue:
    """A tail-measure value; +inf marks a set not bounded away from the cone.

    ``stderr`` is present exactly for quadrature: the drawn tuples'
    quadrature error estimates added in squares;
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


def _float64_range(evaluate):
    """``evaluate``, raising :class:`UnsupportedError` where a value or a
    term of it passes the largest double: there Python's ``**`` raises
    OverflowError, and numpy and float sums give inf (inf times 0, nan),
    which would read as the +inf of an unbounded set, the one with a note."""
    @functools.wraps(evaluate)
    def checked(*args, **kwargs) -> MeasureValue:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                got = evaluate(*args, **kwargs)
            parts = (got.value, got.stderr or 0.0, got.truncation_error_bound or 0.0)
            if got.note is not None or all(map(math.isfinite, parts)):
                return got
        except OverflowError:
            pass
        raise UnsupportedError("the value or one of its terms passes the float64 range (above 1.798e+308)")

    return checked


def nu_alpha_tail(a: float, alpha: float) -> float:
    """One-dimensional tail measure of (a, inf): a^-alpha."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not a > 0:
        raise ParameterError(
            f"threshold must be positive (the tail measure has infinite mass at 0), got {a}"
        )
    return a**-alpha


@_float64_range
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


@_float64_range
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


class _Budget:
    """The quadrature nodes a row's tuples that read several members may
    take; past MAX_NESTED_NODES, :meth:`spend` raises UnsupportedError."""

    def __init__(self):
        self.left = MAX_NESTED_NODES

    def spend(self, nodes):
        self.left -= nodes
        if self.left < 0:
            raise UnsupportedError(f"the drawn spike tuples that read two or more members take more than "
                                   f"{MAX_NESTED_NODES} quadrature nodes")


def _contributions(alpha, thresholds, floors, budget):
    """(values, variances) of a chunk of tuples with the given :func:`_floors`:
    the mass, times for a drawn tuple the integral of its :func:`_plan`, by
    :func:`_nested` if it reads several members.  The chunk's tuples that
    read one share one :func:`_quadrature`, their need lines padded with
    lines (-inf, 1) that never bind: one call a tuple takes 2.5 times as long."""
    mass, held, pulls, open_ = floors
    values, variances = mass.copy(), np.zeros(len(mass))
    got, lines = {}, {}
    for t in np.flatnonzero(open_.any(axis=1)).tolist():
        bounds, coefs, integrated = _plan(thresholds, held[t], pulls[t], open_[t])
        if coefs.shape[1] == 1:
            lines[t] = bounds[0], coefs[:, 0]
        else:
            means, errors = _nested(alpha, coefs, integrated, budget)(bounds, np.ones(1))
            got[t] = means[0], errors[0]
    if lines:
        b = np.full((len(lines), max(len(c) for _, c in lines.values())), -np.inf)
        c = np.ones_like(b)
        for r, (bound, coef) in enumerate(lines.values()):
            b[r, :len(coef)], c[r, :len(coef)] = bound, coef
        got.update(zip(lines, zip(*_quadrature(alpha, b, c))))
    for t, (mean, error) in got.items():
        values[t], variances[t] = float(mass[t]) * float(mean), float(mass[t]) ** 2 * float(error) ** 2
    return values, variances


def _plan(thresholds, held, pulls, open_):
    """(bounds, coefs, integrated) of one drawn tuple, one check per open
    constraint; ``held`` and ``pulls`` (d, |K|) say whether member h reaches
    constraint k, and its w_h L_h there.  Member c, with the largest sum of
    w_c L_c over the open constraints it holds (the lowest index on ties),
    is integrated out; the others that hold one are read (the columns of
    ``coefs``), the rest integrate to 1.  Given their Pareto values x_h (z_h
    = L_h x_h), an open constraint c holds asks z_c > need = (a_k - sum_{h !=
    c} w_h z_h) / w_c, of probability (max(L_c, need) / L_c)^-alpha; the
    others stay indicators.  Check k, in units of w_c L_c where c holds it
    (``integrated``), states need / L_c = bound - coefs . x, else coefs . x
    > bound; ``bounds`` is one state, (1, checks)."""
    pull = np.zeros(len(held))
    for p in np.flatnonzero(open_).tolist():
        pull += pulls[:, p]
    c = int(np.argmax(pull))
    read = np.flatnonzero(held[:, open_].any(axis=1) & (np.arange(len(held)) != c))
    integrated = held[c, open_]
    unit = np.where(integrated, pulls[c, open_], 1.0)
    coefs = np.where(held[read][:, open_], pulls[read][:, open_] / unit, 0.0).T
    return (thresholds[open_] / unit)[None], coefs, integrated


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on (-1, 1), n
    even.  Each positive root of P_n is found by Newton's method on the
    three-term recurrence from the guess cos(pi (i + 3/4) / (n + 1/2)), in
    elementwise float64 arithmetic, so the rule has the same bits on every
    IEEE machine (no BLAS, LAPACK or vector transcendental); its weight is
    2 / ((1 - x^2) P_n'(x)^2).  Cached: every tuple uses the same few n."""
    x = np.array([math.cos(math.pi * (i + 0.75) / (n + 0.5)) for i in range(n // 2)])
    for _ in range(100):
        low, value = np.ones_like(x), x
        for k in range(2, n + 1):
            low, value = value, ((2 * k - 1) * x * value - (k - 1) * low) / k
        slope = n * (x * value - low) / (x * x - 1.0)
        step = value / slope
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    return np.concatenate([-x, x[::-1]]), np.concatenate([weights, weights[::-1]])


def _graded(q, bottom, s):
    """(lo, hi, piece): pieces [bottom, q] cut toward s < bottom at (q + GRADING
    s) / (1 + GRADING) from q down, each at most GRADING times its distance to
    s, so Gauss-Legendre converges geometrically on each; ``piece``: its input."""
    lo, hi, piece, index = [], [], [], np.arange(len(q))
    for _ in range(_MAX_GRADES):
        p = (q + GRADING * s) / (1.0 + GRADING)
        more = p > bottom
        if not more.any():
            break
        lo, hi, piece, q = [*lo, p[more]], [*hi, q[more]], [*piece, index[more]], np.where(more, p, q)
    return [np.concatenate(x) for x in ([*lo, bottom], [*hi, q], [*piece, index])]


def _pieces(cuts, top, active):
    """(row, x0, x1) of each ``active`` row's pieces from 1 to top at ``cuts``."""
    inside = np.where((cuts > 1.0) & (cuts < top[:, None]), cuts, top[:, None])
    xs = np.sort(np.column_stack([np.ones(len(top)), top, inside]), axis=1)
    row, col = np.nonzero((xs[:, :-1] < xs[:, 1:]) & active[:, None])
    return row, xs[row, col], xs[row, col + 1]


def _rules(n, tolerance, row, lo, hi, head, integrand, means, errors, budget=None):
    """Into ``means`` and ``errors`` of each row with pieces [lo, hi]: its
    ``head`` (values, errors) plus Gauss-Legendre rules over them of
    ``integrand`` (nodes, rows) -> (values, errors), n nodes a piece against
    2n, n doubling, until they differ by at most ``tolerance`` of the 2n
    value Q or 2n reaches QUAD_MAX_NODES: Q, and the gap plus the integrand's
    errors, QUAD_ROUNDING Q and 2^-1074 a term, summed by ``math.fsum``.
    Each round spends its nodes and ROW_NODES a row from ``budget``, if given."""
    order = np.argsort(row, kind="stable")
    row, middle, half = row[order], (0.5 * (lo + hi))[order], (0.5 * (hi - lo))[order]
    coarse, head, rules = {}, np.asarray(head).tolist(), (n, 2 * n)
    while len(row):
        nodes, weights = map(np.concatenate, zip(*map(_gauss_legendre, rules)))
        starts = [0, *(np.flatnonzero(row[1:] != row[:-1]) + 1).tolist()]
        if budget is not None:
            budget.spend(len(row) * len(nodes) + ROW_NODES * len(starts))
        values, spread = integrand(middle[:, None] + half[:, None] * nodes, row)
        terms, slips = ((half[:, None] * weights) * values).tolist(), (half[:, None] * weights) * spread
        n, f = rules[-1], len(nodes) - rules[-1]
        for i, start, end in zip(row[starts].tolist(), starts, starts[1:] + [len(row)]):
            coarse.setdefault(i, math.fsum(itertools.chain([head[0][i]], *(t[:f] for t in terms[start:end]))))
            fine = math.fsum(itertools.chain([head[0][i]], *(t[f:] for t in terms[start:end])))
            if abs(fine - coarse[i]) <= tolerance * fine or 2 * n > QUAD_MAX_NODES:
                means[i] = fine
                errors[i] = (abs(fine - coarse[i]) + math.fsum([head[1][i], *slips[start:end, f:].flat])
                             + QUAD_ROUNDING * fine + (end - start) * n * 2.0**-1074)
                row[start:end] = -1
            coarse[i] = fine
        row, middle, half, rules = row[row >= 0], middle[row >= 0], half[row >= 0], (2 * n,)


def _quadrature(alpha, b, c, n=QUAD_NODES, tolerance=QUAD_TOLERANCE, budget=None):
    """(means, errors) of a batch of one-member scores over the member's
    survival u in (0, 1]: row i's score at the Pareto value x = u^(-1/alpha)
    is g = max(1, max_k (b_ik - c_ik x))^-alpha.  Past x* = max_k (b_k - 1)
    / c_k, g = 1, so u < u* = x*^-alpha adds exactly u*; the rest is cut
    where a line meets the floor or another line (g is smooth between), each
    piece graded toward the zero s = (c / b)^alpha of its leading line,
    where g is singular, and taken by :func:`_rules` from n nodes, spent
    from ``budget`` if given (see :class:`_Budget`)."""
    k, l = np.array(list(itertools.combinations(range(b.shape[1]), 2)), dtype=np.intp).reshape(-1, 2).T
    top = ((b - 1.0) / c).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(c[:, k] != c[:, l], (b[:, k] - b[:, l]) / (c[:, k] - c[:, l]), np.nan)
    row, x0, x1 = _pieces(np.concatenate([(b - 1.0) / c, cross], axis=1), top, top > 1.0)
    lead = np.argmax(b[row] - c[row] * (0.5 * (x0 + x1))[:, None], axis=1)
    lo, hi, piece = _graded(_power(x0, -alpha), _power(x1, -alpha),
                            _power(c[row, lead] / b[row, lead], alpha))

    def score(u, row):
        with np.errstate(divide="ignore", over="ignore"):
            x = _power(u, -1.0 / alpha)
        ratio = np.ones_like(x)
        for k in range(b.shape[1]):
            np.maximum(ratio, b[row, k, None] - c[row, k, None] * x, out=ratio)
        return _power(ratio, -alpha, out=ratio), 0.0

    means, errors = np.ones(len(b)), np.full(len(b), QUAD_ROUNDING)
    head = _power(np.maximum(top, 1.0), -alpha)
    _rules(n, tolerance, row[piece], lo, hi, (head, 0.0 * head), score, means, errors, budget)
    return means, errors


def _groups(live, integrated):
    """The read members (columns of ``live``) of each independent group of
    checks, joined when a check reads both, as are all that integrated
    checks read (their needs meet in one maximum), whose group is first."""
    links = np.vstack([live[~integrated], live[integrated].any(axis=0)]).astype(int)
    joined = links.T @ links > 0
    for _ in range(live.shape[1]):
        joined = joined.astype(int) @ joined > 0
    groups = {tuple(np.flatnonzero(members).tolist()) for members in joined[joined.diagonal()]}
    return sorted(map(list, groups), key=lambda g: (not live[integrated][:, g].any(), g))


def _inverses(normals):
    """(combos, inverses): every m of the hyperplane normals in R^m and their
    matrix's inverse (nan or inf if singular), by elementwise Gauss-Jordan."""
    m = normals.shape[1]
    combos = np.array(list(itertools.combinations(range(len(normals)), m)), dtype=np.intp).reshape(-1, m)
    system = np.concatenate([normals[combos], np.broadcast_to(np.eye(m), (len(combos), m, m))], axis=2)
    every = np.arange(len(combos))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(m):
            pivot = col + np.argmax(np.abs(system[:, col:, col]), axis=1)
            system[every, pivot], system[:, col] = system[:, col], system[every, pivot].copy()
            system[:, col] /= system[:, col, col, None]
            factor = np.where(np.arange(m) == col, 0.0, system[:, :, col])
            system -= factor[:, :, None] * system[:, col, None, :]
    return combos, system[:, :, m:]


def _nested(alpha, coefs, integrated, budget):
    """The integral of a drawn tuple's score (see :func:`_plan`) over its read
    members (columns of ``coefs``), as a rule (bounds, floor) -> (means,
    errors) of (states, checks) ``bounds`` and a ``floor`` under need / L_c.
    What the coefficients fix is built here, once a tuple, and a level with
    more than MAX_VERTEX_SYSTEMS vertex systems raises UnsupportedError; each
    state a rule takes spends STATE_NODES from ``budget``, and one more per
    vertex system its level solves.  Checks that read none raise the floor
    or fail; independent groups (:func:`_groups`) multiply.  Over one
    member, F = floor and the largest indicator cut x_low scale out:
    (F x_low)^-alpha :func:`_quadrature` (alpha, [(b / F, c x_low / F)]).
    Otherwise the member whose removal splits the checks most, and then
    leaves the fewest members under the integrated checks, is integrated in
    t = log x, the rest nested inside: past the top, where every check that
    reads it holds, exactly; below, cut at its coordinate of each vertex of
    the checks' planes in the domain (kinks), graded toward the nearest
    vertex that need = 0 or x = 0 moves (poles), by :func:`_rules` at NESTED."""
    const = ~(coefs != 0.0).any(axis=1)
    failing, raising = const & ~integrated, const & integrated
    coefs, integrated = coefs[~const], integrated[~const]
    live = coefs != 0.0
    groups = _groups(live, integrated)

    def settle(bounds, floor, cost=STATE_NODES):
        # (fails, floor, the checks that read a member) of a rule's states.
        budget.spend(cost * len(bounds))
        floor = np.maximum(floor, bounds[:, raising].max(axis=1, initial=1.0))
        return (bounds[:, failing] >= 0.0).any(axis=1), floor, bounds[:, ~const]

    if len(groups) != 1:
        parts = []
        for cols in groups:
            rows = live[:, cols].any(axis=1)
            parts.append((rows, _nested(alpha, coefs[rows][:, cols], integrated[rows], budget)))

        def split(bounds, floor):
            fails, floor, bounds = settle(bounds, floor)
            mean = np.where(fails, 0.0, 1.0 if integrated.any() else _power(floor, -alpha))
            upper = mean
            for g, (rows, part) in enumerate(parts):
                got, error = part(bounds[:, rows], floor if g == 0 and integrated.any() else np.ones(len(floor)))
                mean, upper = mean * got, upper * (got + error)
            return mean, upper - mean

        return split
    coefs, live = coefs[:, groups[0]], live[:, groups[0]]
    m = coefs.shape[1]
    if m == 1:
        def one(bounds, floor):
            fails, floor, bounds = settle(bounds, floor)
            low = (bounds[:, ~integrated] / coefs[~integrated, 0]).max(axis=1, initial=1.0)
            scale = np.where(fails, 0.0, _power(floor * low, -alpha))
            means, errors = (_quadrature(alpha, bounds[:, integrated] / floor[:, None],
                                         coefs[integrated, 0] * low[:, None] / floor[:, None], *NESTED, budget)
                             if integrated.any() else (1.0, QUAD_ROUNDING))
            return scale * means, scale * errors

        return one
    j = max(range(m), key=lambda h: (len(_groups(np.delete(live, h, axis=1), integrated)),
                                     -np.delete(live, h, axis=1)[integrated].any(axis=0).sum(), -h))
    rest, reads = np.delete(coefs, j, axis=1), live[:, j]
    far = _nested(alpha, rest[~reads], integrated[~reads], budget)
    inner = _nested(alpha, rest, integrated, budget)
    # Kinks: need = floor, two needs equal, indicators, x_h = 1; poles: need = 0, x_h = 0.
    k, l = np.triu_indices(int(integrated.sum()), 1)
    lines, edges = coefs[integrated], np.delete(np.eye(m), j, axis=0)
    normals = np.concatenate([lines, lines[k] - lines[l], coefs[~integrated], edges, lines, edges])
    systems = math.comb(len(normals), m)
    if systems > MAX_VERTEX_SYSTEMS:
        raise UnsupportedError(f"a drawn spike tuple's nested quadrature would solve {systems} vertex systems, "
                               f"more than {MAX_VERTEX_SYSTEMS}")
    combos, inverses = _inverses(normals)
    # A pole plane moves x if its offset enters x past rounding (pivoting leaves 1e-16 for 0).
    moves = np.abs(inverses[:, j]) > 1e-9 * np.abs(inverses[:, j]).max(axis=1, keepdims=True)
    poled = ((combos >= len(normals) - len(lines) - m + 1) & moves).any(axis=1)[:, None]

    def outer(bounds, floor):
        fails, floor, bounds = settle(bounds, floor, STATE_NODES + systems)
        head = np.array(far(bounds[:, ~reads], floor))
        planes = bounds - np.where(integrated, floor[:, None], 0.0)
        top = np.maximum(1.0, ((planes[:, reads] - rest[reads].sum(axis=1)) / coefs[reads, j]).max(axis=1))
        ones = np.ones((m - 1, len(top)))
        offsets = np.concatenate([planes.T[integrated], planes.T[integrated][k] - planes.T[integrated][l],
                                  planes.T[~integrated], ones, bounds.T[integrated], 0.0 * ones])
        with np.errstate(invalid="ignore", over="ignore"):
            points = sum(inverses[:, :, i, None] * offsets[combos[:, i]][:, None, :] for i in range(m))
        x = points[:, j]
        inside = (np.delete(points, j, axis=1) >= 1.0 - 1e-9).all(axis=1) & ~poled
        state, x0, x1 = _pieces(np.where(inside, x, np.nan).T, top, ~fails)
        t0, t1 = np.log(x0), np.log(x1)
        with np.errstate(divide="ignore", invalid="ignore"):
            poles = np.log(np.where(poled & (x > 0.0), x, np.nan)).T[state]
        below = np.where(poles <= t0[:, None], poles, -np.inf).max(axis=1, initial=-np.inf)
        above = np.where(poles >= t1[:, None], poles, np.inf).min(axis=1, initial=np.inf)
        up = above - t1 < t0 - below
        lo, hi, piece = _graded(np.where(up, -t0, t1), np.where(up, -t1, t0), np.where(up, -above, below))

        def density(t, owner):
            # x = e^t by libm's pow, as _power takes it; 64 nodes at a time keep the arrays small.
            x, owner = np.float_power(math.e, t).ravel(), np.repeat(owner, t.shape[1])
            states = bounds[owner] - x[:, None] * coefs[:, j]
            got = np.hstack([np.array(inner(states[a:a + 64], floor[owner[a:a + 64]]))
                             for a in range(0, len(x), 64)])
            return (alpha * _power(x, -alpha) * got).reshape(2, *t.shape)

        means, errors = np.where(fails, 0.0, head)
        _rules(*NESTED, state[piece], np.where(up[piece], -hi, lo), np.where(up[piece], -lo, hi),
               _power(top, -alpha) * head, density, means, errors, budget)
        return means, errors

    return outer


@_float64_range
def nu_m_j_rect(
    coeffs: CoefficientSeq,
    m: int,
    alpha: float,
    j: int,
    rect: UpperRect,
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

    One :func:`_cover_counts` sweep gives the spike cover number (below
    j + 1: +inf) and the covering tuple count (more than :data:`MAX_TUPLES`
    raise :class:`UnsupportedError`, none gives 0).  A first walk, a chunk
    of tuples at a time, sums the masses and counts the drawn tuples that
    read one member and those that read more, and raises once a count
    passes :data:`MAX_QUADRATURE_TUPLES` or :data:`MAX_NESTED_TUPLES`.  With
    none drawn the sum is the value, an enumeration; otherwise a second walk
    integrates each drawn tuple, in lexicographic order, by :func:`_quadrature`
    or :func:`_nested`, a quadrature whose stderr is the root sum of squared
    errors; the nested rules raise once they pass :data:`MAX_NESTED_NODES` in
    all, or a level's vertex systems :data:`MAX_VERTEX_SYSTEMS`.
    """
    if m == 0 and coeffs.order == 0 and coeffs.psi(0) == 1.0:  # no cover search
        return mu_j_rect(j, alpha, rect)
    if j == 0:
        return nu_m0_rect(coeffs, m, alpha, rect)
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
            yield _floors(alpha, thresholds, weights[tuples])

    total, drawn = 0.0, [0, 0]
    for floors in floored():
        # Members that hold an open constraint: c and the read ones.
        involved = (floors[1] & floors[3][:, None, :]).any(axis=2).sum(axis=1)
        drawn[0] += int(np.count_nonzero(involved == 2))
        drawn[1] += int(np.count_nonzero(involved > 2))
        for count, limit, what in zip(drawn, (MAX_QUADRATURE_TUPLES, MAX_NESTED_TUPLES),
                                      ("one member", "two or more members")):
            if count > limit:
                raise UnsupportedError(f"more than {limit} drawn spike tuples read {what}")
        for value in floors[0].tolist():
            total += value
    if not any(drawn):
        return MeasureValue(total, EvalMethod.ENUMERATION)
    total = var_total = 0.0
    budget = _Budget()
    for floors in floored():
        values, variances = _contributions(alpha, thresholds, floors, budget)
        for value, variance in zip(values.tolist(), variances.tolist()):
            total += value
            var_total += variance
    return MeasureValue(total, EvalMethod.QUADRATURE, stderr=math.sqrt(var_total))


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


@_float64_range
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
