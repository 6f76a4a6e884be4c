"""Moving-average processes with heavy-tailed innovations.

A coefficient sequence ``psi`` (finite list, geometric decay, or polynomial
decay) drives the lag map

    (T^m z)_k = sum_{j=0}^{m} psi_j z_{k-j},

applied either to deterministic window sequences (:func:`apply_Tm`) or to
i.i.d. innovation streams in batch form (:func:`simulate`).  The infinite-
order process is simulated as an MA(N) with ``N`` chosen so the neglected
coefficient mass is below a tolerance (:func:`choose_truncation`);
:func:`truncation_diagnostic` measures the tail probability contributed by
the lags beyond a given depth, which must vanish as the depth grows.  No
computation builds more than :data:`MAX_DEPTH` lags: a deeper psi vector,
simulation or diagnostic raises :class:`UnsupportedError` before allocating.

Summability requirements on ``psi`` are certified analytically per family,
never numerically: a finite computation cannot certify convergence of a
series (:func:`check_assumptions`).  Polynomial sums are zeta(beta p), by
in-package Euler-Maclaurin summation to within about 1 ulp.

Replicates are generated in fixed-size blocks with per-block Philox
sub-streams (see :mod:`matails.innovations`), so results are reproducible
and independent of how many workers run.  A block's innovations form one
(length, rows) draw, newest index first.  The one block kernel runs tiles
of at most :data:`TILE_ROWS` replicates, each seeking its lag rows in the
block's stream, so memory grows with neither the block nor the lag depth.
:func:`simulate_tiles` streams the tiles in replicate order, at most one
per worker ahead of its consumer: :func:`simulate` stores them or counts
exceedances of given constraint sets, and a caller that writes or reduces
each tile as it comes never holds the replicate matrix.  The audit view
:func:`innovation_matrix` is the order-0 simulation, one row per replicate.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import AssumptionError, ParameterError, UnsupportedError
from .innovations import TailModel, block_generator, draw
from .sequence_space import ZERO, WindowSeq

__all__ = [
    "INFINITE",
    "CoefficientSeq",
    "ExplicitFinite",
    "Geometric",
    "Polynomial",
    "AssumptionReport",
    "check_assumptions",
    "apply_Tm",
    "MAX_DEPTH",
    "MAX_DRAWS",
    "choose_truncation",
    "resolve_depth",
    "continuity_modulus",
    "SimulationBatch",
    "innovation_matrix",
    "simulate",
    "simulate_tiles",
    "truncation_diagnostic",
]

INFINITE = math.inf

# Rows per Philox sub-stream; fixed so output never depends on worker count.
BLOCK_ROWS = 1 << 20

# Replicates per tile task, the unit of work and of worker memory.
TILE_ROWS = 1 << 16

# Most innovations one simulation draws (replicates times lag rows): hours of work.
MAX_DRAWS = 10**10

# Relative coefficient-mass tolerances: the default truncation of the
# infinite-order process, and the "effectively exact" depth used as the
# reference in truncation diagnostics.
DEFAULT_TRUNC_FACTOR = 1e-8
DEEP_TAIL_FACTOR = 1e-12

# Largest lag depth any computation builds: the psi vector, the order-0
# enumeration's position arrays and the simulated lag sums all grow with it.
MAX_DEPTH = 1_000_000

# Above 2^53 consecutive depths are no longer distinct floats, so no tail
# bound can tell them apart.
_EXACT_DEPTH_LIMIT = 2**53

# Euler-Maclaurin weights B_2k / (2k)!, k = 1 .. 7; at N = 12 the B_16 term is < 4e-18.
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
               -691 / 1307674368000, 1 / 74724249600)


def _zeta(s: float) -> float:
    """Riemann zeta(s) for real s > 1 by Euler-Maclaurin summation (DLMF 25.2(iii)):
    sum_{k<12} k^-s + 12^(1-s)/(s-1) + 12^-s/2 + B_2 .. B_14 corrections, in one fsum."""
    if s >= 64.0:
        # zeta(s) - 1 < 2^-63 rounds away; this also keeps s = inf out of inf * 0.
        return 1.0
    n = 12
    terms = [k**-s for k in range(1, n)] + [n ** (1.0 - s) / (s - 1.0), 0.5 * n**-s]
    x = s * n ** (-s - 1.0)  # s (s+1) ... (s+2k-2) n^(1-s-2k) at k = 1
    for k, w in enumerate(_EM_WEIGHTS, start=1):
        terms.append(w * x)
        x *= (s + 2 * k - 1) * (s + 2 * k) / n**2
    return math.fsum(terms)


class CoefficientSeq:
    """Nonnegative lag coefficients with closed-form summability data.

    Subclasses expose ``psi(j)`` for every ``j >= 0`` plus exact values (or
    +inf) for the coefficient sums needed by the limit-measure formulas.
    ``psi(0) > 0`` is required and enforced at construction.
    """

    def psi(self, j: int) -> float:
        raise NotImplementedError

    def psi_array(self, m: int) -> np.ndarray:
        """psi_0 .. psi_m as a read-only vector, bit for bit ``psi(j)``;
        ``m`` must be within :data:`MAX_DEPTH`.  The last few vectors are
        cached by family and depth, so callers share them."""
        return _psi_vector(self, _check_depth(m))

    def _psi_values(self, m: int) -> Iterable[float]:
        """psi_0 .. psi_m one by one, the family's own arithmetic."""
        return map(self.psi, range(m + 1))

    def sum_psi_power(self, p: float) -> float:
        """sum_j psi_j^p in closed form (p = 1: the mass S); +inf when divergent."""
        raise NotImplementedError

    def tail_sum_bound(self, n: int, p: float = 1.0) -> float:
        """Upper bound on sum_{j>n} psi_j^p (exact where a closed form exists)."""
        raise NotImplementedError

    @property
    def order(self) -> int | None:
        """Largest lag with a nonzero coefficient, or None for infinite support."""
        return None

    def capped(self, m: int) -> int:
        """``m`` capped at the order: lags past it have psi = 0 and reach nothing."""
        return m if self.order is None else min(m, self.order)

    def summability_exponent(self, alpha: float) -> float | None:
        """An exponent delta < min(alpha, 1) with sum psi^delta finite, if one exists."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitFinite(CoefficientSeq):
    """Explicit finite coefficient list; trailing zeros are trimmed."""

    values: tuple[float, ...]

    def __init__(self, values):
        vals = tuple(float(v) for v in values)
        if not vals or not vals[0] > 0.0:
            raise AssumptionError("leading coefficient psi_0 must be positive")
        if not all(0.0 <= v < math.inf for v in vals):
            raise ParameterError("coefficients must be finite and nonnegative")
        while vals and vals[-1] == 0.0:
            vals = vals[:-1]
        object.__setattr__(self, "values", vals)

    def psi(self, j: int) -> float:
        return self.values[j] if 0 <= j < len(self.values) else 0.0

    def sum_psi_power(self, p: float) -> float:
        return float(sum(v**p for v in self.values if v > 0))

    def tail_sum_bound(self, n: int, p: float = 1.0) -> float:
        return float(sum(v**p for v in self.values[max(n + 1, 0):] if v > 0))

    @property
    def order(self) -> int | None:
        return len(self.values) - 1

    def summability_exponent(self, alpha: float) -> float | None:
        return 0.5 * min(alpha, 1.0)


@dataclass(frozen=True)
class Geometric(CoefficientSeq):
    """psi_j = rho^j for a ratio rho in (0, 1)."""

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ParameterError(f"geometric ratio must lie in (0, 1), got {self.rho}")

    def psi(self, j: int) -> float:
        return self.rho**j if j >= 0 else 0.0

    def _psi_values(self, m: int) -> Iterable[float]:
        return map(pow, itertools.repeat(self.rho), range(m + 1))

    def sum_psi_power(self, p: float) -> float:
        return 1.0 / (1.0 - self.rho**p)

    def tail_sum_bound(self, n: int, p: float = 1.0) -> float:
        # Exact: sum_{j>n} rho^(jp) = rho^((n+1)p) / (1 - rho^p).
        r = self.rho**p
        return r ** (n + 1) / (1.0 - r)

    def summability_exponent(self, alpha: float) -> float | None:
        return 0.5 * min(alpha, 1.0)


@dataclass(frozen=True)
class Polynomial(CoefficientSeq):
    """psi_j = (j + 1)^-beta for a decay rate beta > 0."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ParameterError(f"decay rate must be positive, got {self.beta}")

    def psi(self, j: int) -> float:
        return float(j + 1) ** -self.beta if j >= 0 else 0.0

    def _psi_values(self, m: int) -> Iterable[float]:
        return map(pow, map(float, range(1, m + 2)), itertools.repeat(-self.beta))

    def sum_psi_power(self, p: float) -> float:
        bp = self.beta * p
        return _zeta(bp) if bp > 1.0 else math.inf

    def tail_sum_bound(self, n: int, p: float = 1.0) -> float:
        # Integral comparison: sum_{j>n} (j+1)^-bp <= (n+1)^(1-bp)/(bp-1).
        bp = self.beta * p
        if bp <= 1.0:
            return math.inf
        return float(n + 1) ** (1.0 - bp) / (bp - 1.0)

    def summability_exponent(self, alpha: float) -> float | None:
        # sum (j+1)^(-beta*delta) converges iff beta*delta > 1.
        cap = min(alpha, 1.0)
        if self.beta <= 1.0 / cap:
            return None
        return 0.5 * (1.0 / self.beta + cap)


@dataclass(frozen=True)
class AssumptionReport:
    """Certificates and coefficient sums for one (psi, alpha) pair."""

    a2_delta: float | None
    sum_psi: float
    sum_psi_alpha: float


def check_assumptions(coeffs: CoefficientSeq, alpha: float) -> AssumptionReport:
    """Certify the summability assumptions analytically and report the sums."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not coeffs.psi(0) > 0.0:
        raise AssumptionError("leading coefficient psi_0 must be positive")
    return AssumptionReport(
        a2_delta=coeffs.summability_exponent(alpha),
        sum_psi=coeffs.sum_psi_power(1.0),
        sum_psi_alpha=coeffs.sum_psi_power(alpha),
    )


def apply_Tm(coeffs: CoefficientSeq, m: int, z: WindowSeq) -> WindowSeq:
    """Lag map: (T^m z)_k = sum_{j<=m} psi_j z_{k-j}, windowed on [z.lo, z.hi + m]."""
    if m < 0:
        raise ParameterError(f"order must be nonnegative, got {m}")
    if z.is_zero:
        return ZERO
    out = np.convolve(np.asarray(z.values, dtype=float), coeffs.psi_array(m))
    return WindowSeq(z.lo, tuple(out))


@functools.lru_cache(maxsize=4)
def _psi_vector(coeffs: CoefficientSeq, m: int) -> np.ndarray:
    # Python's pow, as psi(j) takes it: numpy's vector power can differ in
    # the last place.
    out = np.fromiter(coeffs._psi_values(m), dtype=float, count=m + 1)
    out.flags.writeable = False
    return out


def _check_depth(depth: int) -> int:
    """``depth`` itself, or :class:`UnsupportedError` when it exceeds :data:`MAX_DEPTH`."""
    if depth > MAX_DEPTH:
        raise UnsupportedError(
            f"lag depth {depth} exceeds the depth budget of {MAX_DEPTH} lags"
            " (a larger trunc_eps or a smaller order gives a shallower depth)"
        )
    return depth


def choose_truncation(coeffs: CoefficientSeq, eps: float | None = None) -> int:
    """Smallest certifiable N with sum_{j>N} psi_j < eps.

    ``eps`` defaults to ``1e-8`` times the coefficient mass S, the tolerance
    every truncated computation uses unless told otherwise.  Finite families
    return their own order regardless of eps.  For the decaying families
    the N is the first depth whose analytic tail bound drops below eps, so
    the guarantee is sound even though the polynomial bound is not tight.
    The depth doubles from 0 until the bound drops below eps, then a
    bisection between the last two depths finds the first crossing: at most
    about 106 bound evaluations, however deep.  The depth is not checked
    against :data:`MAX_DEPTH` here, only where it is built; a depth beyond
    2^53 raises :class:`UnsupportedError`.
    """
    if eps is None:
        eps = DEFAULT_TRUNC_FACTOR * coeffs.sum_psi_power(1.0)
    if not eps > 0:
        raise ParameterError(f"tolerance must be positive, got {eps}")
    if coeffs.order is not None:
        return coeffs.order
    if not math.isfinite(coeffs.sum_psi_power(1.0)):
        raise UnsupportedError("coefficient series diverges; no truncation depth exists")
    bound = coeffs.tail_sum_bound
    lo, hi = -1, 0
    while bound(hi) >= eps:
        if hi >= _EXACT_DEPTH_LIMIT:
            raise UnsupportedError(f"tolerance {eps!r} needs a truncation depth beyond 2^53 lags")
        lo, hi = hi, min(2 * hi + 1, _EXACT_DEPTH_LIMIT)
    # Invariant: bound(hi) < eps, and lo = -1 or bound(lo) >= eps.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) < eps:
            hi = mid
        else:
            lo = mid
    return hi


def continuity_modulus(coeffs: CoefficientSeq, m: int, eps: float) -> tuple[float, int]:
    """A (delta, M) pair witnessing uniform continuity of the lag map.

    Derivation: pick M with tail weight 2^(1-M) < eps/2; on |i| < M the
    output gap is at most S_m times the input sup-gap over |l| < M + m,
    and the metric caps that sup-gap at d(x, y) * 2^(M+m).  Requiring
    S_m * gap * (3/2) < eps/2 gives delta below; whenever d(x, y) < delta,
    d(T^m x, T^m y) < eps.
    """
    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    s_m = float(np.sum(coeffs.psi_array(m)))
    big_m = 1
    while 2.0 ** (1 - big_m) >= eps / 2.0:
        big_m += 1
    delta = 0.5 * min(1.0, eps / (3.0 * s_m)) * 2.0 ** -(big_m + m)
    return delta, big_m


def _blocks(replicates: int):
    """(block, start, rows) of each fixed-size replicate block, in order."""
    for block, start in enumerate(range(0, replicates, BLOCK_ROWS)):
        yield block, start, min(BLOCK_ROWS, replicates - start)


def innovation_matrix(model: TailModel, seed: int, replicates: int, length: int) -> np.ndarray:
    """Full innovation matrix a simulation run consumes, for stream audits.

    Row r holds the ``length`` innovations of replicate r (drawn from the
    sub-stream of block ``r // BLOCK_ROWS``), oldest index in column 0.  A
    window simulation on [k_lo, k_hi] at lag depth N uses length
    ``k_hi - k_lo + 1 + N`` with column c holding Z_{k_lo - N + c}.  It is
    the order-0 simulation of the window [0, length - 1], whose column c
    is Z_c itself, so any simulated value can be recomputed from here, and
    matrices of different depths agree on their shared (rightmost) columns.
    """
    return simulate(ExplicitFinite([1.0]), 0, model, (0, length - 1), replicates, seed).matrix


class SimulationBatch:
    """Replicated process windows on [lo, lo + width), ``shape = (replicates, width)``.

    A stored batch holds the dense :attr:`matrix`: column w is the process
    at index ``lo + w``, row r is replicate r.  A counted batch (from
    ``simulate(..., count=...)``) keeps only :attr:`counts`, the number of
    replicates inside each requested constraint set, and its matrix is None.
    """

    def __init__(self, lo: int, matrix: np.ndarray | None, truncation_order: int,
                 counts: dict | None = None, shape: tuple[int, int] | None = None):
        self.lo = lo
        self.matrix = matrix
        self.truncation_order = truncation_order
        self.counts = counts
        self.shape = matrix.shape if matrix is not None else shape

    def count(self, constraints) -> int:
        """Replicates strictly above every ``(column, threshold)`` pair of ``constraints``."""
        if self.matrix is None:
            return self.counts[constraints]
        return _exceedances(self.matrix.T, constraints)

    def window(self, r: int) -> WindowSeq:
        """Replicate ``r`` as a window sequence (stored batches only)."""
        return WindowSeq(self.lo, tuple(self.matrix[r]))


def _exceedances(columns: np.ndarray, constraints) -> int:
    """Rows of a (width, rows) array strictly above every (column, threshold) pair."""
    mask = np.ones(columns.shape[1], dtype=bool)
    for col, threshold in constraints:
        mask &= columns[col] > threshold
    return int(np.count_nonzero(mask))


def resolve_depth(coeffs: CoefficientSeq, m, trunc_eps: float | None) -> int:
    """Lag depth actually simulated: m itself, capped at the finite order,
    or the truncation depth for the infinite-order process; checked
    against :data:`MAX_DEPTH`."""
    if m == INFINITE:
        depth = choose_truncation(coeffs, trunc_eps)
    elif not isinstance(m, (int, np.integer)) or m < 0:
        raise ParameterError(f"order must be a nonnegative integer or INFINITE, got {m}")
    else:
        depth = coeffs.capped(int(m))
    return _check_depth(depth)


def simulate_tiles(
    coeffs: CoefficientSeq,
    m,
    model: TailModel,
    window: tuple[int, int],
    replicates: int,
    seed: int,
    trunc_eps: float | None = None,
    threads: int = 1,
    reduce: Callable[[int, np.ndarray], object] | None = None,
) -> tuple[int, Iterator[tuple[int, object]]]:
    """Check a simulation, then stream it tile by tile: ``(depth, tiles)``.

    ``window`` is the inclusive index interval [k_lo, k_hi]; ``m`` is the
    moving-average order or :data:`INFINITE`.  Each replicate draws the
    innovations Z_{k_hi}, Z_{k_hi - 1}, .., Z_{k_lo - N} (N = ``depth``,
    the resolved lag depth) from its block's sub-stream: lag row i of block
    replicate r is the stream's double ``i * rows + r``.  A task takes a
    tile of at most :data:`TILE_ROWS` replicates of one block, draws its lag
    rows at those offsets and adds each into the tile's ``(width, n)`` sums,
    lags in the order j = 0, 1, ...  A worker holds about ``(width + 2) *
    TILE_ROWS * 8`` bytes, whatever the depth or the replicate count.

    An empty window, fewer than one replicate or thread, a depth over
    :data:`MAX_DEPTH` or more than :data:`MAX_DRAWS` innovations raise
    here, before anything is allocated.  ``tiles`` yields ``(start, sums)``
    in replicate order, or ``(start, reduce(start, sums))`` computed on the
    worker; no worker starts before it is read, and the ``threads`` workers
    run at most ``threads`` tiles ahead of it.  Closing it early waits for
    the running tiles.  Tiles are identical for any ``threads``.
    """
    k_lo, k_hi = window
    if k_lo > k_hi:
        raise ParameterError(f"window is empty: {window}")
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates}")
    if not threads > 0:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    depth = resolve_depth(coeffs, m, trunc_eps)
    width = k_hi - k_lo + 1
    length = width + depth
    if replicates * length > MAX_DRAWS:
        raise UnsupportedError(f"simulation needs {replicates * length} innovation draws "
                               f"({replicates} replicates x {length} lag rows), above the limit "
                               f"of {MAX_DRAWS} (use fewer replicates or a shallower depth)")
    psi = coeffs.psi_array(depth)

    def run_tile(block: int, start: int, rows: int, c0: int, n: int) -> tuple[int, object]:
        acc = np.zeros((width, n), dtype=float)
        row, term = np.empty((2, n), dtype=float)
        for i in range(length):
            draw(model, block_generator(seed, block, i * rows + c0), n, out=row)
            # Row i holds Z_{k_hi - i}; it feeds column w at lag
            # j = i - (width - 1 - w), in the order j = 0, 1, ..
            for w in range(max(0, width - 1 - i), min(width, width + depth - i)):
                j = i - (width - 1 - w)
                if psi[j] != 0.0:
                    np.multiply(psi[j], row, out=term)
                    acc[w] += term
        start += c0
        return start, acc if reduce is None else reduce(start, acc)

    tiles = ((block, start, rows, c0, min(TILE_ROWS, rows - c0))
             for block, start, rows in _blocks(replicates) for c0 in range(0, rows, TILE_ROWS))
    return depth, _ordered(run_tile, tiles, threads)


def _ordered(run, tasks, threads: int):
    """``run(*task)`` of each task in task order, run on ``threads`` workers:
    while the consumer holds one result, the next ``threads`` tasks run."""
    from concurrent.futures import ThreadPoolExecutor  # here: what never simulates never loads it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = collections.deque()
        for task in tasks:
            ahead.append(pool.submit(run, *task))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def simulate(
    coeffs: CoefficientSeq,
    m,
    model: TailModel,
    window: tuple[int, int],
    replicates: int,
    seed: int,
    trunc_eps: float | None = None,
    threads: int = 1,
    count: list | None = None,
) -> SimulationBatch:
    """Simulate ``replicates`` independent copies of the process on a window.

    The arguments, checks and draws are those of :func:`simulate_tiles`.
    Without ``count`` each worker copies its tile into the stored
    ``(replicates, width)`` matrix.  With ``count``, a sequence of
    constraint sets (tuples of ``(column, threshold)`` pairs), nothing is
    stored: each tile counts its replicates strictly above every pair of
    each set, and the batch holds the totals; an empty ``count`` runs no
    tile.  The output is identical for any ``threads``.
    """
    def store(start, acc):
        out[:, start:start + acc.shape[1]] = acc

    def counts(start, acc):
        return [_exceedances(acc, c) for c in count]

    depth, tiles = simulate_tiles(coeffs, m, model, window, replicates, seed, trunc_eps,
                                  threads, store if count is None else counts)
    k_lo, k_hi = window
    shape = (replicates, k_hi - k_lo + 1)
    if count is None:
        out = np.empty(shape[::-1], dtype=float)  # allocated only once the checks have passed
        collections.deque(tiles, maxlen=0)
        return SimulationBatch(k_lo, out.T, depth)
    per_tile = [tile_counts for _, tile_counts in tiles] if count else []
    totals = [sum(tile_counts) for tile_counts in zip(*per_tile)]
    return SimulationBatch(k_lo, None, depth, dict(zip(count, totals)), shape)


def truncation_diagnostic(
    coeffs: CoefficientSeq,
    model: TailModel,
    N: int,
    t: float,
    x: float,
    replicates: int,
    seed: int,
) -> float:
    """Monte Carlo value of t * P[sum_{j>N} psi_j Z_{-j} > b(t) x].

    The tail is represented by the lags N+1 .. N_deep, where N_deep carries
    all but a 1e-12 relative fraction of the coefficient mass (for a finite
    sequence, its order); deeper lags are negligible against Monte Carlo
    noise.  Decay of this value to 0 as N grows is the certificate that
    truncated simulation is sound, and :func:`simulate` draws it, so
    memory does not grow with the reference depth.  A reference depth
    beyond :data:`MAX_DEPTH` raises :class:`UnsupportedError` before any draw.
    """
    if N < 0:
        raise ParameterError(f"depth must be nonnegative, got {N}")
    if not x > 0:
        raise ParameterError(f"level must be positive, got {x}")
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates}")
    deep = choose_truncation(coeffs, DEEP_TAIL_FACTOR * coeffs.sum_psi_power(1.0))
    if N >= deep:
        return 0.0
    _check_depth(deep)
    # Lag deep pairs with the first-drawn row, lag N+1 with the last.
    tail = ExplicitFinite(coeffs.psi(j) for j in range(deep, N, -1))
    exceeds = ((0, model.quantile_b(t) * x),)
    batch = simulate(tail, deep - N - 1, model, (0, 0), replicates, seed, count=[exceeds])
    return t * batch.count(exceeds) / replicates
