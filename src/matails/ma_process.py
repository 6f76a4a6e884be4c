"""Moving-average processes with heavy-tailed innovations.

A coefficient sequence ``psi`` (finite list, geometric decay, or polynomial
decay) drives the lag map

    (T^m z)_k = sum_{j=0}^{m} psi_j z_{k-j},

applied either to deterministic window sequences (:func:`apply_Tm`) or to
i.i.d. innovation streams in batch form (:func:`simulate`).  The infinite-
order process is simulated as an MA(N) with ``N`` chosen so the neglected
coefficient mass is below a tolerance (:func:`choose_truncation`);
:func:`truncation_diagnostic` measures the tail probability contributed by
the lags beyond a given depth, which must vanish as the depth grows.

Summability requirements on ``psi`` are certified analytically per family,
never numerically: a finite computation cannot certify convergence of a
series.  See :func:`check_assumptions`.

Replicates are generated in fixed-size blocks with per-block Philox
sub-streams (see :mod:`matails.innovations`), so results are reproducible
and independent of how many workers process the blocks.  Every block is
drawn as a (length, rows) array, newest index first, and the lag sum runs
on that drawn layout; only the audit view :func:`innovation_matrix`
transposes it to one row per replicate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

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
    "choose_truncation",
    "continuity_modulus",
    "SimulationBatch",
    "innovation_matrix",
    "simulate",
    "truncation_diagnostic",
]

INFINITE = math.inf

# Rows per Philox sub-stream; fixed so output never depends on worker count.
BLOCK_ROWS = 1 << 20

# Relative coefficient-mass tolerances: the default truncation of the
# infinite-order process, and the "effectively exact" depth used as the
# reference in truncation diagnostics.
DEFAULT_TRUNC_FACTOR = 1e-8
DEEP_TAIL_FACTOR = 1e-12


class CoefficientSeq:
    """Nonnegative lag coefficients with closed-form summability data.

    Subclasses expose ``psi(j)`` for every ``j >= 0`` plus exact values (or
    +inf) for the coefficient sums needed by the limit-measure formulas.
    ``psi(0) > 0`` is required and enforced at construction.
    """

    def psi(self, j: int) -> float:
        raise NotImplementedError

    def psi_array(self, m: int) -> np.ndarray:
        """psi_0 .. psi_m as a vector."""
        return np.array([self.psi(j) for j in range(m + 1)], dtype=float)

    def sum_psi(self) -> float:
        """S = sum of all coefficients; +inf when divergent."""
        raise NotImplementedError

    def sum_psi_power(self, p: float) -> float:
        """sum_j psi_j^p in closed form; +inf when divergent."""
        raise NotImplementedError

    def tail_sum_bound(self, n: int, p: float = 1.0) -> float:
        """Upper bound on sum_{j>n} psi_j^p (exact where a closed form exists)."""
        raise NotImplementedError

    @property
    def order(self) -> int | None:
        """Largest lag with a nonzero coefficient, or None for infinite support."""
        return None

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
        if not all(v >= 0 for v in vals):
            raise ParameterError("coefficients must be nonnegative")
        while vals and vals[-1] == 0.0:
            vals = vals[:-1]
        object.__setattr__(self, "values", vals)

    def psi(self, j: int) -> float:
        return self.values[j] if 0 <= j < len(self.values) else 0.0

    def sum_psi(self) -> float:
        return float(sum(self.values))

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

    def sum_psi(self) -> float:
        return 1.0 / (1.0 - self.rho)

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

    def sum_psi(self) -> float:
        return float(zeta(self.beta)) if self.beta > 1.0 else math.inf

    def sum_psi_power(self, p: float) -> float:
        bp = self.beta * p
        return float(zeta(bp)) if bp > 1.0 else math.inf

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
    if coeffs.psi(0) <= 0.0:
        raise AssumptionError("leading coefficient psi_0 must be positive")
    return AssumptionReport(
        a2_delta=coeffs.summability_exponent(alpha),
        sum_psi=coeffs.sum_psi(),
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


def choose_truncation(coeffs: CoefficientSeq, eps: float | None = None) -> int:
    """Smallest certifiable N with sum_{j>N} psi_j < eps.

    ``eps`` defaults to ``1e-8`` times the coefficient mass S, the tolerance
    every truncated computation uses unless told otherwise.  Finite families
    return their own order regardless of eps.  For the decaying families
    the N is the first depth whose analytic tail bound drops below eps, so
    the guarantee is sound even though the polynomial bound is not tight.
    """
    if eps is None:
        eps = DEFAULT_TRUNC_FACTOR * coeffs.sum_psi()
    if not eps > 0:
        raise ParameterError(f"tolerance must be positive, got {eps}")
    if coeffs.order is not None:
        return coeffs.order
    if not math.isfinite(coeffs.sum_psi()):
        raise UnsupportedError("coefficient series diverges; no truncation depth exists")
    n = 0
    while coeffs.tail_sum_bound(n) >= eps:
        n += 1
    return n


def continuity_modulus(coeffs: CoefficientSeq, m: int, eps: float) -> tuple[float, int]:
    """A (delta, M) pair witnessing uniform continuity of the lag map.

    Derivation: pick M with tail weight 2^(1-M) < eps/2; on |i| < M the
    output gap is at most S_m times the input sup-gap over |l| < M + m,
    and the metric caps that sup-gap at d(x, y) * 2^(M+m).  Requiring
    S_m * gap * (3/2) < eps/2 gives delta below; whenever d(x, y) < delta,
    d(T^m x, T^m y) < eps.
    """
    if eps <= 0:
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


def _innovation_block(model: TailModel, seed: int, block: int, rows: int, length: int) -> np.ndarray:
    """Innovations for one replicate block as drawn, shape (length, rows).

    Row 0 holds the newest index and is drawn first, so a deeper lag window
    (larger ``length``) appends rows without disturbing the values already
    drawn: the two runs share one innovation stream per replicate.
    """
    return draw(model, block_generator(seed, block), (length, rows))


def innovation_matrix(model: TailModel, seed: int, replicates: int, length: int) -> np.ndarray:
    """Full innovation matrix a simulation run consumes, for stream audits.

    Row r holds the ``length`` innovations of replicate r (drawn from the
    sub-stream of block ``r // BLOCK_ROWS``), oldest index in column 0.  A
    window simulation on [k_lo, k_hi] at lag depth N uses length
    ``k_hi - k_lo + 1 + N`` with column c holding Z_{k_lo - N + c}.  This
    is the transpose of the drawn blocks reversed in time, so any simulated
    value can be recomputed from here, and matrices of different depths
    agree on their shared (rightmost) columns.
    """
    out = np.empty((replicates, length), dtype=float)
    for block, start, rows in _blocks(replicates):
        out[start:start + rows] = _innovation_block(model, seed, block, rows, length)[::-1].T
    return out


class SimulationBatch:
    """Replicated process windows as a dense (replicates x width) array.

    Column w of :attr:`matrix` is the process at index ``lo + w``; row r is
    replicate r.
    """

    def __init__(self, lo: int, matrix: np.ndarray, truncation_order: int):
        self.lo = lo
        self.matrix = matrix
        self.truncation_order = truncation_order

    def window(self, r: int) -> WindowSeq:
        """Replicate ``r`` as a window sequence."""
        return WindowSeq(self.lo, tuple(self.matrix[r]))


def _resolve_depth(coeffs: CoefficientSeq, m, trunc_eps: float | None) -> int:
    """Lag depth actually simulated: m itself, capped at the finite order,
    or the truncation depth for the infinite-order process."""
    if m == INFINITE:
        return choose_truncation(coeffs, trunc_eps)
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ParameterError(f"order must be a nonnegative integer or INFINITE, got {m}")
    if coeffs.order is not None:
        return min(int(m), coeffs.order)
    return int(m)


def simulate(
    coeffs: CoefficientSeq,
    m,
    model: TailModel,
    window: tuple[int, int],
    replicates: int,
    seed: int,
    trunc_eps: float | None = None,
    threads: int = 1,
) -> SimulationBatch:
    """Simulate ``replicates`` independent copies of the process on a window.

    ``window`` is the inclusive index interval [k_lo, k_hi]; ``m`` is the
    moving-average order or :data:`INFINITE`.  Each replicate draws the
    innovations Z_{k_lo - N} .. Z_{k_hi} (N = resolved lag depth) from its
    block's sub-stream.  Blocks run on a pool of ``threads`` workers; the
    output is deterministic in ``seed`` and identical for any ``threads``.
    """
    k_lo, k_hi = window
    if k_lo > k_hi:
        raise ParameterError(f"window is empty: {window}")
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates}")
    if not threads > 0:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    depth = _resolve_depth(coeffs, m, trunc_eps)
    width = k_hi - k_lo + 1
    length = width + depth
    psi = coeffs.psi_array(depth)
    out = np.empty((replicates, width), dtype=float)

    def run_block(block: int, start: int, rows: int) -> None:
        # Oldest index first: row c holds Z_{k_lo - depth + c} for every replicate.
        z = _innovation_block(model, seed, block, rows, length)[::-1]
        acc = np.zeros((width, rows), dtype=float)
        for j in range(depth + 1):
            if psi[j] != 0.0:
                acc += psi[j] * z[depth - j: depth - j + width]
        out[start:start + rows] = acc.T

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda b: run_block(*b), _blocks(replicates)))
    return SimulationBatch(k_lo, out, depth)


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
    truncated simulation is sound.
    """
    if N < 0:
        raise ParameterError(f"depth must be nonnegative, got {N}")
    if x <= 0:
        raise ParameterError(f"level must be positive, got {x}")
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates}")
    deep = choose_truncation(coeffs, DEEP_TAIL_FACTOR * coeffs.sum_psi())
    if N >= deep:
        return 0.0
    # Lag deep pairs with the first-drawn row, lag N+1 with the last.
    tail_psi = np.array([coeffs.psi(j) for j in range(deep, N, -1)])
    threshold = model.quantile_b(t) * x
    count = 0
    for block, _, rows in _blocks(replicates):
        z = _innovation_block(model, seed, block, rows, len(tail_psi))
        count += int(np.count_nonzero(tail_psi @ z > threshold))
    return t * count / replicates
