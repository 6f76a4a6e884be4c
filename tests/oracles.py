"""Shared independent oracles and random fixtures for the test suite.

Everything here deliberately avoids the library's own computational paths:
the quadrature oracle integrates on a deterministic grid, the convolution
oracle is a double loop, the cover oracle is exhaustive search, the
order-0 oracle checks every spike position's coverage one by one, the
pair-integral oracle takes one member's acceptance length in closed form
under a 1-D midpoint rule, the one-member oracles integrate the conditional
score over the read member's survival under a midpoint rule, or over its
value by mpmath's tanh-sinh rule at 30 digits, the importance references
integrate it over the read members' log-values on scipy's scrambled Sobol
points, the log-grid oracle takes a two-read tuple's score on a midpoint
grid of both log-values, the simulation oracle draws each replicate block whole before
summing its lags, the crude tuple-integral reference draws every tuple with
a shared constraint and counts hits, the truncation reference scans depths
one by one, the per-level table runs one independent scan, with its own
simulation, per tail level, the sample text reference formats each CSV line
with Python's ``%r``, and the Hill reference sorts the whole sample.  One
helper is a seam, not an oracle: ``tuple_contribution`` reaches a single
tuple through the library's own chunk functions.
"""

import itertools
import math

import numpy as np

from matails import WindowSeq, ZERO, hrv_scan, limit_measures
from matails.innovations import ParetoFamily, TailModel, block_generator, draw


def random_window(rng) -> WindowSeq:
    """Random finitely supported sequence, sometimes zero, sometimes sparse."""
    width = int(rng.integers(0, 7))
    if width == 0:
        return ZERO
    lo = int(rng.integers(-8, 9))
    values = rng.uniform(0.0, 3.0, width)
    values[rng.random(width) < 0.3] = 0.0
    return WindowSeq(lo, tuple(values))


def dyadic_window(rng) -> WindowSeq:
    """Random window with dyadic values, exact under binary64 arithmetic."""
    width = int(rng.integers(1, 6))
    lo = int(rng.integers(-6, 7))
    vals = rng.integers(0, 64, width) / 16.0
    return WindowSeq(lo, tuple(vals))


def tm_oracle(coeffs, m, z) -> WindowSeq:
    """Direct double-loop lag-map convolution."""
    if z.is_zero:
        return ZERO
    vals = [
        sum(coeffs.psi(j) * z.value_at(k - j) for j in range(m + 1))
        for k in range(z.lo, z.hi + m + 1)
    ]
    return WindowSeq(z.lo, tuple(vals))


def coverage(coeffs, m, rect, i):
    return {k for k in rect.indices if 0 <= k - i <= m and coeffs.psi(k - i) > 0}


def cover_oracle(coeffs, m, rect):
    """Exhaustive search for the smallest covering spike set, each position's
    coverage taken once before the search."""
    needed = set(rect.indices)
    reach = [cov for i in range(rect.min_index - m, rect.max_index + 1)
             if (cov := coverage(coeffs, m, rect, i))]
    for r in range(1, len(needed) + 1):
        for combo in itertools.combinations(reach, r):
            if set().union(*combo) == needed:
                return r
    return float("inf")


def m0_oracle(coeffs, m, alpha, rect):
    """Order-0 MA(m) value: a per-position coverage loop summed left to right."""
    needed = set(rect.indices)
    total = 0.0
    for i in range(rect.min_index - m, rect.max_index + 1):
        if coverage(coeffs, m, rect, i) == needed:
            total += max(a / coeffs.psi(k - i) for k, a in rect.constraints) ** -alpha
    return total


def order1_quadrature(coeffs, m, alpha, rect, grid=1500):
    """Deterministic tensor-grid quadrature of the two-spike integral.

    Substituting u = z^-alpha turns each Pareto-tail factor into Lebesgue
    measure on a bounded interval; the integral becomes the area of the
    acceptance region, computed on a midpoint grid.
    """
    thresholds = dict(rect.constraints)
    needed = set(rect.indices)
    cands = [
        i
        for i in range(rect.min_index - m, rect.max_index + 1)
        if coverage(coeffs, m, rect, i)
    ]
    total = 0.0
    for i1, i2 in itertools.combinations(cands, 2):
        cov1, cov2 = coverage(coeffs, m, rect, i1), coverage(coeffs, m, rect, i2)
        if cov1 | cov2 != needed:
            continue
        lows = []
        for i, cov, other in ((i1, cov1, cov2), (i2, cov2, cov1)):
            private = [thresholds[k] / coeffs.psi(k - i) for k in cov if k not in other]
            lows.append(max(private))
        u_hi = [low**-alpha for low in lows]
        u1 = (np.arange(grid) + 0.5) / grid * u_hi[0]
        u2 = (np.arange(grid) + 0.5) / grid * u_hi[1]
        z1, z2 = u1 ** (-1 / alpha), u2 ** (-1 / alpha)
        ok = np.ones((grid, grid), dtype=bool)
        for k in needed:
            p1 = coeffs.psi(k - i1) if 0 <= k - i1 <= m else 0.0
            p2 = coeffs.psi(k - i2) if 0 <= k - i2 <= m else 0.0
            ok &= p1 * z1[:, None] + p2 * z2[None, :] > thresholds[k]
        total += ok.sum() * (u_hi[0] / grid) * (u_hi[1] / grid)
    return total


def pair_integral(coeffs, m, alpha, rect, nodes=10**6):
    """The two-spike integral: per covering pair, a midpoint rule over the
    first member's u = z^-alpha in (0, L_1^-alpha], and the second
    member's acceptance length in closed form.

    Given z_1, the second member must exceed its floor L_2 and, on each
    constraint both reach, (a_k - psi_1 z_1) / psi_2; the u-length of that
    set is max(L_2, need)^-alpha.  The integrand is bounded and continuous
    in u, so the error falls as nodes^-2: about 1e-13 at 10^6 nodes on the
    alpha = 1 rows of the tests, where the 1500-point tensor grid of
    :func:`order1_quadrature` is off by up to 2e-6.
    """
    thresholds = dict(rect.constraints)
    total = 0.0
    for _, (i1, i2), _ in covering_tuples(coeffs, m, 1, rect):
        cov1, cov2 = coverage(coeffs, m, rect, i1), coverage(coeffs, m, rect, i2)
        low1 = max(thresholds[k] / coeffs.psi(k - i1) for k in cov1 - cov2)
        low2 = max(thresholds[k] / coeffs.psi(k - i2) for k in cov2 - cov1)
        u_hi = low1**-alpha
        z1 = ((np.arange(nodes) + 0.5) * (u_hi / nodes)) ** (-1.0 / alpha)
        need = np.full(nodes, low2)
        for k in cov1 & cov2:
            np.maximum(need, (thresholds[k] - coeffs.psi(k - i1) * z1) / coeffs.psi(k - i2), out=need)
        total += float(np.sum(need**-alpha)) * (u_hi / nodes)
    return total


def libm_power(x, p):
    """``x ** p`` as the library takes an array's power: libm's ``pow``, or
    numpy's at p = -1; neither depends on numpy's CPU dispatch."""
    return x ** -1.0 if p == -1.0 else np.float_power(x, p)


def simulate_oracle(coeffs, depth, model, window, replicates, seed, block_rows):
    """Whole-block simulation: each block's ``(depth + width, rows)`` innovations
    are drawn in one array (``1 - random()``, then the closed-form inverse
    survival), reversed to oldest first, and summed lag by lag."""
    k_lo, k_hi = window
    width = k_hi - k_lo + 1
    psi = coeffs.psi_array(depth)
    out = np.empty((replicates, width))
    for block, start in enumerate(range(0, replicates, block_rows)):
        rows = min(block_rows, replicates - start)
        u = 1.0 - block_generator(seed, block).random((depth + width, rows))
        power = libm_power(u, -1.0 / model.alpha)
        if model.family is ParetoFamily.STANDARD:
            z = model.scale * power
        else:
            z = model.scale * (power - 1.0)
        z = z[::-1]
        acc = np.zeros((width, rows))
        for j in range(depth + 1):
            if psi[j] != 0.0:
                acc += psi[j] * z[depth - j: depth - j + width]
        out[start:start + rows] = acc.T
    return out


def tuple_contribution(coeffs, alpha, rect, positions, covers):
    """(value, variance) of one tuple's integral through the library's own
    path, not an oracle: the tuple given by its positions and cover bitmasks
    (bit p: rect.indices[p]), a one-tuple chunk of
    ``limit_measures._contributions``."""
    weights = np.array([[coeffs.psi(k - i) if cover >> p & 1 else 0.0
                         for p, k in enumerate(rect.indices)]
                        for i, cover in zip(positions, covers)])
    thresholds = np.array(rect.thresholds)
    values, variances = limit_measures._contributions(
        alpha, thresholds, limit_measures._floors(alpha, thresholds, weights[None]),
        limit_measures._Budget())
    return float(values[0]), float(variances[0])


def tuple_contribution_reference(coeffs, alpha, rect, positions, covers, budget, seed, rank):
    """(value, variance) of one tuple's integral with numpy floors and no pruning:
    every tuple with a shared constraint draws its ``(budget, d)`` Pareto
    sample from sub-stream ``rank`` and tests each shared constraint."""
    d = len(positions)
    lower = np.zeros(d)
    shared = []
    for p, (k, a) in enumerate(rect.constraints):
        holders = [idx for idx in range(d) if covers[idx] >> p & 1]
        if len(holders) == 1:
            idx = holders[0]
            lower[idx] = max(lower[idx], a / coeffs.psi(k - positions[idx]))
        else:
            shared.append((k, a, holders))
    assert np.all(lower > 0), "tuple member without a private constraint"
    mass = float(np.prod(libm_power(lower, -alpha)))
    if not shared:
        return mass, 0.0
    z = lower * draw(TailModel.standard_pareto(alpha), block_generator(seed, rank), (budget, d))
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


def conditional_plan(coeffs, rect, positions, covers):
    """(lower, open constraints, c, read) of one tuple under the conditional rule.

    Each member's floor is the largest a_k / psi_k over its private
    constraints.  Shared constraints whose floor (the members' floors
    weighted by psi, added in member order) exceeds the threshold are
    dropped; the rest stay open as (k, a, holders).  With some left open,
    the member c with the largest sum of psi L_c over the open constraints
    it holds (lowest index on ties) is integrated out, and the other
    members that hold an open constraint, in member order, are read; with
    none open, c is None and nothing is read.
    """
    d = len(positions)
    lower = [0.0] * d
    shared = []
    for p, (k, a) in enumerate(rect.constraints):
        holders = [idx for idx in range(d) if covers[idx] >> p & 1]
        if len(holders) == 1:
            idx = holders[0]
            lower[idx] = max(lower[idx], a / coeffs.psi(k - positions[idx]))
        else:
            shared.append((k, a, holders))
    open_ = [(k, a, holders) for k, a, holders in shared
             if not sum(coeffs.psi(k - positions[h]) * lower[h] for h in holders) > a]
    if not open_:
        return lower, open_, None, []
    pull = [sum(coeffs.psi(k - positions[idx]) * lower[idx]
                for k, _, holders in open_ if idx in holders)
            for idx in range(d)]
    c = max(range(d), key=lambda idx: (pull[idx], -idx))
    read = [idx for idx in range(d)
            if idx != c and any(idx in holders for _, _, holders in open_)]
    return lower, open_, c, read


def conditional_score(coeffs, alpha, positions, plan, values):
    """One sample's conditional score: ``values`` are the read members'
    Pareto values (above 1, inf allowed), in read order, or arrays of them
    scored elementwise; the score is (max(L_c, need) / L_c)^-alpha, need
    being the largest (a_k - rest_k) / psi_k over the open constraints c
    holds, times the indicators of the open constraints c does not hold."""
    lower, open_, c, read = plan

    def w(k, idx):
        return coeffs.psi(k - positions[idx])

    z = {h: lower[h] * x for h, x in zip(read, values)}
    need, hit = lower[c], True
    for k, a, holders in open_:
        rest = sum(w(k, h) * z[h] for h in holders if h != c)
        if c in holders:
            need = np.maximum(need, (a - rest) / w(k, c))
        else:
            hit = hit & (rest > a)
    return (need / lower[c]) ** -alpha * hit


def one_member_integral(coeffs, m, alpha, j, rect, nodes=10**6):
    """The order-j tuple integral when every drawn tuple reads one member:
    per covering tuple, its mass times, if some shared constraint stays
    open (see :func:`conditional_plan`), the midpoint rule over the read
    member's survival u in (0, 1) of :func:`conditional_score` at the Pareto
    value u^(-1/alpha).  Without indicators the score is continuous and
    piecewise smooth in u, so the error falls as nodes^-2."""
    x = ((np.arange(nodes) + 0.5) / nodes) ** (-1.0 / alpha)
    total = 0.0
    for _, positions, covers in covering_tuples(coeffs, m, j, rect):
        plan = conditional_plan(coeffs, rect, positions, covers)
        lower, open_, _, read = plan
        mass = float(np.prod(np.array(lower) ** -alpha))
        if open_:
            assert len(read) == 1, "a drawn tuple reads more than one member"
            mass *= float(np.mean(conditional_score(coeffs, alpha, positions, plan, [x])))
        total += mass
    return total


def one_member_tuple(coeffs, alpha, rect, positions, covers):
    """One drawn tuple's integral when it reads one member r, by mpmath's
    tanh-sinh rule at 30 digits over r's own value z above its floor L_r.

    Every open constraint k is then held by c and r; given z, c must exceed
    need_k = (a_k - w_r z) / w_c, with conditional probability
    (max(L_c, need) / L_c)^-alpha, which is 1 from z* = max_k (a_k - w_c L_c)
    / w_r on.  So the tuple's value is its mass times (z* / L_r)^-alpha plus
    the integral over (L_r, z*) of that probability against the Pareto
    density alpha L_r^alpha z^(-alpha-1), cut where two needs cross or one
    meets L_c."""
    import mpmath

    plan = conditional_plan(coeffs, rect, positions, covers)
    lower, open_, c, read = plan
    (r,) = read
    mass = math.prod(low**-alpha for low in lower)

    def w(k, idx):
        return coeffs.psi(k - positions[idx])

    lines = [(a / w(k, c), w(k, r) / w(k, c)) for k, a, _ in open_]  # need = b - s z
    low_c, low_r = lower[c], lower[r]
    top = max((b - low_c) / s for b, s in lines)
    cuts = [(b - low_c) / s for b, s in lines]
    cuts += [(b1 - b2) / (s1 - s2) for (b1, s1), (b2, s2) in itertools.combinations(lines, 2)
             if s1 != s2]
    edges = sorted({low_r, top, *(z for z in cuts if low_r < z < top)})

    def density(z):
        need = max(low_c, *(b - s * z for b, s in lines))
        return alpha * low_r**alpha * z ** (-alpha - 1.0) * (need / low_c) ** -alpha

    if not top > low_r:
        return mass
    with mpmath.workdps(30):
        body = mpmath.quad(density, [mpmath.mpf(z) for z in edges])
        return mass * float((mpmath.mpf(top) / low_r) ** -alpha + body)


def importance_tuple_reference(coeffs, alpha, rect, positions, covers, points, seed):
    """(value, variance) of one tuple's integral with one member integrated
    out (see :func:`conditional_plan`) and the read members drawn by
    importance: each read member's log-value t from the exponential of
    rate alpha / 2 by scipy's scrambled Sobol points, its score weighted by
    the density ratio 2 e^(-alpha t / 2) (at most 2, so the variance is
    finite), which reaches far into the tail where thin regions lie.  32
    independent scrambles of ``points`` points (a power of 2) from
    ``seed``; the variance is that of their mean (31 degrees of freedom,
    so a gap of 4 stderr is rare noise)."""
    from scipy.stats import qmc

    plan = conditional_plan(coeffs, rect, positions, covers)
    lower, open_, _, read = plan
    mass = float(np.prod(np.array(lower) ** -alpha))
    if not open_:
        return mass, 0.0
    means = []
    for scramble in range(32):
        u = qmc.Sobol(len(read), rng=np.random.default_rng([seed, scramble])).random(points)
        t = -np.log1p(-u) * (2.0 / alpha)
        weight = np.prod(2.0 * np.exp(-0.5 * alpha * t), axis=1)
        means.append(float(np.mean(weight * conditional_score(coeffs, alpha, positions, plan, list(np.exp(t).T)))))
    return mass * float(np.mean(means)), mass**2 * float(np.var(means, ddof=1)) / len(means)


def importance_row_reference(coeffs, m, alpha, j, rect, points=2**12, seed=0):
    """(value, stderr) of an order-j row: every covering tuple's
    :func:`importance_tuple_reference`, summed in rank order."""
    total = var_total = 0.0
    for rank, positions, covers in covering_tuples(coeffs, m, j, rect):
        value, variance = importance_tuple_reference(coeffs, alpha, rect, positions, covers, points,
                                                     [seed, rank])
        total += value
        var_total += variance
    return total, math.sqrt(var_total)


def log_grid_tuple(coeffs, alpha, rect, positions, covers, top=3.0, nodes=4000):
    """One drawn tuple's integral when it reads two members, by the midpoint
    rule on a ``nodes`` x ``nodes`` grid of their log-values t in (0, top),
    against the density alpha^2 e^(-alpha (t_1 + t_2)), a block of rows at
    a time.  Blind to nothing the density reaches, however thin, but the
    indicators' edges cut cells, so the error falls only as 1 / nodes."""
    plan = conditional_plan(coeffs, rect, positions, covers)
    lower, _, _, read = plan
    assert len(read) == 2, "the tuple does not read two members"
    mass = math.prod(low**-alpha for low in lower)
    t = (np.arange(nodes) + 0.5) * (top / nodes)
    total = 0.0
    for start in range(0, nodes, 256):
        outer = t[start:start + 256, None]
        score = conditional_score(coeffs, alpha, positions, plan, [np.exp(outer), np.exp(t)[None]])
        total += float(np.sum(alpha**2 * np.exp(-alpha * (outer + t[None])) * score))
    return mass * total * (top / nodes) ** 2


def covering_tuples(coeffs, m, j, rect):
    """(rank, positions, covers) per (j+1)-combination of influencing positions
    that covers K; ``rank`` counts every combination, covering or not, in
    lexicographic order, and bit p of a cover is ``rect.indices[p]``."""
    needed = set(rect.indices)
    reach = {i: coverage(coeffs, m, rect, i) for i in range(rect.min_index - m, rect.max_index + 1)}
    cands = [i for i, cov in reach.items() if cov]
    for rank, combo in enumerate(itertools.combinations(cands, j + 1)):
        sets = [reach[i] for i in combo]
        if set().union(*sets) != needed:
            continue
        covers = [sum(1 << p for p, k in enumerate(rect.indices) if k in cov) for cov in sets]
        yield rank, combo, covers


def truncation_scan(coeffs, eps):
    """First depth whose tail bound drops below ``eps``, scanned one depth at a time."""
    n = 0
    while coeffs.tail_sum_bound(n) >= eps:
        n += 1
    return n


def per_level_table(coeffs, m, model, rows, n, t_grid, seed, **scan_options):
    """(t, row) pairs from one :func:`hrv_scan` per tail level, level ti on
    the root seed spawned from ``seed`` with key ti: every level simulates
    its own windows and evaluates every row's theory again."""
    out = []
    for ti, t in enumerate(t_grid):
        state = np.random.SeedSequence(seed, spawn_key=(ti,)).generate_state(2, np.uint64)
        level_seed = int(state[0])
        out.extend((t, row) for row in hrv_scan(coeffs, m, model, rows, n, t, level_seed,
                                                 **scan_options))
    return out


def hill_reference(values, k) -> float:
    """Hill's estimate from a full sort: k / sum_{i<=k} log(X_(n-i+1) / X_(n-k))."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    log_spacings = np.log(xs[n - k:]) - math.log(xs[n - k - 1])
    return k / float(np.sum(log_spacings))


def sample_text_reference(ids, indices, values) -> str:
    """Sample-file CSV lines from one ``"%d,%d,%r\\n"`` template per cell: the
    round-trip repr that csv.writer writes for a float."""
    cells = zip(np.asarray(ids).tolist(), np.asarray(indices).tolist(), np.asarray(values).tolist())
    return ("%d,%d,%r\n" * len(values)) % tuple(itertools.chain.from_iterable(cells))
