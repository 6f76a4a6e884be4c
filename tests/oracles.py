"""Shared independent oracles and random fixtures for the test suite.

Everything here deliberately avoids the library's own computational paths:
the quadrature oracle integrates on a deterministic grid, the convolution
oracle is a double loop, the cover oracle is exhaustive search, the
tuple-stream root restates the README's spawn rule, the
order-0 oracle checks every spike position's coverage one by one, the
pair-integral oracle takes one member's acceptance length in closed form
under a 1-D midpoint rule, the one-member oracle integrates the conditional
score over the read member's survival under a midpoint rule, the
simulation oracle draws each replicate block whole before summing its
lags, the crude tuple-integral reference draws every tuple with a shared
constraint, counts hits and walks all combinations, the conditional ones integrate one member out one sample at
a time (on the shifted lattice, or on i.i.d. draws), the truncation
reference scans depths one by one, the per-level table runs one
independent scan, with its own simulation, per tail level, the sample
text reference formats each CSV line with Python's ``%r``, and the Hill
reference sorts the whole sample.  One
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


def tuple_contribution(coeffs, alpha, rect, positions, covers, budget, seed, rank):
    """(value, variance) of one tuple's integral through the library's own
    path, not an oracle: the tuple given by its positions and cover bitmasks
    (bit p: rect.indices[p]), a one-tuple chunk of
    ``limit_measures._contributions`` integrated on sub-stream ``rank``."""
    weights = np.array([[coeffs.psi(k - i) if cover >> p & 1 else 0.0
                         for p, k in enumerate(rect.indices)]
                        for i, cover in zip(positions, covers)])
    thresholds = np.array(rect.thresholds)
    floors = limit_measures._floors(alpha, thresholds, weights[None])
    values, variances = limit_measures._contributions(
        alpha, thresholds, floors, budget, seed, lambda t: rank)
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


def korobov_multiplier(n):
    """The integer in [1, n) nearest n / phi that is coprime to n (1 when n = 1)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    return min((k for k in range(1, n) if math.gcd(k, n) == 1),
               key=lambda k: abs(k - n / phi), default=1)


def conditional_tuple_reference(coeffs, alpha, rect, positions, covers, budget, seed, rank):
    """(value, variance) of one tuple's integral with one member integrated out
    on 16 random shifts of a rank-1 lattice, restated one point at a time.

    With no shared constraint open (see :func:`conditional_plan`) the value
    is the exact mass.  Otherwise sub-stream ``rank`` draws a (16, r) array
    of shifts; shift s visits the n = ceil(budget / 16) points
    u_i = frac(i z / n + shift_s), z = (1, a, a^2, ..) mod n with a the
    :func:`korobov_multiplier`, each coordinate folded by the baker's
    (tent) transform to the survival |2u - 1| and read as the Pareto value
    |2u - 1|^(-1/alpha), inf at u = 1/2.  The value is mass times the mean
    of the 16 shift means, the variance mass^2 times their sample variance
    over 16.
    """
    plan = conditional_plan(coeffs, rect, positions, covers)
    lower, open_, _, read = plan
    mass = float(np.prod(np.array(lower) ** -alpha))
    if not open_:
        return mass, 0.0
    n = -(-budget // 16)
    a = korobov_multiplier(n)
    z = [pow(a, p, n) for p in range(len(read))]
    means = []
    for shift in block_generator(seed, rank).random((16, len(read))).tolist():
        scores = []
        for i in range(n):
            row = []
            for zk, delta in zip(z, shift):
                u = i * zk % n / n + delta
                if u >= 1.0:
                    u -= 1.0
                survival = abs(2.0 * u - 1.0)
                row.append(survival ** (-1.0 / alpha) if survival else math.inf)
            scores.append(float(conditional_score(coeffs, alpha, positions, plan, row)))
        means.append(math.fsum(scores) / n)
    mean = math.fsum(means) / 16
    variance = math.fsum((x - mean) ** 2 for x in means) / 15 / 16
    return mass * mean, mass**2 * variance


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


def iid_conditional_reference(coeffs, alpha, rect, positions, covers, budget, seed, rank):
    """(value, variance) of one tuple's integral with one member integrated
    out on i.i.d. draws: the read members as one ``(budget, r)`` Pareto draw
    from sub-stream ``rank``, each row scored by :func:`conditional_score`;
    the variance is mass^2 times the scores' population variance over budget."""
    plan = conditional_plan(coeffs, rect, positions, covers)
    lower, open_, _, read = plan
    mass = float(np.prod(np.array(lower) ** -alpha))
    if not open_:
        return mass, 0.0
    sample = draw(TailModel.standard_pareto(alpha), block_generator(seed, rank), (budget, len(read)))
    scores = np.array([conditional_score(coeffs, alpha, positions, plan, row)
                       for row in sample.tolist()])
    return mass * float(scores.mean()), mass**2 * float(scores.var()) / budget


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


def tuple_stream_root(seed):
    """The root whose sub-stream r the tuple of rank r draws from, as the README
    states it: the first 64-bit word of ``SeedSequence(seed, spawn_key=(2^32 - 1,))``."""
    return int(np.random.SeedSequence(seed, spawn_key=(2**32 - 1,)).generate_state(1, np.uint64)[0])


def nu_m_j_rect_reference(coeffs, m, alpha, j, rect, budget, seed):
    """(value, stderr) of the order-j tuple integral by crude hit counting:
    every covering tuple, summed in rank order."""
    total = var_total = 0.0
    for rank, combo, covers in covering_tuples(coeffs, m, j, rect):
        value, variance = tuple_contribution_reference(
            coeffs, alpha, rect, combo, covers, budget, seed, rank
        )
        total += value
        var_total += variance
    return total, math.sqrt(var_total)


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
