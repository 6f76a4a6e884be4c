"""Acceptance suite: one test per release criterion, with a printed verdict.

The limit statements are asymptotic, so the Monte Carlo criteria run at
fixed desk-scale (t, n) with standard-error tolerances; every run is
seeded, so the verdicts are reproducible.  Run with ``pytest -s`` to see
the one-line summaries.
"""

import math
import time

import numpy as np
from oracles import dyadic_window, order1_quadrature, random_window

from matails import (
    INFINITE,
    ExplicitFinite,
    Geometric,
    TailModel,
    UpperRect,
    apply_Tm,
    block_generator,
    continuity_modulus,
    dist,
    draw,
    empirical_tail_measure,
    hill,
    marginal_tail_constant,
    mu_j_rect,
    nu_inf_0_rect,
    nu_m0_rect,
    nu_m_j_rect,
    scale,
    simulate,
    spike,
    truncation_diagnostic,
)
from matails.sequence_space import WindowSeq, ZERO

PARETO1 = TailModel.standard_pareto(1.0)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def test_c1_ma2_marginal_tail():
    # psi = [1, 0.5, 0.25], alpha = 1, n = 1e6, t = 1e3:
    # t P[X_0 > b(t) x] must match 1.75 x^-1 within 3 stderr for x in {1, 2}.
    start = time.time()
    coeffs = ExplicitFinite([1.0, 0.5, 0.25])
    batch = simulate(coeffs, 2, PARETO1, (0, 0), 10**6, seed=1001)
    details = []
    ok = True
    for x in (1.0, 2.0):
        est = empirical_tail_measure(batch, PARETO1, 1e3, 1.0, UpperRect({0: x}))
        want = marginal_tail_constant(coeffs, 1.0) / x
        ok &= abs(est.value - want) <= 3 * est.stderr
        details.append(f"x={x:g}: {est.value:.4f} vs {want:.4f} (3se={3 * est.stderr:.4f})")
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    report("C1 ma(2) marginal", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_c2_iid_hidden_pair():
    # MA(0), alpha = 1, 1e7 replicate pairs, t = 1e3, scaling b(sqrt(t)):
    # the hidden pair measure of {z_0 > 1, z_1 > 1} equals 1.0 within 0.05.
    start = time.time()
    batch = simulate(ExplicitFinite([1.0]), 0, PARETO1, (0, 1), 10**7, seed=1002)
    est = empirical_tail_measure(batch, PARETO1, 1e3, 0.5, UpperRect({0: 1.0, 1: 1.0}))
    elapsed = time.time() - start
    ok = abs(est.value - 1.0) <= 0.05 and elapsed < 300.0
    report(
        "C2 iid hidden pair",
        ok,
        f"{est.value:.4f} vs 1.0 (tol 0.05, count={est.count}); {elapsed:.1f}s",
    )


def test_c3_ma1_hidden_order_oracle_equivalence():
    # psi = [1, 0.5], alpha = 1, rect {0:1, 2:1}: the end-to-end estimate at
    # scaling b(sqrt(t)) must match the tuple-integral value within 3
    # combined stderr, and that value must match an independent 2-D
    # quadrature within 1% relative.  t and n are free; hidden-order
    # convergence is slow for alpha = 1 (relative bias ~ log(s)/s at
    # s = sqrt(t)), so t is taken large and n keeps the count moderate.
    rect = UpperRect({0: 1.0, 2: 1.0})
    coeffs = ExplicitFinite([1.0, 0.5])
    theo = nu_m_j_rect(coeffs, 1, 1.0, 1, rect)
    quad = order1_quadrature(coeffs, 1, 1.0, rect)
    quad_ok = abs(theo.value - quad) <= 0.01 * quad
    batch = simulate(coeffs, 1, PARETO1, (0, 2), 40_000_000, seed=1003)
    est = empirical_tail_measure(batch, PARETO1, 2e5, 0.5, rect)
    combined = math.hypot(est.stderr, theo.stderr or 0.0)  # no draws: an enumeration, no stderr
    end_ok = abs(est.value - theo.value) <= 3 * combined

    # supplementary: a rectangle whose coupled constraint genuinely binds
    bind = UpperRect({0: 1.0, 1: 5.0, 2: 1.0})
    mc_bind = nu_m_j_rect(coeffs, 1, 1.0, 1, bind)
    quad_bind = order1_quadrature(coeffs, 1, 1.0, bind)
    bind_ok = abs(mc_bind.value - quad_bind) <= 0.01 * quad_bind

    report(
        "C3 ma(1) hidden order",
        end_ok and quad_ok and bind_ok,
        f"empirical {est.value:.4f} vs integral {theo.value:.4f} "
        f"(3se={3 * combined:.4f}); quadrature {quad:.4f}; "
        f"binding case {mc_bind.value:.4f} vs {quad_bind:.4f}",
    )


def test_c4_infinite_order_marginal():
    # Geometric rho = 0.5, alpha = 1, truncation tolerance 1e-8:
    # t P[X_0 > b(t)] must match sum rho^l = 2 within 3 stderr at t = 1e3.
    g = Geometric(0.5)
    batch = simulate(g, INFINITE, PARETO1, (0, 0), 10**6, seed=1004, trunc_eps=1e-8)
    est = empirical_tail_measure(batch, PARETO1, 1e3, 1.0, UpperRect({0: 1.0}))
    theo = nu_inf_0_rect(g, 1.0, UpperRect({0: 1.0}), 1e-8)
    ok = abs(est.value - 2.0) <= 3 * est.stderr
    report(
        "C4 ma(inf) marginal",
        ok,
        f"{est.value:.4f} vs 2.0 (3se={3 * est.stderr:.4f}, "
        f"enum {theo.value:.8f}+-{theo.truncation_error_bound:.1e}, "
        f"depth {batch.truncation_order})",
    )


def test_c5_truncation_diagnostic_decay():
    # The tail-mass diagnostic must be below 0.01 at depth 20 and sit three
    # sigma below its depth-0 value.
    g = Geometric(0.5)
    n, t = 10**6, 1e3
    v0 = truncation_diagnostic(g, PARETO1, 0, t, 1.0, n, seed=1005)
    v20 = truncation_diagnostic(g, PARETO1, 20, t, 1.0, n, seed=1006)
    se = lambda v: t * math.sqrt(max(v * n / t, 1.0)) / n
    small_ok = v20 < 0.01
    sep_ok = v20 + 3 * se(v20) < v0 - 3 * se(v0)
    report(
        "C5 truncation diagnostic",
        small_ok and sep_ok,
        f"depth 20: {v20:.6f} (<0.01), depth 0: {v0:.4f}, 3-sigma separated",
    )


def test_c6a_metric_axioms_and_bound():
    rng = np.random.default_rng(60)
    checked = 0
    for _ in range(10_000):
        x, y, z = (random_window(rng) for _ in range(3))
        dxy = dist(x, y)
        assert dxy == dist(y, x)
        assert 0.0 <= dxy <= 1.5
        assert dist(x, z) <= dxy + dist(y, z) + 1e-12
        assert (dxy == 0.0) == (x == y)
        checked += 1
    report("C6a metric axioms", True, f"{checked} random triples, bound 3/2, exact symmetry")


def test_c6b_lag_map_linearity_exact():
    rng = np.random.default_rng(61)
    coeffs = ExplicitFinite([1.0, 0.5, 0.25, 0.75])
    for _ in range(10_000):
        x, y = dyadic_window(rng), dyadic_window(rng)
        a = float(rng.integers(1, 64)) / 16.0
        b = float(rng.integers(1, 64)) / 16.0
        m = int(rng.integers(0, 4))
        lhs = apply_Tm(coeffs, m, scale(x, a) + scale(y, b))
        rhs = scale(apply_Tm(coeffs, m, x), a) + scale(apply_Tm(coeffs, m, y), b)
        assert lhs == rhs
    report("C6b lag-map linearity", True, "10000 dyadic cases, exact equality")


def test_c6c_uniform_continuity_modulus():
    rng = np.random.default_rng(62)
    cases = 0
    for eps, m in ((0.5, 0), (0.5, 2), (0.1, 1), (0.1, 3), (0.02, 1)):
        coeffs = ExplicitFinite([1.0, 0.5, 0.25, 0.125][: m + 1])
        delta, big_m = continuity_modulus(coeffs, m, eps)
        reach = big_m + m + 8
        for _ in range(2_000):
            x = dyadic_window(rng)
            y = x
            n_pert = int(rng.integers(1, 5))
            for frac in rng.dirichlet(np.ones(n_pert)) * 0.95 * delta:
                idx = int(rng.choice([
                    rng.integers(-reach, reach + 1),
                    big_m + m - 1,
                    -(big_m + m - 1),
                    big_m + m + 3,
                ]))
                gap = frac * 2.0 ** (abs(idx) + 1)
                if gap > 0:
                    y = y + WindowSeq(idx, (gap,))
            assert dist(x, y) < delta
            assert dist(apply_Tm(coeffs, m, x), apply_Tm(coeffs, m, y)) < eps
            cases += 1
    report("C6c continuity modulus", True, f"{cases} adversarial pairs across (eps, m) grid")


def test_c6d_evaluator_homogeneity():
    rng = np.random.default_rng(63)
    lambdas = (0.5, 2.0, 10.0)
    coeffs = ExplicitFinite([1.0, 0.5])
    # closed forms at machine precision
    for _ in range(200):
        ks = rng.choice(np.arange(-2, 5), size=2, replace=False)
        rect = UpperRect({int(k): float(rng.uniform(0.5, 3.0)) for k in ks})
        alpha = float(rng.uniform(0.5, 2.5))
        for lam in lambdas:
            mu, mu_l = mu_j_rect(1, alpha, rect), mu_j_rect(1, alpha, rect.scaled(lam))
            assert math.isclose(mu_l.value, lam ** (-2 * alpha) * mu.value, rel_tol=1e-12)
            n0 = nu_m0_rect(coeffs, 1, alpha, rect)
            n0_l = nu_m0_rect(coeffs, 1, alpha, rect.scaled(lam))
            assert math.isclose(n0_l.value, lam**-alpha * n0.value, rel_tol=1e-12)
            ni = nu_inf_0_rect(Geometric(0.5), alpha, rect, 1e-10)
            ni_l = nu_inf_0_rect(Geometric(0.5), alpha, rect.scaled(lam), 1e-10)
            assert math.isclose(ni_l.value, lam**-alpha * ni.value, rel_tol=1e-12)
    # the binding pair's quadrature within its errors
    bind = UpperRect({0: 1.0, 1: 5.0, 2: 1.0})
    base = nu_m_j_rect(coeffs, 1, 1.0, 1, bind)
    for lam in lambdas:
        scaled = nu_m_j_rect(coeffs, 1, 1.0, 1, bind.scaled(lam))
        rescaled = scaled.value * lam**2
        tol = 3 * math.hypot(base.stderr, scaled.stderr * lam**2)
        assert abs(rescaled - base.value) <= tol
    report("C6d evaluator homogeneity", True,
           "closed forms at 1e-12, quadrature within 3 stderr, lambda in {0.5, 2, 10}")


def test_c6e_iid_measure_reductions():
    rng = np.random.default_rng(64)
    for _ in range(500):
        j = int(rng.integers(0, 4))
        n_k = int(rng.integers(1, 6))
        ks = rng.choice(np.arange(-4, 8), size=n_k, replace=False)
        rect = UpperRect({int(k): float(rng.uniform(0.25, 4.0)) for k in ks})
        alpha = float(rng.uniform(0.5, 2.0))
        got = mu_j_rect(j, alpha, rect)
        if n_k < j + 1:
            assert got.is_infinite
        elif n_k > j + 1:
            assert got.value == 0.0
        else:
            want = 1.0
            for a in rect.thresholds:
                want *= a**-alpha
            assert math.isclose(got.value, want, rel_tol=1e-12)
    report("C6e iid reductions", True,
           "product form at |K|=j+1, zero beyond, +inf flag below; 500 cases")


def test_c7_hill_sanity():
    # 1e5 standard Pareto(1.5) samples, k = 1000: the estimate must land in
    # [1.35, 1.65] in at least 95 of 100 seeded runs.
    model = TailModel.standard_pareto(1.5)
    hits = 0
    for s in range(100):
        zs = draw(model, block_generator(s), 100_000)
        hits += 1.35 <= hill(zs, 1000) <= 1.65
    ok = hits >= 95
    report("C7 hill sanity", ok, f"{hits}/100 runs inside [1.35, 1.65]")
