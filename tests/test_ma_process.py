import math
import sys
import threading
import time

import numpy as np
import pytest

import matails.ma_process as ma
from matails import (
    INFINITE,
    AssumptionError,
    ExplicitFinite,
    Geometric,
    ParameterError,
    Polynomial,
    TailModel,
    UnsupportedError,
    WindowSeq,
    apply_Tm,
    block_generator,
    check_assumptions,
    choose_truncation,
    cone_label,
    continuity_modulus,
    dist,
    draw,
    exceedance_count,
    innovation_matrix,
    scale,
    simulate,
    spike,
    truncation_diagnostic,
)
from matails.cli import main
from matails.ma_process import simulate_tiles
from matails.sequence_space import ZERO
from oracles import dyadic_window, simulate_oracle, tm_oracle, truncation_scan

PARETO1 = TailModel.standard_pareto(1.0)


class TestCoefficientFamilies:
    def test_explicit_trims_trailing_zeros(self):
        c = ExplicitFinite([1.0, 0.5, 0.0, 0.0])
        assert c.order == 1
        assert c.psi(1) == 0.5 and c.psi(2) == 0.0 and c.psi(-1) == 0.0

    def test_leading_coefficient_must_be_positive(self):
        with pytest.raises(AssumptionError):
            ExplicitFinite([0.0, 1.0])
        with pytest.raises(AssumptionError):
            ExplicitFinite([])

    def test_negative_coefficient_rejected(self):
        for values in ([1.0, -0.1], [1.0, math.inf], [math.inf]):
            with pytest.raises(ParameterError):
                ExplicitFinite(values)

    def test_geometric_ratio_domain(self):
        for rho in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ParameterError):
                Geometric(rho)

    def test_polynomial_rate_domain(self):
        with pytest.raises(ParameterError):
            Polynomial(0.0)

    def test_psi_array_matches_pointwise(self):
        for coeffs in (ExplicitFinite([1, 0.5, 0.25]), Geometric(0.3), Polynomial(1.7)):
            arr = coeffs.psi_array(9)
            assert np.array_equal(arr, [coeffs.psi(j) for j in range(10)])


class TestPsiVector:
    @pytest.mark.parametrize("coeffs, m", [
        *[(Polynomial(beta), 10**5) for beta in (1.5, 2, 2.95, 3.3)],
        *[(Geometric(rho), 10**5) for rho in (0.3, 0.5, 0.9)],
        (ExplicitFinite([1.0, 0.5, 0.0, 0.25, 0.0, 0.0]), 9),
        (ExplicitFinite([1.0, 0.5, 0.0, 0.25, 0.0, 0.0]), 2),
    ])
    def test_bit_for_bit_the_pointwise_psi(self, coeffs, m):
        # The same Python pow as psi(j); numpy's vector power differs in the
        # last place on some lags.
        arr = coeffs.psi_array(m)
        want = np.array([coeffs.psi(j) for j in range(m + 1)])
        assert arr.shape == (m + 1,)
        assert np.array_equal(arr.view(np.int64), want.view(np.int64))

    def test_read_only_and_shared(self):
        coeffs = Polynomial(2.0)
        arr = coeffs.psi_array(1000)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 2.0
        assert Polynomial(2.0).psi_array(1000) is arr
        assert coeffs.psi_array(999) is not arr

    @pytest.mark.parametrize("family", [Geometric(0.5), Polynomial(2.0)])
    def test_refuses_before_building(self, monkeypatch, family):
        monkeypatch.setattr(type(family), "_psi_values", lambda self, m: pytest.fail("built"))
        with pytest.raises(UnsupportedError, match="depth budget"):
            family.psi_array(ma.MAX_DEPTH + 1)

    def test_limits_builds_the_vector_once_for_its_rows(self, tmp_path, monkeypatch):
        # The three order-0 rows of an MA(inf) config at depth 10^5 share it.
        cfg = tmp_path / "c.ini"
        cfg.write_text("[coefficients]\nfamily = polynomial\nbeta = 2\nm = infinite\n"
                       "trunc_eps = 1e-5\n[tail]\nfamily = standard_pareto\nalpha = 1.0\n"
                       "[rows]\nrow0 = 0; 0:1\nrow1 = 0; 0:1, 1:1\nrow2 = 0; 0:2, 3:1\n")
        built = []
        original = Polynomial._psi_values

        def counting(self, m):
            built.append(m)
            return original(self, m)

        ma._psi_vector.cache_clear()
        monkeypatch.setattr(Polynomial, "_psi_values", counting)
        assert main(["limits", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert built == [100_000]


class TestCheckAssumptions:
    def test_explicit_finite_sums(self):
        rep = check_assumptions(ExplicitFinite([1.0, 0.5, 0.25]), 1.0)
        assert rep.sum_psi == 1.75
        assert rep.sum_psi_alpha == 1.75
        assert rep.a2_delta is not None and rep.a2_delta < 1.0

    def test_geometric_sums(self):
        rep = check_assumptions(Geometric(0.5), 1.0)
        assert rep.sum_psi == 2.0
        assert rep.sum_psi_alpha == 2.0
        assert rep.a2_delta is not None and 0 < rep.a2_delta < 1.0

    def test_slow_polynomial_has_no_certificate(self):
        rep = check_assumptions(Polynomial(0.8), 1.0)
        assert rep.a2_delta is None
        assert math.isinf(rep.sum_psi)

    def test_fast_polynomial_certificate_and_zeta_sums(self):
        rep = check_assumptions(Polynomial(2.0), 0.75)
        # need delta in (1/2, 3/4); the certificate must sit inside it
        assert rep.a2_delta is not None and 0.5 < rep.a2_delta < 0.75
        assert rep.sum_psi == pytest.approx(math.pi**2 / 6, rel=1e-12)
        # bracket the analytic value by a partial sum plus its integral tail
        n = 200_000
        partial = sum((j + 1) ** -1.5 for j in range(n))
        assert partial < rep.sum_psi_alpha < partial + 2.0 / math.sqrt(n)

    def test_alpha_domain(self):
        with pytest.raises(ParameterError):
            check_assumptions(Geometric(0.5), 0.0)


# s in (1, 60]: a run down to 1 + 1e-12, where zeta(s) ~ 1/(s-1), then a uniform grid.
ZETA_GRID = [1.0 + 10.0**-e for e in range(12, 0, -1)] + [
    float(s) for s in np.linspace(1, 60, 1181)[1:]
]


def _depth_by_bracketing(p: Polynomial, eps: float) -> int:
    """Smallest n with p.tail_sum_bound(n) < eps, from the bound's closed-form inverse."""
    d = max(0, math.ceil(((p.beta - 1) * eps) ** (-1 / (p.beta - 1))) - 1)
    while d > 0 and p.tail_sum_bound(d - 1) < eps:
        d -= 1
    while p.tail_sum_bound(d) >= eps:
        d += 1
    return d


class TestZeta:
    @pytest.mark.parametrize(
        "s, exact", [(2.0, math.pi**2 / 6), (4.0, math.pi**4 / 90)], ids=["2", "4"]
    )
    def test_even_closed_forms(self, s, exact):
        assert abs(ma._zeta(s) - exact) <= 2 * math.ulp(exact)

    def test_infinite_decay_rate_sums_to_one(self):
        assert Polynomial(math.inf).sum_psi_power(1.0) == 1.0

    def test_within_2_ulp_of_exact(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(200):
            for s in ZETA_GRID:
                exact = mpmath.zeta(mpmath.mpf(s))
                assert abs(mpmath.mpf(ma._zeta(s)) - exact) <= 2 * math.ulp(float(exact)), s

    def test_agrees_with_scipy(self):
        # scipy's own value is up to ~6 ulp from the exact one below s = 2,
        # so agreement is checked to 8 ulp; accuracy is checked above.
        special = pytest.importorskip("scipy.special")
        for s in ZETA_GRID:
            ref = float(special.zeta(s))
            assert abs(ma._zeta(s) - ref) <= 8 * math.ulp(ref), s

    def test_default_depth_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        for beta in np.linspace(1.75, 60, 2000):
            p = Polynomial(float(beta))
            d = _depth_by_bracketing(p, ma.DEFAULT_TRUNC_FACTOR * float(special.zeta(p.beta)))
            eps = ma.DEFAULT_TRUNC_FACTOR * p.sum_psi_power(1.0)
            assert p.tail_sum_bound(d) < eps, p.beta
            assert d == 0 or eps <= p.tail_sum_bound(d - 1), p.beta
            assert choose_truncation(p) == d, p.beta


class TestApplyTm:
    def test_single_spike_spreads(self):
        out = apply_Tm(ExplicitFinite([1, 0.5]), 1, spike(0, 1.0))
        assert out == WindowSeq(0, (1.0, 0.5))

    def test_zero_maps_to_zero(self):
        assert apply_Tm(Geometric(0.9), 5, ZERO) == ZERO

    def test_two_spike_convolution_frozen(self):
        z = spike(0, 1.0) + spike(1, 1.0)
        out = apply_Tm(ExplicitFinite([1, 0.5]), 1, z)
        assert out == WindowSeq(0, (1.0, 1.5, 0.5))
        assert out == tm_oracle(ExplicitFinite([1, 0.5]), 1, z)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        for coeffs in (ExplicitFinite([1, 0.5, 0.25]), Geometric(0.4), Polynomial(1.3)):
            for _ in range(200):
                z = dyadic_window(rng)
                m = int(rng.integers(0, 5))
                got = apply_Tm(coeffs, m, z)
                want = tm_oracle(coeffs, m, z)
                assert got.lo == want.lo
                assert np.allclose(got.values, want.values, rtol=1e-13, atol=0)

    def test_output_window(self):
        z = WindowSeq(-2, (1.0, 2.0))
        out = apply_Tm(ExplicitFinite([1, 0.5, 0.25]), 2, z)
        assert (out.lo, out.hi) == (-2, 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ParameterError):
            apply_Tm(ExplicitFinite([1.0]), -1, spike(0, 1.0))

    def test_linearity_and_homogeneity_exact_on_dyadics(self):
        # Dyadic values keep every product and sum exact in binary64.
        rng = np.random.default_rng(23)
        coeffs = ExplicitFinite([1.0, 0.5, 0.25, 0.75])
        for _ in range(2000):
            x, y = dyadic_window(rng), dyadic_window(rng)
            a = float(rng.integers(1, 64)) / 16.0
            b = float(rng.integers(1, 64)) / 16.0
            m = int(rng.integers(0, 4))
            lhs = apply_Tm(coeffs, m, scale(x, a) + scale(y, b))
            rhs = scale(apply_Tm(coeffs, m, x), a) + scale(apply_Tm(coeffs, m, y), b)
            assert lhs == rhs


class TestContinuityModulus:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_modulus_is_respected(self, eps, m):
        coeffs = ExplicitFinite([1.0, 0.5, 0.25, 0.125][: m + 1])
        delta, big_m = continuity_modulus(coeffs, m, eps)
        rng = np.random.default_rng(hash((m, int(eps * 100))) % 2**32)
        reach = big_m + m + 8
        for _ in range(500):
            x = dyadic_window(rng)
            # Adversarial budget split: most of the allowed distance lands on
            # few coordinates, including ones just inside and outside the
            # controlled window.
            n_pert = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(n_pert)) * 0.95 * delta
            y = x
            for frac in weights:
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


class TestConeMapping:
    def test_separated_spikes_multiply_count(self):
        rng = np.random.default_rng(5)
        coeffs = ExplicitFinite([1.0, 0.5, 0.25])
        for _ in range(200):
            m = int(rng.integers(0, 3))
            j = int(rng.integers(1, 5))
            positions = np.cumsum(rng.integers(m + 1, m + 5, j)) - 3
            z = ZERO
            for i in positions:
                z = z + spike(int(i), float(rng.uniform(0.5, 2.0)))
            assert cone_label(z) == j
            assert exceedance_count(apply_Tm(coeffs, m, z), 0.0) == (m + 1) * j

    def test_general_upper_bound(self):
        rng = np.random.default_rng(6)
        coeffs = Geometric(0.5)
        for _ in range(200):
            m = int(rng.integers(0, 4))
            j = int(rng.integers(1, 5))
            z = ZERO
            for _ in range(j):
                z = z + spike(int(rng.integers(-4, 5)), float(rng.uniform(0.5, 2.0)))
            got = exceedance_count(apply_Tm(coeffs, m, z), 0.0)
            assert got <= (m + 1) * cone_label(z)


class TestChooseTruncation:
    def test_geometric_example_against_tail_sums(self):
        g = Geometric(0.5)
        assert choose_truncation(g, 1e-3) == 10
        # independent check by direct tail summation
        tail = lambda n: sum(0.5**j for j in range(n + 1, n + 200))
        assert tail(10) < 1e-3 <= tail(9)

    def test_explicit_returns_own_order(self):
        c = ExplicitFinite([1.0, 0.5, 0.25])
        for eps in (1e-12, 1.0, 100.0):
            assert choose_truncation(c, eps) == 2

    def test_loose_tolerance_gives_zero(self):
        assert choose_truncation(Geometric(0.5), 2.0) == 0

    def test_polynomial_bound_is_sound(self):
        p = Polynomial(2.0)
        n = choose_truncation(p, 1e-3)
        assert n == 1000
        true_tail = sum((j + 1.0) ** -2 for j in range(n + 1, n + 2_000_000))
        assert true_tail < 1e-3

    def test_geometric_grid_matches_linear_scan(self):
        rhos = [1e-6, 0.01, 0.1, 0.25, 1 / 3, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 0.995]
        for rho in rhos:
            g = Geometric(rho)
            for eps in np.logspace(-14, 0, 29):
                assert choose_truncation(g, float(eps)) == truncation_scan(g, float(eps)), (rho, eps)

    def test_polynomial_grid_matches_linear_scan(self):
        for beta in (2.5, 3.0, 4.5, 8.0, 20.0):
            p = Polynomial(beta)
            for eps in np.logspace(-9, 0, 19):
                assert choose_truncation(p, float(eps)) == truncation_scan(p, float(eps)), (beta, eps)

    def test_deep_default_depths_without_a_scan(self):
        # The linear scan took 24 s for beta = 2 and never ended for 1.5.
        start = time.perf_counter()
        assert choose_truncation(Polynomial(2.0)) == 60_792_710
        assert choose_truncation(Polynomial(1.5)) == 5_861_230_993_349_299
        assert choose_truncation(Polynomial(math.inf)) == 0
        assert time.perf_counter() - start < 0.1

    def test_depth_beyond_2_pow_53_unsupported(self):
        with pytest.raises(UnsupportedError, match="2\\^53"):
            choose_truncation(Polynomial(1.001))
        with pytest.raises(UnsupportedError, match="2\\^53"):
            choose_truncation(Geometric(1 - 2**-53), 1e-14)

    def test_divergent_family_unsupported(self):
        with pytest.raises(UnsupportedError):
            choose_truncation(Polynomial(0.8), 1e-3)

    def test_tolerance_domain(self):
        with pytest.raises(ParameterError):
            choose_truncation(Geometric(0.5), 0.0)


class TestDepthBudget:
    def test_names_depth_and_budget(self):
        assert ma._check_depth(ma.MAX_DEPTH) == ma.MAX_DEPTH
        with pytest.raises(UnsupportedError, match=f"{ma.MAX_DEPTH + 1} .* {ma.MAX_DEPTH} "):
            ma._check_depth(ma.MAX_DEPTH + 1)

    def test_psi_array_refuses_before_building(self, monkeypatch):
        monkeypatch.setattr(Geometric, "psi", lambda self, j: pytest.fail("psi evaluated"))
        with pytest.raises(UnsupportedError):
            Geometric(0.5).psi_array(ma.MAX_DEPTH + 1)

    @pytest.mark.parametrize("m", [INFINITE, ma.MAX_DEPTH + 1])
    def test_simulate_refuses_before_any_block(self, monkeypatch, m):
        # MA(inf) at the default tolerance resolves to depth 60,792,710.
        monkeypatch.setattr(ma, "block_generator", lambda *a: pytest.fail("block drawn"))
        with pytest.raises(UnsupportedError, match="depth budget"):
            simulate(Polynomial(2.0), m, PARETO1, (0, 0), 10, seed=1)

    def test_resolve_depth(self):
        assert ma.resolve_depth(ExplicitFinite([1.0, 0.5]), 10**9, None) == 1
        assert ma.resolve_depth(Geometric(0.5), INFINITE, 1e-3) == 10
        with pytest.raises(UnsupportedError, match="depth budget"):
            ma.resolve_depth(Geometric(0.5), ma.MAX_DEPTH + 1, None)


class TestSimulate:
    def test_order_zero_returns_the_innovation(self):
        batch = simulate(ExplicitFinite([1.0]), 0, PARETO1, (0, 0), 1, seed=3)
        innov = innovation_matrix(PARETO1, 3, 1, 1)
        assert batch.matrix[0, 0] == innov[0, 0]

    def test_values_recomputable_from_logged_stream(self):
        # X_0 = Z_0 + 0.5 Z_{-1}, bit for bit, from the audited innovations.
        batch = simulate(ExplicitFinite([1.0, 0.5]), 1, PARETO1, (0, 0), 50, seed=17)
        innov = innovation_matrix(PARETO1, 17, 50, 2)
        assert np.array_equal(batch.matrix[:, 0], innov[:, 1] + 0.5 * innov[:, 0])

    def test_deterministic_and_seed_sensitive(self):
        args = (Geometric(0.5), 2, PARETO1, (-1, 1), 64)
        a = simulate(*args, seed=8)
        b = simulate(*args, seed=8)
        c = simulate(*args, seed=9)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_thread_count_does_not_change_output(self, monkeypatch):
        # More workers than cores on 125 tiles, switching threads often:
        # each tile writes only its own slice and returns its own counts.
        monkeypatch.setattr(ma, "BLOCK_ROWS", 16)
        monkeypatch.setattr(ma, "TILE_ROWS", 5)
        args = (Geometric(0.5), 1, PARETO1, (0, 2), 500)
        sets = [((0, 3.0),), ((1, 2.0), (2, 2.0))]
        serial = simulate(*args, seed=12, threads=1)
        counted = simulate(*args, seed=12, threads=1, count=sets)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = simulate(*args, seed=12, threads=8)
            threaded_counts = simulate(*args, seed=12, threads=8, count=sets)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.matrix, threaded.matrix)
        assert threaded_counts.counts == counted.counts

    def test_blocks_match_innovation_matrix(self, monkeypatch):
        monkeypatch.setattr(ma, "BLOCK_ROWS", 8)
        batch = simulate(ExplicitFinite([1.0, 0.5]), 1, PARETO1, (0, 0), 30, seed=21)
        innov = innovation_matrix(PARETO1, 21, 30, 2)
        assert np.array_equal(batch.matrix[:, 0], innov[:, 1] + 0.5 * innov[:, 0])

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("law", [TailModel.standard_pareto, TailModel.shifted_pareto])
    @pytest.mark.parametrize("scale_", [1.0, 2.5])
    @pytest.mark.parametrize("tile", [3, 8])
    def test_streamed_kernel_matches_whole_block_oracle(self, monkeypatch, alpha, law, scale_, tile):
        # 30 replicates in blocks of 8 end on a partial block; tiles of 3
        # split each block into seeked partial tiles, tiles of 8 read whole
        # blocks; psi = (1, 0, 0, 0, 0.5) has skipped lags.
        monkeypatch.setattr(ma, "BLOCK_ROWS", 8)
        monkeypatch.setattr(ma, "TILE_ROWS", tile)
        model = law(alpha, scale_)
        gapped = ExplicitFinite([1.0, 0.0, 0.0, 0.0, 0.5])
        for coeffs in (Geometric(0.6), gapped):
            for depth in (0, 1, 3, 4, 5, 9):
                for window in ((0, 0), (-2, 3), (1, 9)):
                    d = depth if coeffs.order is None else min(depth, coeffs.order)
                    expected = simulate_oracle(coeffs, d, model, window, 30, 19, block_rows=8)
                    for threads in (1, 3):
                        batch = simulate(coeffs, depth, model, window, 30, 19, threads=threads)
                        assert np.array_equal(batch.matrix, expected), (coeffs, depth, window)

    @pytest.mark.parametrize("tile", [3, 8])
    def test_counted_batch_matches_stored_batch(self, monkeypatch, tile):
        monkeypatch.setattr(ma, "BLOCK_ROWS", 8)
        monkeypatch.setattr(ma, "TILE_ROWS", tile)
        args = (Geometric(0.5), 3, PARETO1, (-1, 1), 100, 23)
        sets = [((0, 4.0),), ((0, 3.0), (2, 3.0)), ((1, 6.0), (2, 2.5)), ((1, 6.0), (2, 2.5))]
        expected = simulate_oracle(*args, block_rows=8)
        stored = simulate(*args)
        assert np.array_equal(stored.matrix, expected)
        for threads in (1, 3):
            counted = simulate(*args, threads=threads, count=sets)
            assert counted.matrix is None and counted.shape == stored.shape == (100, 3)
            for s in sets:
                want = np.count_nonzero(np.all([expected[:, c] > a for c, a in s], axis=0))
                assert counted.count(s) == stored.count(s) == want
        assert all(0 < stored.count(s) < 100 for s in sets)
        x = stored.matrix
        assert stored.count(sets[1]) == np.count_nonzero((x[:, 0] > 3.0) & (x[:, 2] > 3.0))

    def test_batch_window(self):
        batch = simulate(ExplicitFinite([1.0, 0.5]), 1, PARETO1, (-1, 1), 7, seed=2)
        x = batch.window(3)
        assert x.lo == -1 and len(x.values) == 3
        assert [batch.window(r).value_at(0) for r in range(7)] == list(batch.matrix[:, 1])

    def test_infinite_order_truncation_consistency(self):
        # Same stream, deeper truncations: partial sums increase towards the
        # deep value and stay within the coefficient tail bound times max Z.
        g = Geometric(0.5)
        deep = simulate(g, INFINITE, PARETO1, (0, 0), 200, seed=5, trunc_eps=1e-10)
        innov = innovation_matrix(PARETO1, 5, 200, 1 + deep.truncation_order)
        prev = None
        for eps in (0.5, 1e-2, 1e-4, 1e-6):
            part = simulate(g, INFINITE, PARETO1, (0, 0), 200, seed=5, trunc_eps=eps)
            gap = deep.matrix - part.matrix
            assert np.all(gap >= 0)
            bound = g.tail_sum_bound(part.truncation_order) * innov.max(axis=1)
            assert np.all(gap[:, 0] <= bound)
            if prev is not None:
                assert np.all(gap <= prev)
            prev = gap

    def test_infinite_order_needs_summability(self):
        with pytest.raises(UnsupportedError):
            simulate(Polynomial(0.8), INFINITE, PARETO1, (0, 0), 10, seed=1)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            simulate(Geometric(0.5), 1, PARETO1, (1, 0), 10, seed=1)
        with pytest.raises(ParameterError):
            simulate(Geometric(0.5), 1, PARETO1, (0, 1), 0, seed=1)
        with pytest.raises(ParameterError):
            simulate(Geometric(0.5), -2, PARETO1, (0, 1), 10, seed=1)
        with pytest.raises(ParameterError):
            simulate(Geometric(0.5), INFINITE, PARETO1, (0, 1), 10, seed=1, trunc_eps=-1.0)


def whole_block_innovations(model, seed, replicates, length):
    """Each block's ``(length, rows)`` draw in one call, reversed in time and
    transposed to one row per replicate."""
    out = np.empty((replicates, length))
    for block, start in enumerate(range(0, replicates, ma.BLOCK_ROWS)):
        rows = min(ma.BLOCK_ROWS, replicates - start)
        out[start:start + rows] = draw(model, block_generator(seed, block), (length, rows))[::-1].T
    return out


class TestTileStream:
    @pytest.mark.parametrize("law", [TailModel.standard_pareto, TailModel.shifted_pareto])
    @pytest.mark.parametrize("replicates, blocks", [(1, None), (1000, None), (70000, None),
                                                    (1000, (64, 16))])
    def test_innovation_matrix_is_the_whole_block_draw(self, monkeypatch, law, replicates, blocks):
        # 70000 replicates span two tiles of one block; blocks of 64 in tiles
        # of 16 seek every tile row.
        if blocks is not None:
            monkeypatch.setattr(ma, "BLOCK_ROWS", blocks[0])
            monkeypatch.setattr(ma, "TILE_ROWS", blocks[1])
        model = law(1.5, 2.0)
        innov = innovation_matrix(model, 11, replicates, 5)
        assert np.array_equal(innov, whole_block_innovations(model, 11, replicates, 5))

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_workers_run_at_most_threads_tiles_ahead(self, monkeypatch, threads):
        # 100 replicates in tiles of 4: 25 tiles in replicate order, each the
        # stored batch's rows, no worker started before the first is read and
        # none left after the last.
        monkeypatch.setattr(ma, "BLOCK_ROWS", 16)
        monkeypatch.setattr(ma, "TILE_ROWS", 4)
        args = (Geometric(0.5), 2, PARETO1, (0, 1), 100, 3)
        expected = simulate(*args).matrix
        done = []
        before = threading.active_count()
        depth, tiles = simulate_tiles(*args, threads=threads,
                                      reduce=lambda start, acc: done.append(start) or acc)
        assert depth == 2 and threading.active_count() == before
        starts = []
        for k, (start, acc) in enumerate(tiles):
            time.sleep(0.002)  # time for the workers to run as far ahead as they may
            assert len(done) <= k + 1 + threads
            assert np.array_equal(acc.T, expected[start:start + 4])
            starts.append(start)
        assert starts == sorted(done) == list(range(0, 100, 4))
        assert threading.active_count() == before

    def test_closing_the_stream_stops_its_workers(self, monkeypatch):
        monkeypatch.setattr(ma, "TILE_ROWS", 4)
        before = threading.active_count()
        ran = []
        _, tiles = simulate_tiles(Geometric(0.5), 2, PARETO1, (0, 1), 400, 3, threads=3,
                                  reduce=lambda start, acc: ran.append(start))
        assert next(tiles) == (0, None)
        tiles.close()
        assert threading.active_count() == before
        assert len(ran) <= 4

    def test_checks_run_before_the_stream_is_returned(self):
        with pytest.raises(UnsupportedError, match="innovation draws"):
            simulate_tiles(Geometric(0.5), 10**6, PARETO1, (0, 1), 10**6, 1)
        with pytest.raises(UnsupportedError, match="depth budget"):
            simulate_tiles(Geometric(0.5), ma.MAX_DEPTH + 1, PARETO1, (0, 1), 10, 1)
        with pytest.raises(ParameterError, match="threads"):
            simulate_tiles(Geometric(0.5), 1, PARETO1, (0, 1), 10, 1, threads=0)


class TestTruncationDiagnostic:
    def test_empty_tail_is_exactly_zero(self):
        c = ExplicitFinite([1.0, 0.5, 0.25])
        assert truncation_diagnostic(c, PARETO1, 2, 1e3, 1.0, 1000, seed=1) == 0.0

    def test_depth_beyond_deep_reference_is_zero(self):
        assert truncation_diagnostic(Geometric(0.5), PARETO1, 60, 1e3, 1.0, 1000, seed=1) == 0.0

    def test_decreasing_in_depth_with_margin(self):
        g = Geometric(0.5)
        n = 200_000
        t = 1e3
        v0 = truncation_diagnostic(g, PARETO1, 0, t, 1.0, n, seed=77)
        v10 = truncation_diagnostic(g, PARETO1, 10, t, 1.0, n, seed=78)
        se = lambda v: t * math.sqrt(max(v * n / t, 1.0)) / n
        assert v10 + 3 * se(v10) < v0 - 3 * se(v0)

    def test_frozen_counts(self):
        # t * count / n with counts 1075 and 1079; the deep reference of
        # Polynomial(6) is 181 lags.
        g = truncation_diagnostic(Geometric(0.7), PARETO1, 3, 10.0, 0.5, 4000, seed=5)
        p = truncation_diagnostic(Polynomial(6.0), TailModel.shifted_pareto(1.5, 2.0),
                                  0, 10.0, 0.005, 3000, seed=8)
        assert (g, p) == (2.6875, 3.5966666666666667)

    def test_deep_reference_over_budget_refuses_before_drawing(self, monkeypatch):
        monkeypatch.setattr(ma, "block_generator", lambda *a: pytest.fail("block drawn"))
        # Polynomial(2) reaches a 1e-12 tail at depth 6e11.
        with pytest.raises(UnsupportedError, match="depth budget"):
            truncation_diagnostic(Polynomial(2.0), PARETO1, 10, 1e3, 1.0, 1000, seed=1)
        monkeypatch.setattr(ma, "MAX_DEPTH", 30)  # Geometric(0.5) reaches it at depth 39
        with pytest.raises(UnsupportedError, match="depth budget of 30 "):
            truncation_diagnostic(Geometric(0.5), PARETO1, 0, 1e3, 1.0, 1000, seed=1)

    def test_parameter_validation(self):
        g = Geometric(0.5)
        with pytest.raises(ParameterError):
            truncation_diagnostic(g, PARETO1, -1, 1e3, 1.0, 10, seed=1)
        with pytest.raises(ParameterError):
            truncation_diagnostic(g, PARETO1, 0, 1e3, 0.0, 10, seed=1)
