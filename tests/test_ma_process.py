import math

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
    check_assumptions,
    choose_truncation,
    cone_label,
    continuity_modulus,
    dist,
    exceedance_count,
    innovation_matrix,
    scale,
    simulate,
    spike,
    truncation_diagnostic,
)
from matails.sequence_space import ZERO
from oracles import dyadic_window, tm_oracle

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
        with pytest.raises(ParameterError):
            ExplicitFinite([1.0, -0.1])

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

    def test_divergent_family_unsupported(self):
        with pytest.raises(UnsupportedError):
            choose_truncation(Polynomial(0.8), 1e-3)

    def test_tolerance_domain(self):
        with pytest.raises(ParameterError):
            choose_truncation(Geometric(0.5), 0.0)


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
        monkeypatch.setattr(ma, "BLOCK_ROWS", 16)
        args = (Geometric(0.5), 1, PARETO1, (0, 2), 100)
        serial = simulate(*args, seed=12, threads=1)
        threaded = simulate(*args, seed=12, threads=4)
        assert np.array_equal(serial.matrix, threaded.matrix)

    def test_blocks_match_innovation_matrix(self, monkeypatch):
        monkeypatch.setattr(ma, "BLOCK_ROWS", 8)
        batch = simulate(ExplicitFinite([1.0, 0.5]), 1, PARETO1, (0, 0), 30, seed=21)
        innov = innovation_matrix(PARETO1, 21, 30, 2)
        assert np.array_equal(batch.matrix[:, 0], innov[:, 1] + 0.5 * innov[:, 0])

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

    def test_parameter_validation(self):
        g = Geometric(0.5)
        with pytest.raises(ParameterError):
            truncation_diagnostic(g, PARETO1, -1, 1e3, 1.0, 10, seed=1)
        with pytest.raises(ParameterError):
            truncation_diagnostic(g, PARETO1, 0, 1e3, 0.0, 10, seed=1)
