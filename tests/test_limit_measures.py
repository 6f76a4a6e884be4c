import math

import numpy as np
import pytest

from matails import (
    ExplicitFinite,
    Geometric,
    ParameterError,
    Polynomial,
    UnsupportedError,
    UpperRect,
    marginal_tail_constant,
    mu_j_rect,
    nu_alpha_tail,
    nu_inf_0_rect,
    nu_m0_rect,
    nu_m_j_rect,
    spike_cover_number,
)

from oracles import cover_oracle, order1_quadrature

PSI_HALF = ExplicitFinite([1.0, 0.5])
IDENTITY = ExplicitFinite([1.0])


class TestUpperRect:
    def test_validation(self):
        with pytest.raises(ParameterError):
            UpperRect({})
        with pytest.raises(ParameterError):
            UpperRect({0: 0.0})
        with pytest.raises(ParameterError):
            UpperRect({0: 1.0, 2: math.nan})
        with pytest.raises(ParameterError):
            UpperRect([(0, 1.0), (0, 2.0)])

    def test_sorted_and_scaled(self):
        rect = UpperRect({3: 1.0, -1: 2.0})
        assert rect.indices == (-1, 3)
        assert rect.scaled(2.0).thresholds == (4.0, 2.0)
        with pytest.raises(ParameterError):
            rect.scaled(0.0)

    def test_contains(self):
        from matails import spike

        rect = UpperRect({0: 1.0, 2: 0.5})
        assert rect.contains(spike(0, 2.0) + spike(2, 1.0))
        assert not rect.contains(spike(0, 2.0))


class TestNuAlphaTail:
    def test_examples(self):
        assert nu_alpha_tail(1.0, 2.0) == 1.0
        assert nu_alpha_tail(2.0, 1.0) == 0.5
        assert nu_alpha_tail(4.0, 0.5) == 0.5

    def test_infinite_mass_at_origin(self):
        with pytest.raises(ParameterError):
            nu_alpha_tail(0.0, 1.0)
        with pytest.raises(ParameterError):
            nu_alpha_tail(-1.0, 1.0)


class TestMuJRect:
    def test_marginal(self):
        for a in (0.5, 1.0, 3.0):
            assert mu_j_rect(0, 1.0, UpperRect({0: a})).value == a**-1

    def test_pair_product(self):
        got = mu_j_rect(1, 1.0, UpperRect({0: 2.0, 1: 4.0}))
        assert got.value == 0.125

    def test_too_many_constraints_vanish(self):
        assert mu_j_rect(1, 1.0, UpperRect({0: 1.0, 1: 1.0, 2: 1.0})).value == 0.0

    def test_too_few_constraints_unbounded(self):
        got = mu_j_rect(1, 1.0, UpperRect({0: 1.0}))
        assert got.is_infinite and got.note

    def test_product_over_alpha(self):
        got = mu_j_rect(2, 1.5, UpperRect({0: 2.0, 3: 1.0, 5: 4.0}))
        assert got.value == pytest.approx(2.0**-1.5 * 4.0**-1.5, rel=1e-14)


class TestSpikeCover:
    def test_identity_needs_one_spike_per_coordinate(self):
        assert spike_cover_number(IDENTITY, 0, UpperRect({0: 1.0, 1: 1.0})) == 2

    def test_adjacent_pair_covered_by_one(self):
        assert spike_cover_number(PSI_HALF, 1, UpperRect({0: 1.0, 1: 1.0})) == 1

    def test_gap_forces_two(self):
        assert spike_cover_number(PSI_HALF, 1, UpperRect({0: 1.0, 2: 1.0})) == 2

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(31)
        families = [PSI_HALF, ExplicitFinite([1.0, 0.0, 0.25]), Geometric(0.5)]
        for _ in range(300):
            coeffs = families[int(rng.integers(0, len(families)))]
            m = int(rng.integers(0, 4))
            ks = rng.choice(np.arange(-3, 6), size=int(rng.integers(1, 4)), replace=False)
            rect = UpperRect({int(k): float(rng.uniform(0.5, 3.0)) for k in ks})
            assert spike_cover_number(coeffs, m, rect) == cover_oracle(coeffs, m, rect)


class TestNuM0Rect:
    def test_marginal_sums_coefficient_powers(self):
        got = nu_m0_rect(PSI_HALF, 1, 1.0, UpperRect({0: 1.0}))
        assert got.value == 1.5

    def test_joint_constraint_keeps_one_position(self):
        got = nu_m0_rect(PSI_HALF, 1, 1.0, UpperRect({0: 1.0, 1: 2.0}))
        assert got.value == 0.25

    def test_single_coefficient(self):
        assert nu_m0_rect(IDENTITY, 0, 2.0, UpperRect({0: 2.0})).value == 0.25

    def test_zero_coefficient_removes_positions(self):
        rect = UpperRect({0: 1.0, 1: 1.0})
        full = nu_m0_rect(ExplicitFinite([1.0, 0.5, 0.25]), 2, 1.0, rect)
        gapped = nu_m0_rect(ExplicitFinite([1.0, 0.0, 0.25]), 2, 1.0, rect)
        assert full.value == 0.75
        assert gapped.value == 0.0

    def test_singleton_equals_marginal_constant(self):
        coeffs = ExplicitFinite([1.0, 0.5, 0.25])
        got = nu_m0_rect(coeffs, 2, 1.0, UpperRect({4: 1.0}))
        assert got.value == marginal_tail_constant(coeffs, 1.0)
        got2 = nu_m0_rect(Geometric(0.5), 6, 2.0, UpperRect({0: 3.0}))
        want = marginal_tail_constant(Geometric(0.5), 2.0, up_to=6) * 3.0**-2
        assert got2.value == pytest.approx(want, rel=1e-12)


class TestNuMJRect:
    def test_iid_pair_reduction(self):
        got = nu_m_j_rect(IDENTITY, 0, 1.0, 1, UpperRect({0: 1.0, 1: 1.0}), 100, seed=1)
        assert got.value == 1.0
        assert got.stderr == 0.0

    def test_factoring_rectangle_frozen_value(self):
        # Four covering pairs, each factoring into marginal tails:
        # 1/4 + 1/2 + 1/2 + 1 = 2.25.
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, UpperRect({0: 1.0, 2: 1.0}), 1000, seed=1)
        assert got.value == pytest.approx(2.25, rel=1e-12)
        assert got.stderr == 0.0

    def test_factoring_rectangle_matches_quadrature(self):
        rect = UpperRect({0: 1.0, 2: 1.0})
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect, 200_000, seed=2)
        oracle = order1_quadrature(PSI_HALF, 1, 1.0, rect)
        assert got.value == pytest.approx(oracle, rel=0.01)

    def test_shared_constraint_case_against_quadrature_and_pencil(self):
        # z1 > 1, z2 > 2 privately, plus the genuinely binding coupled
        # constraint 0.5 z1 + z2 > 5 on the middle coordinate; partial
        # fractions give 0.1 + (ln(13.5)/50 + 1/4) + 0.1.
        rect = UpperRect({0: 1.0, 1: 5.0, 2: 1.0})
        pencil = 0.2 + math.log(13.5) / 50.0 + 0.25
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect, 400_000, seed=3)
        assert got.stderr > 0.0
        assert got.value == pytest.approx(pencil, abs=4 * got.stderr)
        oracle = order1_quadrature(PSI_HALF, 1, 1.0, rect)
        assert oracle == pytest.approx(pencil, rel=2e-3)
        assert got.value == pytest.approx(oracle, rel=0.01)

    def test_order_zero_equals_enumeration(self):
        for rect in (UpperRect({0: 1.0}), UpperRect({0: 2.0, 1: 1.0})):
            via_tuples = nu_m_j_rect(PSI_HALF, 1, 1.0, 0, rect, 100, seed=4)
            via_enum = nu_m0_rect(PSI_HALF, 1, 1.0, rect)
            assert via_tuples.value == pytest.approx(via_enum.value, rel=1e-12)

    def test_uncoverable_rectangle_is_flagged_infinite(self):
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, UpperRect({0: 1.0, 1: 1.0}), 100, seed=5)
        assert got.is_infinite and got.note

    def test_budget_validation(self):
        with pytest.raises(ParameterError):
            nu_m_j_rect(PSI_HALF, 1, 1.0, 1, UpperRect({0: 1.0, 2: 1.0}), 0, seed=1)

    def test_degenerate_coefficients_reduce_to_iid_measure(self):
        rects = [
            (1, UpperRect({0: 1.0, 1: 1.0})),
            (1, UpperRect({0: 2.0, 3: 0.5})),
            (1, UpperRect({0: 1.0, 1: 1.0, 2: 1.0})),
            (2, UpperRect({0: 1.0, 1: 1.0})),
            (2, UpperRect({-1: 1.0, 1: 2.0, 4: 1.0})),
        ]
        for j, rect in rects:
            got = nu_m_j_rect(IDENTITY, 0, 1.0, j, rect, 100, seed=6)
            want = mu_j_rect(j, 1.0, rect)
            if want.is_infinite:
                assert got.is_infinite
            else:
                assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)


class TestHomogeneity:
    LAMBDAS = (0.5, 2.0, 10.0)

    def test_closed_forms_machine_precision(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            ks = rng.choice(np.arange(-2, 5), size=2, replace=False)
            rect = UpperRect({int(k): float(rng.uniform(0.5, 3.0)) for k in ks})
            alpha = float(rng.uniform(0.5, 2.5))
            for lam in self.LAMBDAS:
                mu = mu_j_rect(1, alpha, rect)
                mu_l = mu_j_rect(1, alpha, rect.scaled(lam))
                assert mu_l.value == pytest.approx(lam ** (-2 * alpha) * mu.value, rel=1e-12)
                n0 = nu_m0_rect(PSI_HALF, 1, alpha, rect)
                n0_l = nu_m0_rect(PSI_HALF, 1, alpha, rect.scaled(lam))
                assert n0_l.value == pytest.approx(lam**-alpha * n0.value, rel=1e-12)

    def test_monte_carlo_same_stream_scales_exactly(self):
        rect = UpperRect({0: 1.0, 1: 5.0, 2: 1.0})
        base = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect, 50_000, seed=7)
        for lam in self.LAMBDAS:
            scaled = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect.scaled(lam), 50_000, seed=7)
            assert scaled.value == pytest.approx(lam**-2 * base.value, rel=1e-9)

    def test_infinite_order_marginal(self):
        rect = UpperRect({0: 1.0})
        base = nu_inf_0_rect(Geometric(0.5), 1.0, rect, 1e-8)
        for lam in self.LAMBDAS:
            scaled = nu_inf_0_rect(Geometric(0.5), 1.0, rect.scaled(lam), 1e-8)
            assert scaled.value == pytest.approx(base.value / lam, rel=1e-12)

    def test_monotone_in_thresholds(self):
        # tighten a binding threshold: every evaluator must strictly shrink
        cases = [
            (lambda r: mu_j_rect(1, 1.0, r).value,
             UpperRect({0: 1.0, 2: 1.0}), UpperRect({0: 1.5, 2: 1.0})),
            (lambda r: nu_m0_rect(PSI_HALF, 1, 1.0, r).value,
             UpperRect({0: 1.0, 1: 2.0}), UpperRect({0: 1.0, 1: 3.0})),
            (lambda r: nu_m_j_rect(PSI_HALF, 1, 1.0, 1, r, 100_000, seed=8).value,
             UpperRect({0: 1.0, 2: 1.0}), UpperRect({0: 1.5, 2: 1.0})),
        ]
        for evaluate, rect, tighter in cases:
            assert evaluate(tighter) < evaluate(rect)


class TestMarginalTailConstant:
    def test_explicit(self):
        assert marginal_tail_constant(ExplicitFinite([1.0, 0.5, 0.25]), 1.0) == 1.75

    def test_geometric(self):
        assert marginal_tail_constant(Geometric(0.5), 2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_identity_any_alpha(self):
        assert marginal_tail_constant(IDENTITY, 7.0) == 1.0

    def test_partial_sum(self):
        got = marginal_tail_constant(Geometric(0.5), 1.0, up_to=3)
        assert got == 1.875

    def test_divergent_unsupported(self):
        with pytest.raises(UnsupportedError):
            marginal_tail_constant(Polynomial(0.8), 1.0)


class TestNuInf0Rect:
    def test_geometric_marginal_with_bound(self):
        got = nu_inf_0_rect(Geometric(0.5), 1.0, UpperRect({0: 1.0}), 1e-8)
        assert got.truncation_error_bound is not None
        assert abs(got.value - 2.0) <= got.truncation_error_bound
        assert got.truncation_error_bound < 1e-7

    def test_explicit_identical_to_finite_enumeration(self):
        coeffs = ExplicitFinite([1.0, 0.5, 0.25])
        rect = UpperRect({0: 1.0, 1: 1.0})
        inf_val = nu_inf_0_rect(coeffs, 1.0, rect, 1e-6)
        fin_val = nu_m0_rect(coeffs, 2, 1.0, rect)
        assert inf_val.value == fin_val.value
        assert inf_val.truncation_error_bound == 0.0

    def test_pair_against_deep_enumeration_oracle(self):
        g = Geometric(0.5)
        rect = UpperRect({0: 1.0, 1: 1.0})
        got = nu_inf_0_rect(g, 1.0, rect, 1e-13)
        deep = 60
        oracle = sum(
            (max(1.0 / g.psi(0 - i), 1.0 / g.psi(1 - i))) ** -1.0
            for i in range(-deep + 1, 1)
        )
        assert got.value == pytest.approx(oracle, abs=1e-12)

    def test_divergent_cases_unsupported(self):
        with pytest.raises(UnsupportedError):
            nu_inf_0_rect(Polynomial(0.8), 1.0, UpperRect({0: 1.0}), 1e-6)
        with pytest.raises(UnsupportedError):
            nu_inf_0_rect(Polynomial(1.5), 0.5, UpperRect({0: 1.0}), 1e-6)
