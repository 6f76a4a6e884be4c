import math

import numpy as np
import pytest

import matails.ma_process as ma
from matails import (
    INFINITE,
    EvalMethod,
    ExplicitFinite,
    Geometric,
    ParameterError,
    SimulationBatch,
    TailModel,
    UpperRect,
    block_generator,
    convergence_table,
    draw,
    empirical_tail_measure,
    estimation,
    hill,
    hrv_scan,
    limit_measures,
    nu_m_j_rect,
    simulate,
    theoretical_tail_measure,
)
from oracles import per_level_table

PARETO1 = TailModel.standard_pareto(1.0)
IDENTITY = ExplicitFinite([1.0])
PSI_HALF = ExplicitFinite([1.0, 0.5])


def batch_at_zero(values):
    """One replicate per value, each a window on the single index 0."""
    return SimulationBatch(0, np.array(values, dtype=float).reshape(-1, 1), 0)


class TestEmpiricalTailMeasure:
    def test_all_zero_samples(self):
        samples = batch_at_zero([0.0] * 10)
        est = empirical_tail_measure(samples, PARETO1, 100.0, 1.0, UpperRect({0: 1.0}))
        assert est.value == 0.0 and est.stderr == 0.0
        assert est.degenerate

    def test_single_exceedance_scaling(self):
        samples = batch_at_zero([200.0, 50.0, 99.0, 1.0])
        est = empirical_tail_measure(samples, PARETO1, 100.0, 1.0, UpperRect({0: 1.0}))
        assert est.value == 25.0
        assert est.count == 1 and not est.degenerate

    def test_membership_is_strict(self):
        samples = batch_at_zero([100.0])
        est = empirical_tail_measure(samples, PARETO1, 100.0, 1.0, UpperRect({0: 1.0}))
        assert est.count == 0

    def test_large_sample_matches_exact_theory(self):
        # Standard Pareto marginal at the plain scaling has no bias at all.
        batch = simulate(IDENTITY, 0, PARETO1, (0, 0), 1_000_000, seed=101)
        est = empirical_tail_measure(batch, PARETO1, 1e3, 1.0, UpperRect({0: 1.0}))
        assert est.value == pytest.approx(1.0, abs=0.04)

    def test_count_identity_and_pooling(self):
        rect = UpperRect({0: 1.0})
        batch = simulate(IDENTITY, 0, PARETO1, (0, 0), 4000, seed=3)
        est = empirical_tail_measure(batch, PARETO1, 200.0, 1.0, rect)
        assert est.value * est.n / est.t == est.count
        half_a, half_b = (
            empirical_tail_measure(batch_at_zero(part), PARETO1, 200.0, 1.0, rect)
            for part in (batch.matrix[:2000], batch.matrix[2000:])
        )
        pooled = (half_a.value * half_a.n + half_b.value * half_b.n) / 4000
        assert pooled == pytest.approx(est.value, rel=1e-12)

    def test_matched_t_and_n_scaling_keeps_the_estimand(self):
        # exact scaling: expectation is t-free for the standard Pareto
        rect = UpperRect({0: 1.0})
        a = empirical_tail_measure(
            simulate(IDENTITY, 0, PARETO1, (0, 0), 200_000, seed=5), PARETO1, 100.0, 1.0, rect
        )
        b = empirical_tail_measure(
            simulate(IDENTITY, 0, PARETO1, (0, 0), 800_000, seed=6), PARETO1, 400.0, 1.0, rect
        )
        assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)

    def test_rect_outside_window_is_degenerate(self):
        batch = simulate(IDENTITY, 0, PARETO1, (0, 0), 100, seed=1)
        est = empirical_tail_measure(batch, PARETO1, 10.0, 1.0, UpperRect({5: 1.0}))
        assert est.count == 0 and est.degenerate

    def test_plug_in_consistency_across_seeds(self):
        # the order-0 standard Pareto estimate must sit within 3 binomial
        # stderr of the closed form in at least 95 of 100 seeded runs
        rect = UpperRect({0: 2.0})
        want = 0.5
        hits = 0
        for s in range(100):
            batch = simulate(IDENTITY, 0, PARETO1, (0, 0), 100_000, seed=10_000 + s)
            est = empirical_tail_measure(batch, PARETO1, 100.0, 1.0, rect)
            hits += abs(est.value - want) <= 3 * est.stderr
        assert hits >= 95

    def test_scale_equivariance_within_stderr(self):
        # estimating on lam * A matches lam^-alpha times the estimate on A
        batch = simulate(IDENTITY, 0, PARETO1, (0, 0), 1_000_000, seed=31)
        rect = UpperRect({0: 1.0})
        base = empirical_tail_measure(batch, PARETO1, 1e3, 1.0, rect)
        for lam in (0.5, 2.0, 10.0):
            scaled = empirical_tail_measure(batch, PARETO1, 1e3, 1.0, rect.scaled(lam))
            tol = 3 * math.hypot(scaled.stderr, base.stderr / lam)
            assert abs(scaled.value - base.value / lam) <= tol

    def test_validation(self):
        batch = simulate(IDENTITY, 0, PARETO1, (0, 0), 10, seed=1)
        for t in (0.5, math.nan, math.inf):
            with pytest.raises(ParameterError):
                empirical_tail_measure(batch, PARETO1, t, 1.0, UpperRect({0: 1.0}))
        with pytest.raises(ParameterError):
            empirical_tail_measure(batch, PARETO1, 10.0, 1.5, UpperRect({0: 1.0}))
        with pytest.raises(ParameterError):
            empirical_tail_measure(batch_at_zero([]), PARETO1, 10.0, 1.0, UpperRect({0: 1.0}))


class TestHill:
    def test_constructed_fixture_is_exact(self):
        # consecutive order-statistic ratio chosen so the estimate equals
        # the target index exactly
        alpha_target, k, n = 1.25, 40, 200
        g = math.exp(2.0 / ((k + 1) * alpha_target))
        values = [0.1 * g**r for r in range(n)]
        assert hill(values, k) == pytest.approx(alpha_target, rel=1e-12)

    def test_pareto_sample_recovers_index(self):
        zs = draw(TailModel.standard_pareto(1.5), block_generator(2718), 100_000)
        assert 1.35 <= hill(zs, 1000) <= 1.65

    def test_full_sample_hill_on_exact_pareto(self):
        zs = draw(PARETO1, block_generator(999), 100_000)
        assert 0.95 <= hill(zs, len(zs) - 1) <= 1.05

    def test_validation(self):
        with pytest.raises(ParameterError):
            hill([1.0, 2.0, 0.0, 3.0], 2)
        with pytest.raises(ParameterError):
            hill([1.0, 2.0, 3.0], 1)
        with pytest.raises(ParameterError):
            hill([1.0, 2.0, 3.0], 3)


class TestTheoreticalDispatch:
    def test_identity_uses_closed_form(self):
        got = theoretical_tail_measure(IDENTITY, 0, 1.0, 1, UpperRect({0: 1.0, 1: 1.0}))
        assert got.method is EvalMethod.CLOSED_FORM and got.value == 1.0

    def test_finite_order_zero_uses_enumeration(self):
        got = theoretical_tail_measure(PSI_HALF, 1, 1.0, 0, UpperRect({0: 1.0}))
        assert got.method is EvalMethod.ENUMERATION and got.value == 1.5

    def test_finite_higher_order_uses_integration(self):
        got = theoretical_tail_measure(PSI_HALF, 1, 1.0, 1, UpperRect({0: 1.0, 2: 1.0}))
        assert got.method is EvalMethod.MONTE_CARLO
        assert got.value == pytest.approx(2.25, rel=1e-12)

    def test_infinite_order_zero_reports_bound(self):
        got = theoretical_tail_measure(Geometric(0.5), INFINITE, 1.0, 0, UpperRect({0: 1.0}))
        assert got.truncation_error_bound is not None

    def test_infinite_hidden_orders_rejected(self):
        with pytest.raises(ParameterError):
            theoretical_tail_measure(Geometric(0.5), INFINITE, 1.0, 1, UpperRect({0: 1.0, 1: 1.0}))
        with pytest.raises(ParameterError, match="order must be nonnegative, got -1"):
            theoretical_tail_measure(Geometric(0.5), INFINITE, 1.0, -1, UpperRect({0: 1.0}))


class TestHrvScan:
    def test_iid_theoretical_column(self):
        rows = [(0, UpperRect({0: 1.0})), (1, UpperRect({0: 1.0, 1: 1.0}))]
        scan = hrv_scan(IDENTITY, 0, PARETO1, rows, 200_000, 100.0, seed=11)
        assert [r.theoretical.value for r in scan] == [1.0, 1.0]
        for row in scan:
            assert row.error is None
            assert abs(row.z_score) < 3.0

    def test_ma1_marginal_theoretical(self):
        scan = hrv_scan(PSI_HALF, 1, PARETO1, [(0, UpperRect({0: 1.0}))], 100_000, 100.0, seed=12)
        assert scan[0].theoretical.value == 1.5

    def test_infeasible_row_continues(self):
        rows = [
            (1, UpperRect({0: 1.0, 1: 1.0})),  # one spike covers both: error
            (0, UpperRect({0: 1.0})),
        ]
        scan = hrv_scan(PSI_HALF, 1, PARETO1, rows, 1000, 50.0, seed=13)
        assert scan[0].error is not None and scan[0].empirical is None
        assert scan[1].error is None

    def test_infinite_process_hidden_order_is_error_row(self):
        rows = [(1, UpperRect({0: 1.0, 5: 1.0})), (0, UpperRect({0: 1.0}))]
        scan = hrv_scan(Geometric(0.5), INFINITE, PARETO1, rows, 1000, 50.0, seed=14)
        assert scan[0].error is not None
        assert scan[1].error is None

    def test_deterministic(self):
        rows = [(0, UpperRect({0: 1.0}))]
        a = hrv_scan(Geometric(0.5), 2, PARETO1, rows, 5000, 100.0, seed=15)
        b = hrv_scan(Geometric(0.5), 2, PARETO1, rows, 5000, 100.0, seed=15)
        assert a[0].empirical.value == b[0].empirical.value

    def test_empty_rows(self):
        assert hrv_scan(IDENTITY, 0, PARETO1, [], 100, 10.0, seed=1) == []

    def test_identity_row_uses_closed_form_without_cover_search(self):
        # 30 constraints: a spike-cover search would enumerate 2^30 subsets
        rect = UpperRect({k: 1.0 for k in range(30)})
        scan = hrv_scan(IDENTITY, 0, PARETO1, [(1, rect)], 100, 10.0, seed=17)
        assert scan[0].error is None
        assert scan[0].theoretical.method is EvalMethod.CLOSED_FORM
        assert scan[0].theoretical.value == 0.0

    def test_error_rows_carry_the_evaluator_text(self):
        rect = UpperRect({0: 1.0, 1: 1.0})
        scan = hrv_scan(PSI_HALF, 1, PARETO1, [(1, rect), (-1, rect)], 1000, 50.0, seed=18)
        assert scan[0].error == nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect, 100).note
        assert scan[1].error == "order must be nonnegative, got -1"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_counts_equal_the_stored_batch_estimates(self, monkeypatch, threads):
        # Error rows sit before, between and after the accepted rows; the
        # counted scan must agree with a stored simulation of the same seed.
        monkeypatch.setattr(ma, "BLOCK_ROWS", 128)
        cases = [
            (PSI_HALF, 1, [
                (-1, UpperRect({0: 1.0})),  # negative order
                (0, UpperRect({0: 1.0})),
                (1, UpperRect({0: 1.0, 1: 1.0})),  # infeasible: one spike covers it
                (1, UpperRect({-1: 1.0, 2: 1.0})),
                (0, UpperRect({0: 2.0, 1: 0.5})),
                (-3, UpperRect({2: 1.0})),
            ], [False, True, False, True, True, False]),
            (Geometric(0.5), INFINITE, [
                (1, UpperRect({0: 1.0, 3: 1.0})),  # hidden order of MA(inf)
                (0, UpperRect({1: 1.0})),
                (2, UpperRect({0: 1.0, 1: 1.0, 2: 1.0})),
                (0, UpperRect({0: 0.5, 3: 2.0})),
                (1, UpperRect({1: 1.0, 2: 1.0})),
            ], [False, True, False, True, False]),
        ]
        n, t = 1000, 8.0
        for coeffs, m, rows, ok in cases:
            scan = hrv_scan(coeffs, m, PARETO1, rows, n, t, seed=31, trunc_eps=1e-3, threads=threads)
            lo = min(rect.min_index for _, rect in rows)
            hi = max(rect.max_index for _, rect in rows)
            stored = simulate(coeffs, m, PARETO1, (lo, hi), n, 31, 1e-3)
            assert [row.error is None for row in scan] == ok
            accepted = [row for row in scan if row.error is None]
            assert all(row.empirical.count > 0 for row in accepted)
            for row in accepted:
                assert row.empirical == empirical_tail_measure(
                    stored, PARETO1, t, row.scaling_exponent, row.rect)
            assert all(row.empirical is None for row in scan if row.error is not None)

    def test_all_error_rows(self):
        rows = [(-1, UpperRect({0: 1.0})), (1, UpperRect({0: 1.0, 1: 1.0}))]
        scan = hrv_scan(PSI_HALF, 1, PARETO1, rows, 100, 8.0, seed=1)
        assert [row.empirical for row in scan] == [None, None]
        assert all(row.error for row in scan)

    def test_hidden_pair_estimate_matches_oracle(self):
        # hidden-order convergence is slow for alpha = 1 (bias ~ log(s)/s at
        # scale s = sqrt(t)); t must be large before noise dominates
        rows = [(1, UpperRect({0: 1.0, 2: 1.0}))]
        scan = hrv_scan(PSI_HALF, 1, PARETO1, rows, 10_000_000, 1e4, seed=16)
        row = scan[0]
        combined = math.hypot(row.empirical.stderr, row.theoretical.stderr or 0.0)
        assert abs(row.empirical.value - row.theoretical.value) <= 4 * combined


class TestConvergenceTable:
    def test_empty_grid(self):
        assert convergence_table(IDENTITY, 0, PARETO1, [(0, UpperRect({0: 1.0}))], 100, [], 1) == []

    def test_grid_must_increase(self):
        with pytest.raises(ParameterError):
            convergence_table(
                IDENTITY, 0, PARETO1, [(0, UpperRect({0: 1.0}))], 100, [10.0, 10.0], 1
            )

    def test_unbiased_case_stays_within_noise(self):
        rows = [(0, UpperRect({0: 1.0}))]
        cells = convergence_table(IDENTITY, 0, PARETO1, rows, 400_000, [10.0, 100.0, 1000.0], 21)
        assert [t for t, _ in cells] == [10.0, 100.0, 1000.0]
        for _, row in cells:
            assert abs(row.empirical.value - 1.0) <= 3 * max(row.empirical.stderr, 1e-12)

    def test_one_cover_search_per_hidden_row_and_level(self, monkeypatch):
        # the evaluator is the only caller, so counting at its home counts all;
        # the theory is settled once for the whole grid, which one simulation serves
        assert not hasattr(estimation, "spike_cover_number")
        calls, simulations = [], []
        original = limit_measures.spike_cover_number

        def counting(*args):
            calls.append(args)
            return original(*args)

        def counting_simulate(*args, **kwargs):
            simulations.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(limit_measures, "spike_cover_number", counting)
        monkeypatch.setattr(estimation, "simulate", counting_simulate)
        rows = [
            (0, UpperRect({0: 1.0})),
            (1, UpperRect({0: 1.0, 2: 1.0})),
            (1, UpperRect({0: 1.0, 1: 1.0})),  # infeasible
        ]
        cells = convergence_table(PSI_HALF, 1, PARETO1, rows, 1000, [10.0, 100.0], 23,
                                  integration_budget=100)
        assert len(cells) == 6
        assert len(calls) == 2
        assert len(simulations) == 1
        for grid in ([10.0], [2.0, 10.0, 100.0]):
            simulations.clear()
            convergence_table(PSI_HALF, 1, PARETO1, rows, 1000, grid, 23, integration_budget=100)
            assert len(simulations) == 1

    def test_each_level_is_the_one_level_scan_on_the_same_seed(self):
        rows = [
            (0, UpperRect({0: 1.0})),
            (1, UpperRect({0: 1.0, 2: 1.0})),
            (1, UpperRect({0: 1.0, 1: 1.0})),  # infeasible
        ]
        grid = [4.0, 16.0, 64.0]
        cells = convergence_table(PSI_HALF, 1, PARETO1, rows, 5000, grid, 29,
                                  integration_budget=500)
        assert [t for t, _ in cells] == [t for t in grid for _ in rows]
        for t in grid:
            level = [row for s, row in cells if s == t]
            # same count, value, stderr, theoretical value and error text
            assert level == hrv_scan(PSI_HALF, 1, PARETO1, rows, 5000, t, 29,
                                     integration_budget=500)
            assert level[0].empirical.count > 0 and level[1].empirical.count > 0
            assert level[2].error is not None
        hidden = [row.theoretical for _, row in cells if row.j == 1 and row.error is None]
        assert len(hidden) == 3 and hidden[0] == hidden[1] == hidden[2]

    def test_levels_agree_in_distribution_with_the_per_level_driver(self):
        # One shared simulation and one simulation per level estimate the
        # same quantity at each (t, row): pooled over 20 seeds, the two
        # means agree within 3 combined standard errors.
        rows = [(0, UpperRect({0: 1.0})), (1, UpperRect({0: 1.0, 2: 1.0}))]
        grid = [4.0, 16.0, 64.0]
        n, seeds = 2000, range(20)
        shared_counts = np.zeros(len(grid) * len(rows))
        per_level_counts = np.zeros_like(shared_counts)
        for seed in seeds:
            shared = convergence_table(PSI_HALF, 1, PARETO1, rows, n, grid, seed,
                                       integration_budget=100)
            per_level = per_level_table(PSI_HALF, 1, PARETO1, rows, n, grid, seed,
                                        integration_budget=100)
            assert [(t, row.j, row.rect) for t, row in shared] == [
                (t, row.j, row.rect) for t, row in per_level]
            shared_counts += [row.empirical.count for _, row in shared]
            per_level_counts += [row.empirical.count for _, row in per_level]
        scale = np.repeat(grid, len(rows)) / (n * len(seeds))
        diff = scale * np.abs(shared_counts - per_level_counts)
        combined = scale * np.sqrt(shared_counts + per_level_counts)
        assert np.all(per_level_counts > 0)
        assert np.all(diff <= 3 * combined), (diff / combined).tolist()

    @pytest.mark.parametrize("grid", [
        [10.0, 10.0], [10.0, 5.0], [0.5], [math.nan], [math.inf], [10.0, math.inf],
    ])
    def test_grid_is_checked_before_any_evaluator_or_draw(self, monkeypatch, grid):
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the grid was checked")

        monkeypatch.setattr(estimation, "theoretical_tail_measure", forbidden)
        monkeypatch.setattr(estimation, "simulate", forbidden)
        rows = [(0, UpperRect({0: 1.0})), (1, UpperRect({0: 1.0, 2: 1.0}))]
        with pytest.raises(ParameterError, match="tail levels must be"):
            convergence_table(PSI_HALF, 1, PARETO1, rows, 100, grid, 1)
        if len(grid) == 1:
            with pytest.raises(ParameterError, match="tail levels must be"):
                hrv_scan(PSI_HALF, 1, PARETO1, rows, 100, grid[0], 1)

    def test_all_error_rows_draw_nothing(self, monkeypatch):
        # Nothing to count: the simulation stops after its draw limit check.
        monkeypatch.setattr(ma, "block_generator", lambda *a: pytest.fail("drew"))
        rows = [(-1, UpperRect({0: 1.0})), (1, UpperRect({0: 1.0, 1: 1.0}))]
        cells = convergence_table(PSI_HALF, 1, PARETO1, rows, 10**6, [10.0, 100.0], 1)
        assert len(cells) == 4
        assert all(row.error and row.empirical is None for _, row in cells)

    def test_biased_case_error_decays_in_t(self):
        # shifted Pareto below threshold 1: second-order bias shrinks like 1/t
        model = TailModel.shifted_pareto(1.0)
        rows = [(0, UpperRect({0: 0.5}))]
        cells = convergence_table(IDENTITY, 0, model, rows, 4_000_000, [3.0, 30.0, 300.0], 22)
        errs = [row.abs_error for _, row in cells]
        assert errs[0] > errs[1] > errs[2]
