import functools
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matails import (
    EvalMethod,
    ExplicitFinite,
    Geometric,
    ParameterError,
    Polynomial,
    TailModel,
    UnsupportedError,
    UpperRect,
    continuity_modulus,
    limit_measures,
    marginal_tail_constant,
    mu_j_rect,
    nu_alpha_tail,
    nu_inf_0_rect,
    nu_m0_rect,
    nu_m_j_rect,
    scale,
    spike,
    spike_cover_number,
    truncation_diagnostic,
)

import oracles
from oracles import (
    conditional_plan,
    conditional_tuple_reference,
    cover_oracle,
    coverage,
    covering_tuples,
    iid_conditional_reference,
    m0_oracle,
    nu_m_j_rect_reference,
    one_member_integral,
    order1_quadrature,
    pair_integral,
    tuple_contribution,
    tuple_stream_root,
    tuple_contribution_reference,
)

PSI_HALF = ExplicitFinite([1.0, 0.5])
IDENTITY = ExplicitFinite([1.0])


def gapped(max_lags):
    """Explicit coefficients with up to ``max_lags`` lags after psi_0, some of them zero."""
    lag = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
    return st.builds(lambda head, tail: ExplicitFinite([head, *tail]),
                     st.floats(0.1, 2.0), st.lists(lag, max_size=max_lags))


def rects(max_size):
    thresholds = st.dictionaries(st.integers(-4, 9), st.floats(0.1, 5.0),
                                 min_size=1, max_size=max_size)
    return thresholds.map(UpperRect)


def tuple_kinds(coeffs, m, j, rect):
    """Ranks of the covering (j+1)-tuples: (exact, pruned, drawn).

    A tuple is exact when no constraint is shared between its members.
    Otherwise each member's floor is the largest a_k / psi_{k-i} over its
    private constraints, and a shared constraint is implied when
    sum_h psi_{k-i_h} L_h, added in member order, exceeds a_k.  The tuple
    is pruned when every shared constraint is implied, else drawn.
    """
    thresholds = dict(rect.constraints)
    candidates = [i for i in range(rect.min_index - m, rect.max_index + 1)
                  if coverage(coeffs, m, rect, i)]
    exact, pruned, drawn = [], [], []
    for rank, combo in enumerate(itertools.combinations(candidates, j + 1)):
        covers = [coverage(coeffs, m, rect, i) for i in combo]
        if set().union(*covers) != set(rect.indices):
            continue
        holders = {k: sum(k in cov for cov in covers) for k in rect.indices}
        shared = [k for k in rect.indices if holders[k] > 1]
        if not shared:
            exact.append(rank)
            continue
        floors = [max(thresholds[k] / coeffs.psi(k - i) for k in cov if holders[k] == 1)
                  for i, cov in zip(combo, covers)]

        def implied(k):
            floor = 0.0
            for i, cov, low in zip(combo, covers, floors):
                if k in cov:
                    floor += coeffs.psi(k - i) * low
            return floor > thresholds[k]

        (pruned if all(implied(k) for k in shared) else drawn).append(rank)
    return exact, pruned, drawn


# Tuples 9 and 10 share constraint 1 with floors that imply it, tuple 12 does not.
MIXED_RECT = UpperRect({0: 1.0, 1: 3.0, 2: 1.0})
# Tuple 55, positions (0, 2, 4), keeps shared constraints 2 and 4 open; it
# integrates position 4 out, which does not reach 2, so 2 stays an indicator
# (and fails on about half the samples).
INDICATOR_PSI = ExplicitFinite([1.0, 1.0, 0.5])
INDICATOR_RECT = UpperRect({0: 2.0, 1: 4.0, 2: 8.0, 3: 1.0, 4: 20.0, 6: 8.0})


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

    @given(gapped(6), st.integers(0, 6), rects(7))
    def test_sweep_matches_exhaustive_oracle_on_gapped_coefficients(self, coeffs, m, rect):
        assert spike_cover_number(coeffs, m, rect) == cover_oracle(coeffs, m, rect)

    @settings(max_examples=60, deadline=None)
    @given(gapped(4), st.integers(0, 4), rects(5))
    def test_cover_counts_match_the_exhaustive_tuples(self, coeffs, m, rect):
        # One sweep gives the exhaustive cover number and the oracle's count
        # of covering sets of that size; no smaller set covers.
        blocks = limit_measures._candidate_positions(coeffs, m, rect)
        cover, count = limit_measures._cover_counts(blocks, rect.indices)
        assert cover == cover_oracle(coeffs, m, rect)
        assert count == len(list(covering_tuples(coeffs, m, cover - 1, rect)))
        assert all(not list(covering_tuples(coeffs, m, s - 1, rect)) for s in range(1, cover))

    @settings(max_examples=100, deadline=None)
    @given(gapped(6), st.integers(0, 8), rects(5), st.integers(1, 9))
    def test_table_blocks_join_to_the_reaching_positions(self, coeffs, m, rect, cells):
        # Blocks of any size join to the positions that reach K, each one's
        # psi_{k-i} on every constraint; the order-0 sum keeps its bytes and
        # the covering sweep its counts.
        whole = nu_m0_rect(coeffs, m, 1.5, rect)
        counts = limit_measures._cover_counts(limit_measures._candidate_positions(coeffs, m, rect),
                                              rect.indices)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(limit_measures, "CHUNK_CELLS", cells)
            positions, weights = table(coeffs, m, rect)
            assert nu_m0_rect(coeffs, m, 1.5, rect) == whole
            assert limit_measures._cover_counts(limit_measures._candidate_positions(coeffs, m, rect),
                                                rect.indices) == counts

        def lag(k, i):
            return coeffs.psi(k - i) if 0 <= k - i <= coeffs.capped(m) else 0.0

        want = [i for i in range(rect.min_index - m, rect.max_index + 1)
                if any(lag(k, i) for k in rect.indices)]
        assert positions.tolist() == want
        assert weights.tolist() == [[lag(k, i) for k in rect.indices] for i in want]

    def test_infeasible_deep_row_in_milliseconds(self):
        # Geometric(0.5) reaches about 1075 lags before psi underflows; the
        # sweep keeps the fewest spikes per covered set, whatever j.
        rect = UpperRect({0: 1.0, 3: 2.0})
        start = time.perf_counter()
        got = nu_m_j_rect(Geometric(0.5), 10**4, 1.0, 1000, rect)
        assert time.perf_counter() - start < 0.1
        assert got.is_infinite and got.note.startswith("1 spike(s) already cover")

    def test_long_rectangle_in_milliseconds(self):
        # psi = (1, 0, 1) covers k and k + 2: 40 contiguous constraints need
        # 20 spikes; exhaustive search would try every subset of 42 positions.
        rect = UpperRect({k: 1.0 for k in range(40)})
        start = time.perf_counter()
        assert spike_cover_number(ExplicitFinite([1.0, 0.0, 1.0]), 2, rect) == 20
        assert time.perf_counter() - start < 1.0

    def test_far_apart_constraints_cost_only_their_windows(self):
        # The candidates are the positions within m of a constraint, not the
        # billion indices between the two; the four covering pairs factor.
        rect = UpperRect({0: 1.0, 10**9: 1.0})
        start = time.perf_counter()
        assert spike_cover_number(PSI_HALF, 1, rect) == 2
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect, 16, seed=1)
        assert time.perf_counter() - start < 0.5
        assert (got.value, got.method, got.stderr) == (2.25, EvalMethod.ENUMERATION, None)

    def test_order_past_a_finite_family_costs_nothing(self):
        # Lags past the order reach nothing, so m = 10^6 is the m = 1 sweep.
        rect = UpperRect({0: 1.0, 2: 1.0})
        start = time.perf_counter()
        got = spike_cover_number(PSI_HALF, 10**6, rect)
        assert time.perf_counter() - start < 0.1
        assert got == spike_cover_number(PSI_HALF, 1, rect) == 2


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

    @given(
        st.one_of(gapped(8), st.builds(Geometric, st.floats(0.05, 0.95)),
                  st.builds(Polynomial, st.floats(0.3, 3.0))),
        st.integers(0, 8),
        st.floats(0.2, 3.0),
        rects(5),
    )
    def test_bitwise_equal_to_per_position_oracle(self, coeffs, m, alpha, rect):
        assert nu_m0_rect(coeffs, m, alpha, rect).value == m0_oracle(coeffs, m, alpha, rect)

    def test_order_past_a_finite_family_is_not_a_depth(self):
        # m over the depth budget is capped at the order before any psi vector is built.
        for rect in (UpperRect({0: 1.0}), UpperRect({0: 1.0, 1: 2.0}), UpperRect({-3: 2.0, 4: 1.0})):
            assert nu_m0_rect(PSI_HALF, 10**6 + 1, 1.3, rect) == nu_m0_rect(PSI_HALF, 1, 1.3, rect)


class TestNuMJRect:
    def test_identity_uses_closed_form(self):
        got = nu_m_j_rect(IDENTITY, 0, 1.0, 1, UpperRect({0: 1.0, 1: 1.0}))
        assert (got.value, got.method, got.stderr) == (1.0, EvalMethod.CLOSED_FORM, None)

    def test_identity_row_uses_closed_form_without_cover_search(self, monkeypatch):
        # 30 constraints: a spike-cover search would enumerate 2^30 subsets
        monkeypatch.setattr(limit_measures, "_cover_counts", lambda *a: pytest.fail("searched"))
        got = nu_m_j_rect(IDENTITY, 0, 1.0, 1, UpperRect({k: 1.0 for k in range(30)}))
        assert (got.value, got.method) == (0.0, EvalMethod.CLOSED_FORM)

    def test_iid_pair_reduction(self):
        # m = 1 is past the identity's order: the tuple walk, not the closed form.
        got = nu_m_j_rect(IDENTITY, 1, 1.0, 1, UpperRect({0: 1.0, 1: 1.0}), 100, seed=1)
        assert got.value == 1.0
        assert (got.method, got.stderr) == (EvalMethod.ENUMERATION, None)

    def test_factoring_rectangle_frozen_value(self):
        # Four covering pairs, each factoring into marginal tails:
        # 1/4 + 1/2 + 1/2 + 1 = 2.25.
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, UpperRect({0: 1.0, 2: 1.0}), 1000, seed=1)
        assert got.value == pytest.approx(2.25, rel=1e-12)
        assert (got.method, got.stderr) == (EvalMethod.ENUMERATION, None)

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

    @settings(max_examples=60, deadline=None)
    @example(Polynomial(2), 300_000, 1.0, UpperRect({0: 1.0}))  # 300,001 one-spike tuples
    @example(PSI_HALF, -1, 1.0, UpperRect({0: 1.0}))
    @example(PSI_HALF, 1, math.nan, UpperRect({0: 1.0}))
    @given(st.one_of(gapped(8), st.builds(Geometric, st.floats(0.05, 0.95)),
                     st.builds(Polynomial, st.floats(0.3, 3.0))),
           st.integers(0, 8), st.floats(0.2, 3.0), rects(5))
    def test_order_zero_equals_enumeration(self, coeffs, m, alpha, rect):
        # Bit for bit, errors included, whatever the integration budget.
        def outcome(evaluate, *args):
            try:
                return evaluate(*args)
            except ParameterError as exc:
                return str(exc)

        want = outcome(nu_m0_rect, coeffs, m, alpha, rect)
        if m == 0 and coeffs.order == 0 and coeffs.psi(0) == 1.0:
            want = mu_j_rect(0, alpha, rect)  # identity coefficients: the closed form
        assert outcome(nu_m_j_rect, coeffs, m, alpha, 0, rect, 0, 4) == want

    def test_uncoverable_rectangle_is_flagged_infinite(self):
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, UpperRect({0: 1.0, 1: 1.0}), 100, seed=5)
        assert got.is_infinite and got.note

    def test_budget_validation(self):
        with pytest.raises(ParameterError):
            nu_m_j_rect(PSI_HALF, 1, 1.0, 1, UpperRect({0: 1.0, 2: 1.0}), 0, seed=1)

    def test_order_past_a_finite_family_keeps_the_bytes(self):
        rect = UpperRect({0: 1.0, 1: 5.0, 2: 1.0})
        start = time.perf_counter()
        far = nu_m_j_rect(PSI_HALF, 10**6, 1.0, 1, rect, 1000, seed=9)
        assert time.perf_counter() - start < 0.5
        assert far == nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect, 1000, seed=9)

    def test_degenerate_coefficients_reduce_to_iid_measure(self):
        rects = [
            (1, UpperRect({0: 1.0, 1: 1.0})),
            (1, UpperRect({0: 2.0, 3: 0.5})),
            (1, UpperRect({0: 1.0, 1: 1.0, 2: 1.0})),
            (2, UpperRect({0: 1.0, 1: 1.0})),
            (2, UpperRect({-1: 1.0, 1: 2.0, 4: 1.0})),
        ]
        for j, rect in rects:
            got = nu_m_j_rect(IDENTITY, 1, 1.0, j, rect, 100, seed=6)  # the walk, not the closed form
            want = mu_j_rect(j, 1.0, rect)
            if want.is_infinite:
                assert got.is_infinite
            else:
                assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("coeffs, m, j, rect", [
        (PSI_HALF, 1, 1, UpperRect({0: 1.0, 1: 5.0, 2: 1.0})),
        (ExplicitFinite([1.0, 0.5, 0.0, 0.75]), 3, 1, UpperRect({0: 1.0, 2: 2.0, 5: 1.0})),
        (ExplicitFinite([1.0, 0.5, 0.0, 0.75]), 3, 2, UpperRect({0: 1.0, 3: 2.0, 4: 1.0, 8: 1.0})),
        (ExplicitFinite([1.0, 0.5, 0.0, 0.75]), 3, 1, MIXED_RECT),
    ])
    def test_streams_are_ranks_of_shared_tuples(self, monkeypatch, coeffs, m, j, rect):
        # Only tuples with a shared constraint their floors leave open draw.
        exact, pruned, drawn = tuple_kinds(coeffs, m, j, rect)
        assert exact and (pruned or drawn)
        if rect == MIXED_RECT:
            assert pruned and drawn
        made = []
        original = limit_measures.block_generator

        def recording(seed, rank):
            made.append(rank)
            return original(seed, rank)

        monkeypatch.setattr(limit_measures, "block_generator", recording)
        assert not nu_m_j_rect(coeffs, m, 1.0, j, rect, 64, seed=7).is_infinite
        assert made == drawn

    # Thresholds either low or high, so that shared constraints are sometimes
    # implied by the members' floors and sometimes left open.
    MIXED_THRESHOLDS = st.dictionaries(
        st.integers(-2, 6), st.one_of(st.floats(0.1, 1.0), st.floats(1.0, 20.0)),
        min_size=2, max_size=6,
    ).map(UpperRect)

    @settings(max_examples=80, deadline=None)
    @example(ExplicitFinite([1.0, 0.5, 0.0, 0.75]), 3, 1, 1.3, MIXED_RECT, 7)
    @example(PSI_HALF, 1, 1, 0.5, UpperRect({0: 1.0, 1: 5.0, 2: 1.0}), 3)
    @example(ExplicitFinite([1.0, 0.8, 0.6, 0.4, 0.2]), 4, 2, 2.0,
             UpperRect({0: 1.0, 2: 5.0, 5: 1.0, 7: 5.0, 10: 1.0}), 11)
    @example(INDICATOR_PSI, 2, 2, 1.0, INDICATOR_RECT, 5)
    @given(gapped(4), st.integers(0, 4), st.sampled_from([1, 2, 3]),
           st.sampled_from([0.5, 1.0, 1.3, 2.0, 3.0]), MIXED_THRESHOLDS, st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_unpruned_reference(self, coeffs, m, j, alpha, rect, seed):
        # Exact and pruned tuples keep the crude reference's bits; drawn tuples
        # integrate one member out on the shifted lattice, restated point by
        # point in the conditional reference (same shifts, other rounding in
        # the power and the sums).  Tuple ``rank`` draws from sub-stream
        # ``rank`` of the root derived from ``seed``.
        got = nu_m_j_rect(coeffs, m, alpha, j, rect, 64, seed=seed)
        if got.is_infinite:
            assert cover_oracle(coeffs, m, rect) <= j
            return
        drawn = set(tuple_kinds(coeffs, m, j, rect)[2])
        total = var_total = 0.0
        for rank, positions, covers in covering_tuples(coeffs, m, j, rect):
            args = (coeffs, alpha, rect, positions, covers, 64, tuple_stream_root(seed), rank)
            value, variance = tuple_contribution(*args)
            if rank in drawn:
                want, want_var = conditional_tuple_reference(*args)
                assert math.isclose(value, want, rel_tol=1e-12, abs_tol=0.0)
                assert math.isclose(variance, want_var, rel_tol=1e-12, abs_tol=0.0)
            else:
                assert (value, variance) == tuple_contribution_reference(*args)
                assert variance == 0.0
            total += value
            var_total += variance
        if drawn:
            assert (got.value, got.stderr) == (total, math.sqrt(var_total))
        else:
            assert (got.value, got.method, got.stderr) == (total, EvalMethod.ENUMERATION, None)

    @pytest.mark.parametrize("coeffs, m, j, alpha, rect", [
        (ExplicitFinite([1.0, 0.5, 0.0, 0.75]), 3, 1, 1.3, MIXED_RECT),
        (PSI_HALF, 1, 1, 0.5, UpperRect({0: 1.0, 1: 5.0, 2: 1.0})),
        (ExplicitFinite([1.0, 0.8, 0.6, 0.4, 0.2]), 4, 2, 2.0,
         UpperRect({0: 1.0, 2: 5.0, 5: 1.0, 7: 5.0, 10: 1.0})),
        (INDICATOR_PSI, 2, 2, 1.0, INDICATOR_RECT),
    ])
    def test_drawn_tuples_agree_with_crude_counting(self, coeffs, m, j, alpha, rect):
        # Both estimate the same tuple integral from sub-stream ``rank``.
        drawn = set(tuple_kinds(coeffs, m, j, rect)[2])
        assert drawn
        for rank, positions, covers in covering_tuples(coeffs, m, j, rect):
            if rank in drawn:
                args = (coeffs, alpha, rect, positions, covers, 20_000, 13, rank)
                value, variance = tuple_contribution(*args)
                crude, crude_var = tuple_contribution_reference(*args)
                assert abs(value - crude) <= 4 * math.sqrt(variance + crude_var)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 2.0, 3.0, 60.0])
    def test_pareto_draws_never_fall_below_one(self, alpha):
        # Pruning rests on this: a draw of L * Pareto is never below its floor L.
        u = 1.0 - np.arange(20_001) * 2.0**-53  # 1.0 and the 20,000 doubles below it
        assert u[-1] == np.nextafter(u[-2], 0.0)
        model = TailModel.standard_pareto(alpha)
        assert np.all(model.inverse_survival(u) >= 1.0)
        assert np.all(model.inverse_survival(u.copy(), out=np.empty_like(u)) >= 1.0)
        in_place = u.copy()
        assert np.all(model.inverse_survival(in_place, out=in_place) >= 1.0)


THEORY_B_PSI = ExplicitFinite([1.0, 0.8, 0.6, 0.4, 0.2])
THEORY_B_J2_RECT = UpperRect({0: 1.0, 2: 5.0, 5: 1.0, 7: 5.0, 10: 1.0})


def table(coeffs, m, rect):
    """The whole spike-image table, (positions, weights), its blocks joined."""
    return tuple(map(np.concatenate, zip(*limit_measures._candidate_positions(coeffs, m, rect))))


def walked(coeffs, m, j, rect, chunk):
    """(rank, positions, covers) of every tuple the chunked walk yields, in order."""
    positions, weights = table(coeffs, m, rect)
    out = []
    for tuples in limit_measures._tuple_chunks(positions, weights > 0.0, rect.indices, j + 1, chunk):
        assert 0 < len(tuples) <= max(chunk, len(positions))
        for combo in tuples.tolist():
            covers = [sum(1 << p for p in np.flatnonzero(weights[c]).tolist()) for c in combo]
            out.append((limit_measures._rank(combo, len(positions)),
                        tuple(positions[combo].tolist()), covers))
    return out


class TestTupleWalk:
    MIXED_THRESHOLDS = TestNuMJRect.MIXED_THRESHOLDS

    @settings(max_examples=80, deadline=None)
    @example(ExplicitFinite([1.0, 0.0, 1.0]), 2, 9, UpperRect({k: 1.0 for k in range(18)}), 4096)
    @example(THEORY_B_PSI, 4, 5, UpperRect({k: 1.0 for k in range(0, 26, 5)}), 4096)
    @example(THEORY_B_PSI, 4, 5, UpperRect({k: 1.0 for k in range(0, 26, 5)}), 1000)
    @given(gapped(4), st.integers(0, 4), st.sampled_from([1, 2, 3]), MIXED_THRESHOLDS,
           st.sampled_from([1, 3, 4096]))
    def test_walk_yields_the_oracle_sequence(self, coeffs, m, j, rect, chunk):
        # Lexicographic order and ranks among all combinations, whether or not
        # the rectangle is bounded away; when it is (cover > j), the covering
        # sweep's count is the walk's total: its covers at j + 1, none beyond.
        want = [(rank, tuple(combo), covers)
                for rank, combo, covers in covering_tuples(coeffs, m, j, rect)]
        assert walked(coeffs, m, j, rect, chunk) == want
        blocks = limit_measures._candidate_positions(coeffs, m, rect)
        cover, count = limit_measures._cover_counts(blocks, rect.indices)
        assert cover == cover_oracle(coeffs, m, rect)
        if cover > j:
            assert (count if cover == j + 1 else 0) == len(want)

    @pytest.mark.parametrize("coeffs, m, j, rect", [
        (THEORY_B_PSI, 4, 2, THEORY_B_J2_RECT),
        (INDICATOR_PSI, 2, 2, INDICATOR_RECT),
    ])
    def test_members_without_an_open_constraint_draw_no_column(self, monkeypatch, coeffs, m, j, rect):
        # Each drawn tuple reads one (SHIFTS, r) array of lattice shifts.
        shapes = []
        original = limit_measures.block_generator

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def random(self, shape):
                shapes.append(shape)
                return self.rng.random(shape)

        monkeypatch.setattr(limit_measures, "block_generator",
                            lambda seed, rank: Recording(original(seed, rank)))
        nu_m_j_rect(coeffs, m, 1.0, j, rect, 64, seed=3)
        want = []
        for _, positions, covers in covering_tuples(coeffs, m, j, rect):
            _, open_, _, read = conditional_plan(coeffs, rect, positions, covers)
            if open_:
                want.append((limit_measures.SHIFTS, len(read)))
        assert shapes == want
        # Some drawn tuple has a member that holds no open constraint.
        assert any(cols < j for _, cols in shapes)

    def test_over_the_tuple_budget_raises_before_the_walk(self, monkeypatch):
        # psi = (1, .5), constraints 3 apart: each one is reached by two
        # positions and by no other constraint's, so 2^K covering K-tuples.
        rect = UpperRect({3 * i: 1.0 for i in range(12)})
        monkeypatch.setattr(limit_measures, "MAX_TUPLES", 4096)
        assert not nu_m_j_rect(PSI_HALF, 1, 1.0, 11, rect, 16, seed=1).is_infinite
        monkeypatch.setattr(limit_measures, "MAX_TUPLES", 4095)
        monkeypatch.setattr(limit_measures, "_tuple_chunks", lambda *a: pytest.fail("walked"))
        with pytest.raises(UnsupportedError, match="4096 covering spike tuples exceed the tuple budget of 4095"):
            nu_m_j_rect(PSI_HALF, 1, 1.0, 11, rect, 16, seed=1)

    def test_over_the_lattice_point_limit_raises_before_any_draw(self, monkeypatch):
        # Every drawn tuple evaluates SHIFTS * ceil(budget / SHIFTS) points:
        # 16 * 7 = 112 at budget 100.
        drawn = len(tuple_kinds(THEORY_B_PSI, 4, 2, THEORY_B_J2_RECT)[2])
        points = drawn * 112
        monkeypatch.setattr(limit_measures, "MAX_LATTICE_POINTS", points)
        assert nu_m_j_rect(THEORY_B_PSI, 4, 1.0, 2, THEORY_B_J2_RECT, 100, seed=1).stderr > 0.0
        monkeypatch.setattr(limit_measures, "MAX_LATTICE_POINTS", points - 1)
        monkeypatch.setattr(limit_measures, "block_generator", lambda *a: pytest.fail("drew"))
        with pytest.raises(UnsupportedError, match=f"{drawn} drawn spike tuples need {points} "
                           f"lattice points, above the limit of {points - 1} "):
            nu_m_j_rect(THEORY_B_PSI, 4, 1.0, 2, THEORY_B_J2_RECT, 100, seed=1)

    def test_many_drawn_tuples_are_refused_in_milliseconds(self):
        # psi = (1, 1, 1, 1, 1), 21 constraints 3 apart, thresholds alternating
        # 1 and 5, at the cover number: 20,480 of 35,840 tuples draw, about a
        # minute of integration at the default budget.
        rect = UpperRect({3 * i: 5.0 if i % 2 else 1.0 for i in range(21)})
        start = time.perf_counter()
        with pytest.raises(UnsupportedError, match="20480 drawn spike tuples need 4096000000 lattice points"):
            nu_m_j_rect(ExplicitFinite([1.0] * 5), 4, 1.0, 10, rect, seed=1)
        assert time.perf_counter() - start < 1.0



class TestConditionalEfficiency:
    """Integrating one member out on a shifted lattice must cut the variance,
    report it honestly, and not move the value."""

    ROWS = [
        (THEORY_B_PSI, 4, UpperRect({0: 1.0, 2: 6.0, 5: 1.0})),
        (THEORY_B_PSI, 4, UpperRect({0: 1.0, 3: 4.0, 6: 1.0})),
        (PSI_HALF, 1, UpperRect({0: 1.0, 1: 5.0, 2: 1.0})),
    ]

    @staticmethod
    @functools.cache
    def pair_value(coeffs, m, rect):
        return pair_integral(coeffs, m, 1.0, rect)

    @staticmethod
    @functools.cache
    def j2_value():
        return one_member_integral(THEORY_B_PSI, 4, 1.0, 2, THEORY_B_J2_RECT)

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("coeffs, m, rect", ROWS)
    def test_quarter_of_crude_variance_on_the_pair_integral(self, coeffs, m, rect, seed):
        got = nu_m_j_rect(coeffs, m, 1.0, 1, rect, 200_000, seed=seed)
        _, crude_stderr = nu_m_j_rect_reference(coeffs, m, 1.0, 1, rect, 200_000, seed)
        assert got.stderr**2 <= crude_stderr**2 / 4
        assert 0.0 < got.stderr <= 1e-8
        assert abs(got.value - self.pair_value(coeffs, m, rect)) <= 3 * got.stderr

    @pytest.mark.parametrize("seed", [42, 7])
    def test_j2_row_against_the_one_member_integral(self, seed):
        # Each of the row's 30 drawn triples reads one member.
        got = nu_m_j_rect(THEORY_B_PSI, 4, 1.0, 2, THEORY_B_J2_RECT, 200_000, seed=seed)
        assert 0.0 < got.stderr <= 1e-8
        assert abs(got.value - self.j2_value()) <= 4 * got.stderr

    def test_one_member_oracle(self):
        # On the j = 1 rows it is the pair integral; on the j = 2 row node
        # doubling moves it by under 1e-12, far below the row's 2e-10 stderr.
        for coeffs, m, rect in self.ROWS:
            got = one_member_integral(coeffs, m, 1.0, 1, rect)
            assert abs(got - self.pair_value(coeffs, m, rect)) <= 1e-12
        fine = one_member_integral(THEORY_B_PSI, 4, 1.0, 2, THEORY_B_J2_RECT, nodes=2 * 10**6)
        assert abs(self.j2_value() - fine) <= 1e-12

    def test_error_falls_like_the_square_of_the_budget(self):
        # The fold makes each coordinate's integrand periodic: from 2^12 to
        # 2^16 points the RMS stderr over three seeds fell 176 to 262 times
        # on these rows, where unfolded (1 - u) it fell 15.5 to 17.3 times.
        rows = [(coeffs, m, 1, rect) for coeffs, m, rect in self.ROWS]
        for coeffs, m, j, rect in rows + [(THEORY_B_PSI, 4, 2, THEORY_B_J2_RECT)]:
            rms = [math.sqrt(np.mean([nu_m_j_rect(coeffs, m, 1.0, j, rect, budget, seed=seed).stderr**2
                                      for seed in (42, 7, 3)]))
                   for budget in (2**12, 2**16)]
            assert rms[0] >= 64 * rms[1]

    def test_zero_survival_at_the_lattice_midpoint(self, monkeypatch):
        # Every shift 1/2 puts lattice point 0 at u = 1/2, where the folded
        # survival is 0 and the read member's value inf: its need is -inf and
        # its score 1, with no divide warning.
        _, m, rect = self.ROWS[2]
        (rank, positions, covers), = [t for t in covering_tuples(PSI_HALF, m, 1, rect)
                                      if t[0] in tuple_kinds(PSI_HALF, m, 1, rect)[2]]

        class Halves:
            def random(self, shape):
                return np.full(shape, 0.5)

        for module in (limit_measures, oracles):
            monkeypatch.setattr(module, "block_generator", lambda seed, rank: Halves())
        args = (PSI_HALF, 1.0, rect, positions, covers, 64, 42, rank)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, variance = tuple_contribution(*args)
        assert math.isfinite(value) and variance == 0.0
        want, _ = conditional_tuple_reference(*args)
        assert math.isclose(value, want, rel_tol=1e-12, abs_tol=0.0)

    def test_pair_integral_oracle(self):
        # The pencil value of the binding PSI_HALF row, and node doubling on
        # the theory-b rows: the oracle is good to well under 1e-9, where the
        # 1500-point tensor grid is off by up to about 2e-6.
        _, m, rect = self.ROWS[2]
        pencil = 0.2 + math.log(13.5) / 50.0 + 0.25
        assert abs(self.pair_value(PSI_HALF, m, rect) - pencil) <= 1e-11
        for coeffs, m, rect in self.ROWS[:2]:
            fine = pair_integral(coeffs, m, 1.0, rect, nodes=2 * 10**6)
            assert abs(self.pair_value(coeffs, m, rect) - fine) <= 1e-11

    def test_stderr_is_honest_over_seeds(self):
        # The seed-to-seed spread of each drawn theory-b row matches the
        # stderr it reports (16 shifts: 15 degrees of freedom per seed).
        rows = [(1, rect) for _, _, rect in self.ROWS[:2]] + [(2, THEORY_B_J2_RECT)]
        for j, rect in rows:
            got = [nu_m_j_rect(THEORY_B_PSI, 4, 1.0, j, rect, 2**14, seed=seed) for seed in range(40)]
            spread = np.std([g.value for g in got], ddof=1)
            reported = math.sqrt(np.mean([g.stderr**2 for g in got]))
            assert 0.6 * reported <= spread <= 1.6 * reported

    def test_lattice_beats_iid_conditional_draws(self):
        # The binding PSI_HALF pair, one read member: the same conditional
        # score on i.i.d. draws has at least 100 times the variance.
        _, m, rect = self.ROWS[2]
        (rank, positions, covers), = [t for t in covering_tuples(PSI_HALF, m, 1, rect)
                                      if t[0] in tuple_kinds(PSI_HALF, m, 1, rect)[2]]
        args = (PSI_HALF, 1.0, rect, positions, covers, 20_000, 42, rank)
        _, variance = tuple_contribution(*args)
        _, iid_variance = iid_conditional_reference(*args)
        assert 0.0 < 100 * variance <= iid_variance

    def test_alpha_60_binding_row_against_its_integral(self):
        # Pairs (-1, 1) and (0, 2) are exact, 10^-60 each.  The drawn pair
        # (0, 1) has z_0 > 1, z_1 > 2 and 0.5 z_0 + z_1 > 5; integrating z_1
        # out leaves int_1^inf 60 z^-61 max(2, 5 - z/2)^-60 dz, taken here by
        # the midpoint rule on [1, 6] plus the closed-form piece past 6.
        # Crude counting needs a Pareto(60) draw 2.25 times its floor and
        # sees no hit in 200,000 samples.
        n = 1_000_000
        z = 1.0 + (np.arange(n) + 0.5) * (5.0 / n)
        pair = float(np.sum(60.0 * z**-61 * (5.0 - z / 2) ** -60)) * (5.0 / n) + 12.0**-60
        truth = pair + 2 * 10.0**-60
        rect = UpperRect({0: 1.0, 1: 5.0, 2: 1.0})
        for seed in (42, 7):
            got = nu_m_j_rect(PSI_HALF, 1, 60.0, 1, rect, 200_000, seed=seed)
            assert 0.0 < got.stderr < 1e-3 * got.value
            assert abs(got.value - truth) <= 3 * got.stderr
            assert nu_m_j_rect_reference(PSI_HALF, 1, 60.0, 1, rect, 200_000, seed) == (2e-60, 0.0)

    def test_alpha_60_power_underflows_to_zero(self):
        # need / L_c is about 5e5 on every sample and 5e5^-60 is below the
        # smallest double: the drawn pair and both exact pairs read zero.
        rect = UpperRect({0: 1.0, 1: 1e6, 2: 1.0})
        got = nu_m_j_rect(PSI_HALF, 1, 60.0, 1, rect, 1000, seed=42)
        assert (got.value, got.stderr) == (0.0, 0.0)
        assert nu_m_j_rect_reference(PSI_HALF, 1, 60.0, 1, rect, 1000, 42) == (0.0, 0.0)

    def test_indicator_tuple_is_not_noisier(self):
        # Constraint 2 of tuple 55 stays an indicator; constraint 4 is integrated.
        (positions, covers), = [(pos, cov) for rank, pos, cov
                                in covering_tuples(INDICATOR_PSI, 2, 2, INDICATOR_RECT) if rank == 55]
        for seed in (42, 7):
            args = (INDICATOR_PSI, 1.0, INDICATOR_RECT, positions, covers, 200_000, seed, 55)
            value, variance = tuple_contribution(*args)
            crude, crude_var = tuple_contribution_reference(*args)
            assert 0.0 < variance <= crude_var
            assert abs(value - crude) <= 4 * math.sqrt(variance + crude_var)
        args = (INDICATOR_PSI, 1.0, INDICATOR_RECT, positions, covers, 20_000, 42, 55)
        got, want = tuple_contribution(*args), conditional_tuple_reference(*args)
        assert all(math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0) for g, w in zip(got, want))


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


# NaN compares false with every bound, so a "<= 0" check lets it through.
NAN_ARGUMENTS = {
    "nu_alpha_tail-alpha": lambda: nu_alpha_tail(1.0, math.nan),
    "nu_alpha_tail-threshold": lambda: nu_alpha_tail(math.nan, 1.0),
    "mu_j_rect": lambda: mu_j_rect(0, math.nan, UpperRect({0: 1.0})),
    "nu_m0_rect": lambda: nu_m0_rect(PSI_HALF, 1, math.nan, UpperRect({0: 1.0})),
    "nu_m_j_rect": lambda: nu_m_j_rect(PSI_HALF, 1, math.nan, 1, UpperRect({0: 1.0, 2: 1.0}), 10),
    "marginal_tail_constant": lambda: marginal_tail_constant(PSI_HALF, math.nan),
    "nu_inf_0_rect": lambda: nu_inf_0_rect(Geometric(0.5), math.nan, UpperRect({0: 1.0})),
    "truncation_diagnostic": lambda: truncation_diagnostic(
        PSI_HALF, TailModel.standard_pareto(1.0), 0, 10.0, math.nan, 100, 1),
    "continuity_modulus": lambda: continuity_modulus(PSI_HALF, 1, math.nan),
    "UpperRect.scaled": lambda: UpperRect({0: 1.0}).scaled(math.nan),
    "spike": lambda: spike(0, math.nan),
    "scale": lambda: scale(spike(0, 1.0), math.nan),
}


@pytest.mark.parametrize("case", sorted(NAN_ARGUMENTS))
def test_nan_argument_is_rejected(case):
    with pytest.raises(ParameterError):
        NAN_ARGUMENTS[case]()
