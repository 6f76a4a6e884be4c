import functools
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    innovations,
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

from oracles import (
    conditional_plan,
    cover_oracle,
    coverage,
    covering_tuples,
    importance_row_reference,
    importance_tuple_reference,
    log_grid_tuple,
    m0_oracle,
    one_member_integral,
    one_member_tuple,
    order1_quadrature,
    pair_integral,
    tuple_contribution,
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
# Rows whose drawn tuples all read two members, so all take the nested
# rule: at j = 2 one tuple; at j = 3 three, each with a member that holds no
# open constraint.
TWO_READ_PSI = ExplicitFinite([1.0, 0.0, 1.0, 1.0])
TWO_READ_RECT = UpperRect({1: 0.5, 2: 0.5, 4: 5.0, 5: 5.0, 8: 1.0})
TWO_READ_J3_RECT = UpperRect({0: 1.0, 4: 0.5, 5: 3.0, 7: 3.0, 8: 0.5, 9: 1.0})
# Six drawn tuples read one member and one reads two.
MIXED_READS_PSI = ExplicitFinite([1.0, 0.52, 0.52, 0.3])
MIXED_READS_RECT = UpperRect({1: 0.7, 4: 3.3, 6: 1.0, 7: 6.5, 10: 1.1})


def reads_of_drawn(coeffs, m, j, rect):
    """{rank: read member count} of the drawn covering tuples."""
    out = {}
    for rank, positions, covers in covering_tuples(coeffs, m, j, rect):
        _, open_, _, read = conditional_plan(coeffs, rect, positions, covers)
        if open_:
            out[rank] = len(read)
    return out


# The row where the randomized lattice once wrote 4.860300718644781 +-
# 0.00024, 32 of its stderr below the value: one tuple of mass 7267 has a
# conditional probability near 1.1e-6 that no lattice point reached.
THIN_PSI = ExplicitFinite([1.0, 0.18081649132319, 0.0, 0.0, 0.5424626474559724, 0.9579303981563988])
THIN_RECT = UpperRect({0: 0.1137792641451834, 1: 0.4939123165568636, 3: 0.3373184717750732,
                       6: 2.124378661364133, 7: 0.4224308076910685, 9: 12.208381268563805,
                       10: 0.22110143237066376, 12: 0.12614462295670778})

# A row where, once one read member is fixed, another reads only checks
# that turned constant, so the group left excludes it.
SPLIT_PSI = ExplicitFinite([1.0, 0.5626459628404403, 1.4627970737729683, 0.0, 1.331554014574872])
SPLIT_RECT = UpperRect({1: 0.5346856716721242, 3: 0.1933955157009784, 4: 1.425027187300447,
                        5: 0.3654820433042203, 7: 0.8044617546765658, 8: 0.13976953982445092,
                        10: 15.340070540599513, 11: 10.922283040348534, 13: 1.9919149778510912,
                        14: 0.39739823706697686})

# A row whose tuples read three members that no check splits, so each level
# of the nested rule multiplies the nodes of the one inside.
DEEP_PSI = ExplicitFinite([1.0, 0.0, 0.11290790407676086, 0.6556365745698197, 1.277439713363003])
DEEP_RECT = UpperRect({0: 0.38068801661322976, 5: 0.10486513685450112, 6: 0.17283740987257032,
                       8: 0.14628358051156673, 9: 11.544185929847535, 12: 0.31015013211065035,
                       13: 4.481715755037925, 15: 0.10828855392255897})


def nested_ranks(coeffs, m, j, rect):
    """Ranks of the drawn tuples that read two or more members."""
    return [rank for rank, r in reads_of_drawn(coeffs, m, j, rect).items() if r >= 2]


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
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect)
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
        got = nu_m_j_rect(IDENTITY, 1, 1.0, 1, UpperRect({0: 1.0, 1: 1.0}))
        assert got.value == 1.0
        assert (got.method, got.stderr) == (EvalMethod.ENUMERATION, None)

    def test_factoring_rectangle_frozen_value(self):
        # Four covering pairs, each factoring into marginal tails:
        # 1/4 + 1/2 + 1/2 + 1 = 2.25.
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, UpperRect({0: 1.0, 2: 1.0}))
        assert got.value == pytest.approx(2.25, rel=1e-12)
        assert (got.method, got.stderr) == (EvalMethod.ENUMERATION, None)

    def test_factoring_rectangle_matches_quadrature(self):
        rect = UpperRect({0: 1.0, 2: 1.0})
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect)
        oracle = order1_quadrature(PSI_HALF, 1, 1.0, rect)
        assert got.value == pytest.approx(oracle, rel=0.01)

    def test_shared_constraint_case_against_quadrature_and_pencil(self):
        # z1 > 1, z2 > 2 privately, plus the genuinely binding coupled
        # constraint 0.5 z1 + z2 > 5 on the middle coordinate; partial
        # fractions give 0.1 + (ln(13.5)/50 + 1/4) + 0.1.
        rect = UpperRect({0: 1.0, 1: 5.0, 2: 1.0})
        # The drawn pair reads one member: Gauss-Legendre, exact to rounding.
        pencil = 0.2 + math.log(13.5) / 50.0 + 0.25
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect)
        assert got.method is EvalMethod.QUADRATURE
        assert 0.0 < got.stderr <= 1e-14 * got.value
        assert abs(got.value - pencil) <= got.stderr
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
        # Bit for bit, errors included.
        def outcome(evaluate, *args):
            try:
                return evaluate(*args)
            except ParameterError as exc:
                return str(exc)

        want = outcome(nu_m0_rect, coeffs, m, alpha, rect)
        if m == 0 and coeffs.order == 0 and coeffs.psi(0) == 1.0:
            want = mu_j_rect(0, alpha, rect)  # identity coefficients: the closed form
        assert outcome(nu_m_j_rect, coeffs, m, alpha, 0, rect) == want

    def test_uncoverable_rectangle_is_flagged_infinite(self):
        got = nu_m_j_rect(PSI_HALF, 1, 1.0, 1, UpperRect({0: 1.0, 1: 1.0}))
        assert got.is_infinite and got.note

    def test_order_past_a_finite_family_keeps_the_bytes(self):
        rect = UpperRect({0: 1.0, 1: 5.0, 2: 1.0})
        start = time.perf_counter()
        far = nu_m_j_rect(PSI_HALF, 10**6, 1.0, 1, rect)
        assert time.perf_counter() - start < 0.5
        assert far == nu_m_j_rect(PSI_HALF, 1, 1.0, 1, rect)

    def test_degenerate_coefficients_reduce_to_iid_measure(self):
        rects = [
            (1, UpperRect({0: 1.0, 1: 1.0})),
            (1, UpperRect({0: 2.0, 3: 0.5})),
            (1, UpperRect({0: 1.0, 1: 1.0, 2: 1.0})),
            (2, UpperRect({0: 1.0, 1: 1.0})),
            (2, UpperRect({-1: 1.0, 1: 2.0, 4: 1.0})),
        ]
        for j, rect in rects:
            got = nu_m_j_rect(IDENTITY, 1, 1.0, j, rect)  # the walk, not the closed form
            want = mu_j_rect(j, 1.0, rect)
            if want.is_infinite:
                assert got.is_infinite
            else:
                assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)

    # Thresholds either low or high, so that shared constraints are sometimes
    # implied by the members' floors and sometimes left open.
    MIXED_THRESHOLDS = st.dictionaries(
        st.integers(-2, 6), st.one_of(st.floats(0.1, 1.0), st.floats(1.0, 20.0)),
        min_size=2, max_size=6,
    ).map(UpperRect)

    @settings(max_examples=80, deadline=None)
    @example(ExplicitFinite([1.0, 0.5, 0.0, 0.75]), 3, 1, 1.3, MIXED_RECT)
    @example(PSI_HALF, 1, 1, 0.5, UpperRect({0: 1.0, 1: 5.0, 2: 1.0}))
    @example(ExplicitFinite([1.0, 0.8, 0.6, 0.4, 0.2]), 4, 2, 2.0,
             UpperRect({0: 1.0, 2: 5.0, 5: 1.0, 7: 5.0, 10: 1.0}))
    @example(INDICATOR_PSI, 2, 2, 1.0, INDICATOR_RECT)
    @example(TWO_READ_PSI, 3, 3, 1.3, TWO_READ_J3_RECT)
    @example(MIXED_READS_PSI, 3, 2, 2.0, MIXED_READS_RECT)
    @given(gapped(4), st.integers(0, 4), st.sampled_from([1, 2, 3]),
           st.sampled_from([0.5, 1.0, 1.3, 2.0, 3.0]), MIXED_THRESHOLDS)
    def test_bitwise_equal_to_unpruned_reference(self, coeffs, m, j, alpha, rect):
        # Exact and pruned tuples keep the crude reference's bits.  A drawn
        # tuple that reads one member is integrated by quadrature, within
        # 1e-12 of its one-member integral; one that reads more by the nested
        # rule, to about 1e-10, and within its error plus 4 stderr of
        # importance sampling on scrambled Sobol points.
        got = nu_m_j_rect(coeffs, m, alpha, j, rect)
        if m == 0 and coeffs.order == 0 and coeffs.psi(0) == 1.0:
            assert got == mu_j_rect(j, alpha, rect)  # identity coefficients: the closed form
            return
        if got.is_infinite:
            assert cover_oracle(coeffs, m, rect) <= j
            return
        reads = reads_of_drawn(coeffs, m, j, rect)
        total = var_total = 0.0
        for rank, positions, covers in covering_tuples(coeffs, m, j, rect):
            value, variance = tuple_contribution(coeffs, alpha, rect, positions, covers)
            if reads.get(rank) == 1:
                want = one_member_tuple(coeffs, alpha, rect, positions, covers)
                assert math.isclose(value, want, rel_tol=1e-12, abs_tol=0.0)
                assert 0.0 <= math.sqrt(variance) <= 2e-13 * value
            elif rank in reads:
                assert 0.0 <= math.sqrt(variance) <= 1e-9 * value
                want, want_var = importance_tuple_reference(coeffs, alpha, rect, positions, covers,
                                                            2**10, rank)
                assert abs(value - want) <= math.sqrt(variance) + 4 * math.sqrt(want_var)
            else:
                args = (coeffs, alpha, rect, positions, covers, 64, 0, rank)
                assert (value, variance) == tuple_contribution_reference(*args)
                assert variance == 0.0
            total += value
            var_total += variance
        if not reads:
            assert (got.value, got.method, got.stderr) == (total, EvalMethod.ENUMERATION, None)
            return
        assert (got.value, got.method, got.stderr) == (total, EvalMethod.QUADRATURE, math.sqrt(var_total))

    def test_multi_read_tuples_against_the_importance_oracle(self):
        # Rows near the pinned m = 3, j = 2 rows, each lag scaled by up to 2
        # and each threshold by up to 10^0.5 (random rows this small rarely
        # hold a tuple that reads two members): every such tuple agrees with
        # importance sampling on scrambled Sobol points within its error
        # plus 4 of the oracle's stderr.  Rows without one are discarded;
        # most examples check one or more.
        checked = []

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(st.sampled_from([(TWO_READ_PSI, TWO_READ_RECT), (MIXED_READS_PSI, MIXED_READS_RECT)]),
               st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
               st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        def check(base, lags, shifts, alpha):
            coeffs = ExplicitFinite([1.0, *(base[0].psi(l) * f for l, f in enumerate(lags, 1))])
            rect = UpperRect({k: a * 10.0**e for (k, a), e in zip(base[1].constraints, shifts)})
            assume(spike_cover_number(coeffs, 3, rect) == 3)
            tuples = [(rank, positions, covers) for rank, positions, covers in covering_tuples(coeffs, 3, 2, rect)
                      if len(conditional_plan(coeffs, rect, positions, covers)[3]) > 1]
            assume(tuples)
            for rank, positions, covers in tuples:
                value, variance = tuple_contribution(coeffs, alpha, rect, positions, covers)
                want, want_var = importance_tuple_reference(coeffs, alpha, rect, positions, covers,
                                                            2**10, rank)
                assert abs(value - want) <= math.sqrt(variance) + 4 * math.sqrt(want_var)
                checked.append(rank)

        check()
        assert len(checked) >= 50

    @pytest.mark.parametrize("coeffs, m, j, alpha, rect", [
        (TWO_READ_PSI, 3, 2, 1.0, TWO_READ_RECT),
        (TWO_READ_PSI, 3, 3, 1.0, TWO_READ_J3_RECT),
        (MIXED_READS_PSI, 3, 2, 1.0, MIXED_READS_RECT),
        (INDICATOR_PSI, 2, 2, 1.0, INDICATOR_RECT),
        (THIN_PSI, 5, 3, 3.0, THIN_RECT),
        (SPLIT_PSI, 4, 4, 2.0, SPLIT_RECT),
    ])
    def test_multi_read_rows_against_the_importance_oracle(self, coeffs, m, j, alpha, rect):
        # Within 4 combined stderr of the oracle; the thin row is about
        # 4.86810, where the lattice wrote 4.86030 +- 0.00024.
        got = nu_m_j_rect(coeffs, m, alpha, j, rect)
        want, want_stderr = importance_row_reference(coeffs, m, alpha, j, rect)
        assert got.method is EvalMethod.QUADRATURE and got.stderr < 1e-9 * got.value
        assert abs(got.value - want) <= 4 * math.hypot(got.stderr, want_stderr)
        if rect == THIN_RECT:
            assert abs(got.value - 4.86810) < 1e-5

    @pytest.mark.parametrize("coeffs, m, j, rect", [
        (PSI_HALF, 1, 1, UpperRect({0: 1.0, 1: 5.0, 2: 1.0})),
        (ExplicitFinite([1.0, 0.5, 0.0, 0.75]), 3, 1, UpperRect({0: 1.0, 2: 2.0, 5: 1.0})),
        (ExplicitFinite([1.0, 0.5, 0.0, 0.75]), 3, 2, UpperRect({0: 1.0, 3: 2.0, 4: 1.0, 8: 1.0})),
        (ExplicitFinite([1.0, 0.5, 0.0, 0.75]), 3, 1, MIXED_RECT),
        (TWO_READ_PSI, 3, 2, TWO_READ_RECT),
        (TWO_READ_PSI, 3, 3, TWO_READ_J3_RECT),
        (MIXED_READS_PSI, 3, 2, MIXED_READS_RECT),
        (INDICATOR_PSI, 2, 2, INDICATOR_RECT),
    ])
    def test_drawn_tuples_reach_the_integrators_by_their_reads(self, monkeypatch, coeffs, m, j, rect):
        # Only tuples with a shared constraint their floors leave open are
        # integrated, if any: those that read more than one member each by
        # one _nested rule, in rank order, with one column per read member,
        # taking one state; then those that read one in one _quadrature
        # batch (these rows are one chunk).  A pair reads one, so the j = 1
        # rows nest nothing.
        exact, pruned, drawn = tuple_kinds(coeffs, m, j, rect)
        assert exact and (pruned or drawn)
        if rect == MIXED_RECT:
            assert pruned and drawn
        reads = reads_of_drawn(coeffs, m, j, rect)
        assert sorted(reads) == drawn
        assert bool(nested_ranks(coeffs, m, j, rect)) == any(
            coeffs is c for c in (TWO_READ_PSI, MIXED_READS_PSI, INDICATOR_PSI))
        calls, depth = [], [0]

        def outermost(original, record):
            # Inner levels are built inside a rule's build, and their
            # quadratures run inside its evaluation.
            def recording(*args):
                if not depth[0]:
                    record(args)
                depth[0] += 1
                try:
                    return original(*args)
                finally:
                    depth[0] -= 1
            return recording

        def nested(alpha, coefs, integrated, budget):
            rule = outermost(original_nested, lambda args: calls.append(args[1].shape[1]))(
                alpha, coefs, integrated, budget)
            return outermost(rule, lambda args: calls.append(len(args[0])))

        original_nested = limit_measures._nested
        monkeypatch.setattr(limit_measures, "_quadrature", outermost(
            limit_measures._quadrature, lambda args: calls.append(("quadrature", len(args[1])))))
        monkeypatch.setattr(limit_measures, "_nested", nested)
        assert not nu_m_j_rect(coeffs, m, 1.0, j, rect).is_infinite
        ones = sum(reads[rank] == 1 for rank in drawn)
        assert calls == [call for rank in drawn if reads[rank] > 1 for call in (reads[rank], 1)] + (
            [("quadrature", ones)] if ones else [])

    @pytest.mark.parametrize("coeffs, m, j, alpha, rect", [
        (ExplicitFinite([1.0, 0.5, 0.0, 0.75]), 3, 1, 1.3, MIXED_RECT),
        (PSI_HALF, 1, 1, 0.5, UpperRect({0: 1.0, 1: 5.0, 2: 1.0})),
        (ExplicitFinite([1.0, 0.8, 0.6, 0.4, 0.2]), 4, 2, 2.0,
         UpperRect({0: 1.0, 2: 5.0, 5: 1.0, 7: 5.0, 10: 1.0})),
        (INDICATOR_PSI, 2, 2, 1.0, INDICATOR_RECT),
        (TWO_READ_PSI, 3, 3, 1.5, TWO_READ_J3_RECT),
    ])
    def test_drawn_tuples_agree_with_crude_counting(self, coeffs, m, j, alpha, rect):
        # Quadrature and crude counting from sub-stream ``rank`` estimate
        # the same tuple integral.
        drawn = set(tuple_kinds(coeffs, m, j, rect)[2])
        assert drawn
        for rank, positions, covers in covering_tuples(coeffs, m, j, rect):
            if rank in drawn:
                value, variance = tuple_contribution(coeffs, alpha, rect, positions, covers)
                crude, crude_var = tuple_contribution_reference(coeffs, alpha, rect, positions, covers,
                                                                20_000, 13, rank)
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


def lexicographic_rank(combo, n):
    """Rank of an increasing combination among all C(n, len) of range(n)."""
    d = len(combo)
    return math.comb(n, d) - 1 - sum(math.comb(n - 1 - c, d - l) for l, c in enumerate(combo))


def walked(coeffs, m, j, rect, chunk):
    """(rank, positions, covers) of every tuple the chunked walk yields, in order."""
    positions, weights = table(coeffs, m, rect)
    out = []
    for tuples in limit_measures._tuple_chunks(positions, weights > 0.0, rect.indices, j + 1, chunk):
        assert 0 < len(tuples) <= max(chunk, len(positions))
        for combo in tuples.tolist():
            covers = [sum(1 << p for p in np.flatnonzero(weights[c]).tolist()) for c in combo]
            out.append((lexicographic_rank(combo, len(positions)),
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
        (TWO_READ_PSI, 3, 3, TWO_READ_J3_RECT),
        (INDICATOR_PSI, 2, 2, INDICATOR_RECT),
    ])
    def test_members_without_an_open_constraint_are_not_read(self, coeffs, m, j, rect):
        # Each drawn tuple's plan has one column per read member.
        positions, weights = table(coeffs, m, rect)
        thresholds = np.array(rect.thresholds)
        got = []
        for tuples in limit_measures._tuple_chunks(positions, weights > 0.0, rect.indices, j + 1, 4096):
            _, held, pulls, open_ = limit_measures._floors(1.0, thresholds, weights[tuples])
            for t in np.flatnonzero(open_.any(axis=1)).tolist():
                got.append(limit_measures._plan(thresholds, held[t], pulls[t], open_[t])[1].shape[1])
        want = []
        for _, positions, covers in covering_tuples(coeffs, m, j, rect):
            _, open_, _, read = conditional_plan(coeffs, rect, positions, covers)
            if open_:
                want.append(len(read))
        assert got == want
        # Some tuple that reads two members has a member that holds no open constraint.
        assert any(1 < r < j for r in got) == (rect == TWO_READ_J3_RECT)

    def test_over_the_tuple_budget_raises_before_the_walk(self, monkeypatch):
        # psi = (1, .5), constraints 3 apart: each one is reached by two
        # positions and by no other constraint's, so 2^K covering K-tuples.
        rect = UpperRect({3 * i: 1.0 for i in range(12)})
        monkeypatch.setattr(limit_measures, "MAX_TUPLES", 4096)
        assert not nu_m_j_rect(PSI_HALF, 1, 1.0, 11, rect).is_infinite
        monkeypatch.setattr(limit_measures, "MAX_TUPLES", 4095)
        monkeypatch.setattr(limit_measures, "_tuple_chunks", lambda *a: pytest.fail("walked"))
        with pytest.raises(UnsupportedError, match="4096 covering spike tuples exceed the tuple budget of 4095"):
            nu_m_j_rect(PSI_HALF, 1, 1.0, 11, rect)

    def test_over_the_nested_limit_raises_before_any_integration(self, monkeypatch):
        # At most MAX_NESTED_TUPLES tuples that read two or more members.
        nested = len(nested_ranks(MIXED_READS_PSI, 3, 2, MIXED_READS_RECT))
        monkeypatch.setattr(limit_measures, "MAX_NESTED_TUPLES", nested)
        assert nu_m_j_rect(MIXED_READS_PSI, 3, 1.0, 2, MIXED_READS_RECT).stderr > 0.0
        monkeypatch.setattr(limit_measures, "MAX_NESTED_TUPLES", nested - 1)
        monkeypatch.setattr(limit_measures, "_nested", lambda *a: pytest.fail("integrated"))
        with pytest.raises(UnsupportedError, match=f"^more than {nested - 1} drawn spike tuples read "
                           "two or more members$"):
            nu_m_j_rect(MIXED_READS_PSI, 3, 1.0, 2, MIXED_READS_RECT)
        # Tuples that read one member do not count.
        monkeypatch.undo()
        monkeypatch.setattr(limit_measures, "MAX_NESTED_TUPLES", 0)
        got = nu_m_j_rect(THEORY_B_PSI, 4, 1.0, 2, THEORY_B_J2_RECT)
        assert got.method is EvalMethod.QUADRATURE

    def test_many_drawn_tuples_are_refused_in_milliseconds(self, monkeypatch):
        # Three copies of the three-nested-tuple row, further apart than m:
        # 12,663 of 59,319 tuples read two or more members, about half a
        # minute of integration.  The walk that counts them stops at the
        # limit, after 131 of its 675 chunks (about 0.1 s; counting all took
        # 0.34 to 0.53 s on one core of a 2-core machine).
        rect = UpperRect({14 * g + k: a for g in range(3) for k, a in TWO_READ_J3_RECT.constraints})
        chunks, floors = [], limit_measures._floors
        monkeypatch.setattr(limit_measures, "_floors", lambda *args: chunks.append(1) or floors(*args))
        start = time.perf_counter()
        with pytest.raises(UnsupportedError, match="^more than 3000 drawn spike tuples read two or more "
                           "members$"):
            nu_m_j_rect(TWO_READ_PSI, 3, 1.0, 11, rect)
        assert time.perf_counter() - start < 2.0
        assert len(chunks) < 675 // 4

    def test_over_the_vertex_system_limit_raises_before_solving(self, monkeypatch):
        # At most MAX_VERTEX_SYSTEMS systems of planes a level of a tuple.
        solved, inverses = [], limit_measures._inverses

        def recording(normals):
            # C(N, m): every m of the N planes.
            assert math.comb(*normals.shape) <= limit_measures.MAX_VERTEX_SYSTEMS
            solved.append(math.comb(*normals.shape))
            return inverses(normals)

        monkeypatch.setattr(limit_measures, "_inverses", recording)
        want = nu_m_j_rect(SPLIT_PSI, 4, 2.0, 4, SPLIT_RECT)
        most = max(solved)
        assert want.method is EvalMethod.QUADRATURE and most > 100
        monkeypatch.setattr(limit_measures, "MAX_VERTEX_SYSTEMS", most)
        assert nu_m_j_rect(SPLIT_PSI, 4, 2.0, 4, SPLIT_RECT) == want
        monkeypatch.setattr(limit_measures, "MAX_VERTEX_SYSTEMS", most - 1)
        with pytest.raises(UnsupportedError, match=f"^a drawn spike tuple's nested quadrature would solve "
                           f"{most} vertex systems, more than {most - 1}$"):
            nu_m_j_rect(SPLIT_PSI, 4, 2.0, 4, SPLIT_RECT)

    def test_the_node_budget_is_spent_to_the_last_node(self, monkeypatch):
        # A row's nested tuples take a count of nodes fixed by the row: at
        # that budget it is evaluated, one fewer refuses it.
        budgets = []

        class Recorded(limit_measures._Budget):
            def __init__(self):
                super().__init__()
                budgets.append(self)

        monkeypatch.setattr(limit_measures, "_Budget", Recorded)
        want = nu_m_j_rect(MIXED_READS_PSI, 3, 1.0, 2, MIXED_READS_RECT)
        (budget,) = budgets
        nodes = limit_measures.MAX_NESTED_NODES - budget.left
        assert 0 < nodes < limit_measures.MAX_NESTED_NODES // 1000
        monkeypatch.setattr(limit_measures, "MAX_NESTED_NODES", nodes)
        assert nu_m_j_rect(MIXED_READS_PSI, 3, 1.0, 2, MIXED_READS_RECT) == want
        monkeypatch.setattr(limit_measures, "MAX_NESTED_NODES", nodes - 1)
        with pytest.raises(UnsupportedError, match=f"^the drawn spike tuples that read two or more members "
                           f"take more than {nodes - 1} quadrature nodes$"):
            nu_m_j_rect(MIXED_READS_PSI, 3, 1.0, 2, MIXED_READS_RECT)

    def test_rows_past_the_node_budget_are_refused(self):
        # DEEP_*'s tuples read three members that no check splits: 135.5
        # million nodes, about 16.5 s of integration.  The budget refuses it
        # after about 9 s on one core of a 2-core machine.
        start = time.perf_counter()
        with pytest.raises(UnsupportedError, match="^the drawn spike tuples that read two or more members "
                           "take more than 100000000 quadrature nodes$"):
            nu_m_j_rect(DEEP_PSI, 4, 3.0, 4, DEEP_RECT)
        assert time.perf_counter() - start < 30.0

    def test_many_one_read_tuples_are_refused_before_any_quadrature(self, monkeypatch):
        # psi = (1, .., 1) of length 6, 17 constraints 3 apart, thresholds
        # alternating 1 and 5, at the cover number: 157,464 of 196,830 tuples
        # read one member, about 9 s of quadrature.  The count stops at the
        # limit, in about 0.4 s; counting all took 0.7 s on one core of a
        # 2-core machine.
        rect = UpperRect({3 * i: 5.0 if i % 2 else 1.0 for i in range(17)})
        monkeypatch.setattr(limit_measures, "_quadrature", lambda *a: pytest.fail("integrated"))
        start = time.perf_counter()
        with pytest.raises(UnsupportedError, match="^more than 100000 drawn spike tuples read one member$"):
            nu_m_j_rect(ExplicitFinite([1.0] * 6), 5, 1.0, 8, rect)
        assert time.perf_counter() - start < 2.0

    def test_over_the_quadrature_limit_raises_before_any_quadrature(self, monkeypatch):
        # MIXED_READS_RECT's six one-read tuples.
        monkeypatch.setattr(limit_measures, "MAX_QUADRATURE_TUPLES", 6)
        assert nu_m_j_rect(MIXED_READS_PSI, 3, 1.0, 2, MIXED_READS_RECT).stderr > 0.0
        monkeypatch.setattr(limit_measures, "MAX_QUADRATURE_TUPLES", 5)
        monkeypatch.setattr(limit_measures, "_quadrature", lambda *a: pytest.fail("integrated"))
        with pytest.raises(UnsupportedError, match="^more than 5 drawn spike tuples read one member$"):
            nu_m_j_rect(MIXED_READS_PSI, 3, 1.0, 2, MIXED_READS_RECT)


class TestIntegralOracles:
    """The midpoint oracles of the one-read rows, against closed forms and
    node doubling."""

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

    def test_one_member_oracle(self):
        # On the j = 1 rows it is the pair integral; on the j = 2 row node
        # doubling moves it by under 1e-12.
        for coeffs, m, rect in self.ROWS:
            got = one_member_integral(coeffs, m, 1.0, 1, rect)
            assert abs(got - self.pair_value(coeffs, m, rect)) <= 1e-12
        fine = one_member_integral(THEORY_B_PSI, 4, 1.0, 2, THEORY_B_J2_RECT, nodes=2 * 10**6)
        assert abs(self.j2_value() - fine) <= 1e-12

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


def drawn_plans(coeffs, m, alpha, j, rect):
    """The (bounds, coefs, integrated) plan of each drawn tuple of a row,
    through the library's walk, floors and plan."""
    positions, weights = table(coeffs, m, rect)
    thresholds = np.array(rect.thresholds)
    for tuples in limit_measures._tuple_chunks(positions, weights > 0.0, rect.indices, j + 1, 4096):
        _, held, pulls, open_ = limit_measures._floors(alpha, thresholds, weights[tuples])
        for t in np.flatnonzero(open_.any(axis=1)).tolist():
            yield limit_measures._plan(thresholds, held[t], pulls[t], open_[t])


def one_read_lines(coeffs, m, alpha, j, rect):
    """The (b, c) need lines of each drawn tuple of a row that reads one member."""
    return [list(zip(bounds[0].tolist(), coefs[:, 0].tolist()))
            for bounds, coefs, _ in drawn_plans(coeffs, m, alpha, j, rect) if coefs.shape[1] == 1]


def quadrature(alpha, lines):
    """(mean, error) of one row of ``limit_measures._quadrature``: the score
    of the (b, c) need ``lines``."""
    means, errors = limit_measures._quadrature(alpha, *(np.array([column]) for column in zip(*lines)))
    return float(means[0]), float(errors[0])


def nested(alpha, plan):
    """(mean, error) of ``limit_measures._nested``'s rule for a (bounds,
    coefs, integrated) plan of one drawn tuple, with the unit floor."""
    bounds, coefs, integrated = plan
    means, errors = limit_measures._nested(alpha, coefs, integrated, limit_measures._Budget())(bounds, np.ones(1))
    return float(means[0]), float(errors[0])


class TestQuadrature:
    """A drawn tuple that reads one member is integrated by Gauss-Legendre on
    closed-form pieces: within rounding of the oracles, with an error that
    covers a finer rule, and with no generator."""

    THEORY_B_ROWS = [(1, UpperRect({0: 1.0, 2: 6.0, 5: 1.0})), (1, UpperRect({0: 1.0, 3: 4.0, 6: 1.0})),
                     (2, THEORY_B_J2_RECT)]
    BINDING_RECT = UpperRect({0: 1.0, 1: 5.0, 2: 1.0})

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_theory_b_rows_against_the_oracles(self, alpha):
        # The midpoint oracles are off by about 1e-13 at alpha = 1 on 10^6
        # nodes and by up to 1e-12 at alpha = 1.5, where 2 * 10^6 nodes give
        # about 2.5e-13.
        nodes = 10**6 if alpha == 1.0 else 2 * 10**6
        for j, rect in self.THEORY_B_ROWS:
            if j == 1:
                oracle = pair_integral(THEORY_B_PSI, 4, alpha, rect, nodes=nodes)
            else:
                oracle = one_member_integral(THEORY_B_PSI, 4, alpha, j, rect, nodes=nodes)
            got = nu_m_j_rect(THEORY_B_PSI, 4, alpha, j, rect)
            assert got.method is EvalMethod.QUADRATURE
            assert 0.0 < got.stderr < 1e-14 * got.value
            assert math.isclose(got.value, oracle, rel_tol=1e-12, abs_tol=0.0)

    def test_binding_pair_at_alpha_60(self):
        # The drawn pair against mpmath, and the row against a midpoint
        # value good to about 1e-8.
        (positions, covers), = [(pos, cov) for rank, pos, cov in covering_tuples(PSI_HALF, 1, 1, self.BINDING_RECT)
                                if rank in tuple_kinds(PSI_HALF, 1, 1, self.BINDING_RECT)[2]]
        value, variance = tuple_contribution(PSI_HALF, 60.0, self.BINDING_RECT, positions, covers)
        want = one_member_tuple(PSI_HALF, 60.0, self.BINDING_RECT, positions, covers)
        assert math.isclose(value, want, rel_tol=1e-12, abs_tol=0.0)
        assert 0.0 < math.sqrt(variance) < 1e-14 * value
        n = 1_000_000
        z = 1.0 + (np.arange(n) + 0.5) * (5.0 / n)
        truth = float(np.sum(60.0 * z**-61 * (5.0 - z / 2) ** -60)) * (5.0 / n) + 12.0**-60 + 2e-60
        got = nu_m_j_rect(PSI_HALF, 1, 60.0, 1, self.BINDING_RECT)
        assert got.method is EvalMethod.QUADRATURE
        assert math.isclose(got.value, truth, rel_tol=1e-8, abs_tol=0.0)
        # need / L_c is about 5e5 everywhere on the drawn pair and 5e5^-60
        # underflows: the row reads zero, with a zero error.
        got = nu_m_j_rect(PSI_HALF, 1, 60.0, 1, UpperRect({0: 1.0, 1: 1e6, 2: 1.0}))
        assert (got.value, got.method, got.stderr) == (0.0, EvalMethod.QUADRATURE, 0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 3.0, 60.0])
    def test_reported_error_covers_a_rule_with_four_times_the_nodes(self, monkeypatch, alpha):
        cases = [(THEORY_B_PSI, 4, j, rect) for j, rect in self.THEORY_B_ROWS]
        cases += [(PSI_HALF, 1, 1, self.BINDING_RECT), (MIXED_READS_PSI, 3, 2, MIXED_READS_RECT),
                  (INDICATOR_PSI, 2, 2, INDICATOR_RECT)]
        first = limit_measures.QUAD_NODES
        for coeffs, m, j, rect in cases:
            for lines in one_read_lines(coeffs, m, alpha, j, rect):
                mean, error = quadrature(alpha, lines)
                # Settled at the first pair: the value is the 2n-node rule.
                monkeypatch.setattr(limit_measures, "QUAD_MAX_NODES", 2 * first)
                assert quadrature(alpha, lines) == (mean, error)
                monkeypatch.setattr(limit_measures, "QUAD_NODES", 4 * first)
                monkeypatch.setattr(limit_measures, "QUAD_MAX_NODES", 8 * first)
                monkeypatch.setattr(limit_measures, "QUAD_TOLERANCE", math.inf)
                finer, _ = quadrature(alpha, lines)
                monkeypatch.undo()
                assert 0.0 < error <= 2e-13 * mean
                assert abs(finer - mean) <= error

    @pytest.mark.parametrize("line, truth", [
        # From u = 1 to the bottom of its piece, 5.8e-84, the cuts toward
        # s = 3.9e-85 number 67; capped at 64, the rules once agreed on a
        # value 7.9e-5 low.  The truth is 50-digit mpmath Gauss-Legendre
        # over the Pareto value on 1,000 pieces, unchanged at 4,000.
        ((22.825816048677876, 0.8947288065215351), 3.5938218119719257910807e-81),
        # A value in the subnormal range, where the rules never agree: the
        # error must cover what underflow took from the terms.
        ((201008.47645582553, 0.4988196292006163), None),
    ])
    def test_steep_lines_at_alpha_60(self, monkeypatch, line, truth):
        mean, error = quadrature(60.0, [line])
        if truth is not None:
            assert abs(mean - truth) <= error <= 1e-14 * mean
        monkeypatch.setattr(limit_measures, "QUAD_NODES", 2 * limit_measures.QUAD_MAX_NODES)
        monkeypatch.setattr(limit_measures, "QUAD_MAX_NODES", 4 * limit_measures.QUAD_MAX_NODES)
        monkeypatch.setattr(limit_measures, "QUAD_TOLERANCE", math.inf)
        finer, _ = quadrature(60.0, [line])
        assert abs(finer - mean) <= error

    def test_unsettled_tuples_report_the_finest_rules(self, monkeypatch):
        # A tuple whose rules never agree reports the QUAD_MAX_NODES rule and
        # its gap to the rule of half the nodes, still by quadrature.
        for lines in one_read_lines(THEORY_B_PSI, 4, 1.0, 2, THEORY_B_J2_RECT):
            with monkeypatch.context() as patch:
                patch.setattr(limit_measures, "QUAD_NODES", limit_measures.QUAD_MAX_NODES // 2)
                patch.setattr(limit_measures, "QUAD_TOLERANCE", math.inf)
                want = quadrature(1.0, lines)
            with monkeypatch.context() as patch:
                patch.setattr(limit_measures, "QUAD_TOLERANCE", -1.0)
                assert quadrature(1.0, lines) == want
        monkeypatch.setattr(limit_measures, "QUAD_TOLERANCE", -1.0)
        got = nu_m_j_rect(THEORY_B_PSI, 4, 1.0, 2, THEORY_B_J2_RECT)
        assert got.method is EvalMethod.QUADRATURE and 0.0 < got.stderr < 1e-14 * got.value

    @pytest.mark.parametrize("n", [48, 96, 768])
    def test_gauss_legendre_rule(self, n):
        # Against numpy's eigenvalue rule, whose end weights are off by up to
        # 9e-10 at n = 768 (these by 4e-12, against 40-digit Newton), and
        # exact on monomials of degree below 2n.
        nodes, weights = limit_measures._gauss_legendre(n)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
        assert np.all(np.diff(nodes) > 0.0) and np.array_equal(nodes, -nodes[::-1])
        assert np.max(np.abs(nodes - want_nodes)) <= 1e-15
        assert np.max(np.abs(weights / want_weights - 1.0)) <= 1e-9
        for k in range(0, min(2 * n, 40), 2):
            assert math.isclose(math.fsum((weights * nodes**k).tolist()), 2.0 / (k + 1),
                                rel_tol=1e-13)


class TestNestedRule:
    """A drawn tuple that reads two or more members is integrated by nested
    Gauss-Legendre rules: with an error that covers a finer rule, into
    regions too thin for sampling, to zero on underflow, and with no random
    numbers."""

    ROWS = [
        (TWO_READ_PSI, 3, 2, TWO_READ_RECT),
        (TWO_READ_PSI, 3, 3, TWO_READ_J3_RECT),
        (MIXED_READS_PSI, 3, 2, MIXED_READS_RECT),
        (INDICATOR_PSI, 2, 2, INDICATOR_RECT),
    ]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_reported_error_covers_a_finer_rule(self, monkeypatch, alpha):
        # The finer rule takes 4 times NESTED's first nodes at every level,
        # against twice that, with no doubling.
        rows = self.ROWS + [(THIN_PSI, 5, 3, THIN_RECT)]
        plans = [plan for row in rows for plan in drawn_plans(*row[:2], alpha, *row[2:])
                 if plan[1].shape[1] > 1]
        assert len(plans) >= 8
        for plan in plans:
            mean, error = nested(alpha, plan)
            with monkeypatch.context() as patch:
                patch.setattr(limit_measures, "NESTED", (4 * limit_measures.NESTED[0], math.inf))
                finer, _ = nested(alpha, plan)
            assert 0.0 < error <= 1e-9 * mean
            assert abs(finer - mean) <= error

    @pytest.mark.parametrize("coeffs, m, j, rect, rank", [
        (MIXED_READS_PSI, 3, 2, MIXED_READS_RECT, 183),
        (INDICATOR_PSI, 2, 2, INDICATOR_RECT, 55),
    ])
    def test_alpha_60_tuples_against_a_log_grid(self, coeffs, m, j, rect, rank):
        # At alpha = 60 the integrand peaks where one read member's log-value
        # is near 0.47 (tuple 183) or 1.25 (tuple 55), where its density is
        # e^-28 or e^-75 of its value at 0: importance sampling at rate
        # alpha / 2 puts no point there and reads 0.  The 4000^2 grid was
        # within 2e-4 of the nested value on both.
        (positions, covers), = [(pos, cov) for r, pos, cov in covering_tuples(coeffs, m, j, rect)
                                if r == rank]
        assert len(conditional_plan(coeffs, rect, positions, covers)[3]) == 2
        value, variance = tuple_contribution(coeffs, 60.0, rect, positions, covers)
        want = log_grid_tuple(coeffs, 60.0, rect, positions, covers)
        assert 0.0 < math.sqrt(variance) <= 1e-12 * value
        assert math.isclose(value, want, rel_tol=3e-3, abs_tol=0.0)

    @pytest.mark.parametrize("coeffs, m, j, rect", ROWS)
    def test_underflowing_rows_read_zero_without_warnings(self, coeffs, m, j, rect):
        # Thresholds 10^6 times larger at alpha = 60 scale the value by
        # 10^(-360 (j + 1)): every term underflows, with no inf or nan on the way.
        assert nu_m_j_rect(coeffs, m, 60.0, j, rect).value > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nu_m_j_rect(coeffs, m, 60.0, j, rect.scaled(1e6))
        assert (got.value, got.method, got.stderr) == (0.0, EvalMethod.QUADRATURE, 0.0)

    @pytest.mark.parametrize("coeffs, m, j, rect", [(THEORY_B_PSI, 4, 2, THEORY_B_J2_RECT), *ROWS,
                                                    (THIN_PSI, 5, 3, THIN_RECT)])
    def test_rows_draw_no_random_numbers(self, monkeypatch, coeffs, m, j, rect):
        # A row's value is a function of the row: with numpy's generators
        # and the library's block generator gone, it has the same bits twice.
        want = nu_m_j_rect(coeffs, m, 1.0, j, rect)
        assert want.method is EvalMethod.QUADRATURE

        def fail(*args, **kwargs):
            pytest.fail("drew a random number")

        for name in ("default_rng", "Generator", "SeedSequence", "Philox", "random"):
            monkeypatch.setattr(np.random, name, fail)
        monkeypatch.setattr(innovations, "block_generator", fail)
        for _ in range(2):
            assert nu_m_j_rect(coeffs, m, 1.0, j, rect) == want


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

    @pytest.mark.parametrize("coeffs, m, j, rect", [
        (PSI_HALF, 1, 1, UpperRect({0: 1.0, 1: 5.0, 2: 1.0})),
        (TWO_READ_PSI, 3, 2, TWO_READ_RECT),
        (TWO_READ_PSI, 3, 3, TWO_READ_J3_RECT),
        (MIXED_READS_PSI, 3, 2, MIXED_READS_RECT),
        (INDICATOR_PSI, 2, 2, INDICATOR_RECT),
    ])
    def test_quadrature_scales_exactly(self, coeffs, m, j, rect):
        base = nu_m_j_rect(coeffs, m, 1.0, j, rect)
        assert base.method is EvalMethod.QUADRATURE
        for lam in self.LAMBDAS:
            scaled = nu_m_j_rect(coeffs, m, 1.0, j, rect.scaled(lam))
            assert scaled.value == pytest.approx(lam ** -(j + 1) * base.value, rel=1e-9)

    @pytest.mark.parametrize("coeffs, m, j, alpha, rect", [
        (THEORY_B_PSI, 4, 2, 1.5, THEORY_B_J2_RECT),
        (TWO_READ_PSI, 3, 3, 1.0, TWO_READ_J3_RECT),
        (MIXED_READS_PSI, 3, 2, 2.0, MIXED_READS_RECT),
        (INDICATOR_PSI, 2, 2, 0.5, INDICATOR_RECT),
        (THIN_PSI, 5, 3, 3.0, THIN_RECT),
    ])
    def test_shifted_rows_keep_their_bits(self, coeffs, m, j, alpha, rect):
        # The process is stationary: moving every constraint by the same
        # lag moves every tuple with it, and the value keeps its bits.
        base = nu_m_j_rect(coeffs, m, alpha, j, rect)
        assert base.method is EvalMethod.QUADRATURE
        for lag in (-9, 1, 40):
            shifted = UpperRect({k + lag: a for k, a in rect.constraints})
            assert nu_m_j_rect(coeffs, m, alpha, j, shifted) == base

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
            (lambda r: nu_m_j_rect(PSI_HALF, 1, 1.0, 1, r).value,
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
    "nu_m_j_rect": lambda: nu_m_j_rect(PSI_HALF, 1, math.nan, 1, UpperRect({0: 1.0, 2: 1.0})),
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
