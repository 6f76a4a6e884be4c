import hashlib

import numpy as np
import pytest

from matails import ParameterError, TailModel, block_generator, draw


def sample(model, count, seed):
    """``count`` innovations of the undivided stream of ``seed``."""
    return draw(model, block_generator(seed), count)


class TestInverseTransform:
    def test_standard_pareto_alpha1(self):
        model = TailModel.standard_pareto(1.0)
        assert model.inverse_survival(0.5) == 2.0

    def test_standard_pareto_alpha2(self):
        model = TailModel.standard_pareto(2.0)
        assert model.inverse_survival(0.25) == 2.0

    def test_shifted_pareto_alpha1(self):
        model = TailModel.shifted_pareto(1.0)
        assert model.inverse_survival(0.5) == 1.0

    def test_survival_inverse_roundtrip(self):
        for model in (TailModel.standard_pareto(1.7, 2.0), TailModel.shifted_pareto(0.8, 3.0)):
            for u in (0.9, 0.5, 0.01, 1e-6):
                assert model.survival(model.inverse_survival(u)) == pytest.approx(u, rel=1e-12)

    def test_invalid_model_parameters(self):
        with pytest.raises(ParameterError):
            TailModel.standard_pareto(0.0)
        with pytest.raises(ParameterError):
            TailModel.standard_pareto(1.0, scale=-1.0)


class TestQuantileB:
    def test_standard_alpha1(self):
        assert TailModel.standard_pareto(1.0).quantile_b(100.0) == 100.0

    def test_standard_alpha2(self):
        assert TailModel.standard_pareto(2.0).quantile_b(100.0) == 10.0

    def test_shifted_alpha1(self):
        assert TailModel.shifted_pareto(1.0).quantile_b(100.0) == 99.0

    def test_solves_survival_equation(self):
        for model in (TailModel.standard_pareto(2.5, 1.5), TailModel.shifted_pareto(1.2)):
            for t in (1.0, 3.0, 1e4):
                assert model.survival(model.quantile_b(t)) == pytest.approx(1.0 / t, rel=1e-12)

    def test_nondecreasing_in_t(self):
        for model in (TailModel.standard_pareto(0.7), TailModel.shifted_pareto(2.0)):
            grid = [model.quantile_b(t) for t in (1.0, 2.0, 10.0, 1e3, 1e6)]
            assert all(b1 <= b2 for b1, b2 in zip(grid, grid[1:]))

    def test_t_below_one_rejected(self):
        with pytest.raises(ParameterError):
            TailModel.standard_pareto(1.0).quantile_b(0.99)


class TestScalingIdentity:
    def test_standard_pareto_exact(self):
        # t * P[Z > b(t) z] = z^-alpha whenever z >= t^(-1/alpha).
        for alpha in (0.5, 1.0, 2.0):
            model = TailModel.standard_pareto(alpha)
            for t in (1.0, 10.0, 1e3, 1e7):
                for z in (t ** (-1 / alpha), 0.3, 1.0, 7.0, 100.0):
                    if z < t ** (-1 / alpha):
                        continue
                    lhs = t * model.survival(model.quantile_b(t) * z)
                    assert lhs == pytest.approx(z**-alpha, rel=1e-12)

    def test_shifted_pareto_error_vanishes(self):
        model = TailModel.shifted_pareto(1.0)
        for z in (0.5, 2.0, 5.0):
            errs = [
                abs(t * model.survival(model.quantile_b(t) * z) - 1.0 / z)
                for t in (10.0, 1e2, 1e3, 1e4, 1e5)
            ]
            assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
            assert errs[-1] < 1e-3


class TestSampling:
    def test_deterministic_in_seed(self):
        model = TailModel.standard_pareto(1.5)
        a = sample(model, 1000, 2024)
        b = sample(model, 1000, 2024)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample(model, 1000, 2025))

    def test_count_validation(self):
        # draw takes any numpy shape: no count draws nothing, a negative one is refused.
        assert sample(TailModel.standard_pareto(1.0), 0, 1).shape == (0,)
        with pytest.raises(ValueError):
            sample(TailModel.standard_pareto(1.0), -1, 1)

    @pytest.mark.parametrize("model, head, digest", [
        (TailModel.standard_pareto(1.5), [1.2341310987404832, 1.9027022099175612, 1.0266719598866845],
         "ae06ff6d86fb39c339e5a3aad95f151c9c0454b339e93af79322e8df24726777"),
        (TailModel.shifted_pareto(0.7, 2.0), [1.139093139659554, 5.937463813361488, 0.11605278775932826],
         "ded95bcb499670574ad2d19e55f2846c8d5c37d5875ac7e7c098c47ae42edecf"),
    ], ids=["standard", "shifted"])
    def test_undivided_stream_draws_the_pinned_values(self, model, head, digest):
        # 1000 draws of seed 2024 as the removed sample(model, count, seed) returned
        # them where numpy's vector power is libm's (no AVX-512 dispatch).
        zs = draw(model, block_generator(2024), 1000)
        assert zs[:3].tolist() == head
        assert hashlib.sha256(zs.tobytes()).hexdigest() == digest

    def test_support(self):
        zs = sample(TailModel.standard_pareto(2.0, scale=3.0), 10_000, 5)
        assert zs.min() >= 3.0
        zs = sample(TailModel.shifted_pareto(2.0), 10_000, 5)
        assert zs.min() >= 0.0

    @pytest.mark.parametrize(
        "model",
        [TailModel.standard_pareto(1.5), TailModel.shifted_pareto(1.0), TailModel.standard_pareto(0.8, 2.0)],
        ids=["standard", "shifted", "heavy_scaled"],
    )
    def test_kolmogorov_smirnov_sanity(self, model):
        n = 100_000
        zs = np.sort(sample(model, n, 314159))
        sf = model.survival(zs)
        ranks = np.arange(1, n + 1) / n
        # two-sided KS distance between the empirical and model cdf
        d = max(np.max(np.abs(1.0 - sf - ranks)), np.max(np.abs(1.0 - sf - (ranks - 1.0 / n))))
        assert d < 0.01

    @pytest.mark.parametrize("model", [TailModel.standard_pareto(0.7, 2.5), TailModel.shifted_pareto(2.0)],
                             ids=["standard", "shifted"])
    def test_draw_into_buffer_is_bitwise(self, model):
        whole = draw(model, block_generator(4, 2), (5, 64))
        buf = np.empty((5, 64))
        assert draw(model, block_generator(4, 2), (5, 64), out=buf) is buf
        assert np.array_equal(buf, whole)
        # Parts drawn one after another continue the stream of one draw.
        rng = block_generator(4, 2)
        for top in (0, 2, 4):
            bottom = min(top + 2, 5)
            draw(model, rng, (bottom - top, 64), out=buf[top:bottom])
        assert np.array_equal(buf, whole)
        u = np.array([0.25, 0.5, 1.0])
        assert np.array_equal(model.inverse_survival(u.copy(), out=np.empty(3)), model.inverse_survival(u))

    def test_block_substream_rule_is_fixed(self):
        # Block b must read Philox(SeedSequence(seed, spawn_key=(b,))).
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(3,))))
        expected = rng.random(8)
        assert np.array_equal(block_generator(7, 3).random(8), expected)
        rng0 = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
        assert np.array_equal(block_generator(7).random(8), rng0.random(8))


class TestSeekRule:
    @pytest.mark.parametrize("block", [None, 0, 7])
    def test_cached_key_reads_the_seed_sequence_stream(self, block):
        # The key cache and the counter start must give the doubles of
        # Philox(SeedSequence(seed, spawn_key=(b,))) advanced offset // 4
        # steps, offset % 4 discarded: at every offset % 4, past 2^32 counter
        # steps and at the row starts i * 2^20 + c0 of tiles in a block.
        # The key reaches Philox through a seed sequence of its own, not key=.
        spawn_key = () if block is None else (block,)
        offsets = [*range(10), 2**32 + 3, 3 * 2**20 + 2**16,
                   *(i * 2**20 + c0 for i in (1, 27) for c0 in (0, 2**16 + 1))]
        for offset in offsets:
            bits = np.random.Philox(np.random.SeedSequence(11, spawn_key=spawn_key)).advance(offset // 4)
            bits.random_raw(offset % 4)
            expected = np.random.Generator(bits).random(9)
            assert np.array_equal(block_generator(11, block, offset).random(9), expected), offset

    @pytest.mark.parametrize("block", [0, 3])
    def test_offset_draws_are_slices_of_the_whole_block_draw(self, block):
        # rows = 7 is not a multiple of 4, so the row starts i * 7 + c0 take
        # every offset % 4; each seeked draw runs to the end of its row.
        model = TailModel.shifted_pareto(1.5, 2.0)
        rows, length = 7, 6
        whole = draw(model, block_generator(5, block), (length, rows)).ravel()
        offsets = range(length * rows)
        assert {offset % 4 for offset in offsets} == {0, 1, 2, 3}
        for offset in offsets:
            n = rows - offset % rows
            got = draw(model, block_generator(5, block, offset), n)
            assert np.array_equal(got, whole[offset:offset + n]), offset
