import math

import numpy as np
import pytest

import concat_ira as ci


class TestSigma:
    def test_rate_half_at_zero_db_is_one(self):
        assert ci.ebno_sigma(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ci.ebno_sigma(0.0, 0.0)

    @pytest.mark.parametrize(
        "ebno, shown",
        [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (4000.0, "4000.0"),
         (-4000.0, "-4000.0")],
        ids=["nan", "inf", "-inf", "4000", "-4000"],
    )
    def test_ebno_without_usable_noise_level_rejected(self, ebno, shown):
        with pytest.raises(ValueError, match=f"Eb/N0 of {shown} dB gives no usable noise level"):
            ci.ebno_sigma(ebno, 0.5)


class TestModulate:
    def test_bit_map(self):
        assert ci.modulate([0, 1, 0]).tolist() == [1.0, -1.0, 1.0]

    def test_all_zero_block(self):
        assert (ci.modulate(np.zeros(16, dtype=np.uint8)) == 1.0).all()

    def test_sign_demap_round_trip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 1000)
        assert np.array_equal((ci.modulate(bits) < 0).astype(int), bits)


class TestAwgn:
    def test_mean_and_variance(self):
        gen = ci.RngStream(123, 0).generator()
        x = np.ones(1_000_000)
        noise = ci.awgn(x, 0.8, gen) - x
        assert abs(noise.mean()) < 4 * 0.8 / 1000.0
        assert abs(noise.var() - 0.64) < 0.01 * 0.64

    def test_identical_stream_identical_noise(self):
        a = ci.awgn(np.zeros(100), 1.0, ci.RngStream(5, 7).generator())
        b = ci.awgn(np.zeros(100), 1.0, ci.RngStream(5, 7).generator())
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = ci.awgn(np.zeros(100), 1.0, ci.RngStream(5, 7).generator())
        b = ci.awgn(np.zeros(100), 1.0, ci.RngStream(5, 8).generator())
        assert not np.array_equal(a, b)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            ci.awgn(np.zeros(4), 0.0, ci.RngStream(0, 0).generator())


class TestChannelLlr:
    def test_zero_observation(self):
        assert ci.channel_llr(np.array([0.0]), 1.0)[0] == 0.0

    def test_formula(self):
        assert ci.channel_llr(np.array([3.0]), 1.0)[0] == pytest.approx(6.0)

    def test_llr_consistency_var_twice_mean(self):
        # all-zero transmission: L ~ N(2/s^2, 4/s^2), so Var = 2 * Mean
        gen = ci.RngStream(42, 0).generator()
        sigma = 0.9
        y = ci.awgn(np.ones(1_000_000), sigma, gen)
        llr = ci.channel_llr(y, sigma)
        assert abs(llr.var() - 2.0 * llr.mean()) < 0.02 * llr.var()


class TestUncodedCalibration:
    @pytest.mark.parametrize("ebno_db", [0.0, 2.0, 4.0])
    def test_ber_matches_q_function(self, ebno_db):
        sigma = ci.ebno_sigma(ebno_db, 1.0)
        gen = ci.RngStream(1000 + int(ebno_db * 10), 0).generator()
        n = 1_000_000
        y = ci.awgn(np.ones(n), sigma, gen)
        ber = float((y < 0).mean())
        p = ci.gaussian_q(math.sqrt(2.0 * 10.0 ** (ebno_db / 10.0)))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(ber - p) < 3 * se


class TestRngStream:
    def test_reproducible(self):
        a = ci.RngStream(9, 4).generator().integers(0, 100, 10)
        b = ci.RngStream(9, 4).generator().integers(0, 100, 10)
        assert np.array_equal(a, b)
