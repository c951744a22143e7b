import copy
import math
import re
import shutil
import struct
import subprocess
from pathlib import Path

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
         (-4000.0, "-4000.0"), (3080.0, "3080.0")],
        ids=["nan", "inf", "-inf", "4000", "-4000", "llr-scale-overflow"],
    )
    def test_ebno_without_usable_noise_level_rejected(self, ebno, shown):
        with pytest.raises(ValueError, match=f"Eb/N0 of {shown} dB gives no usable noise level"):
            ci.ebno_sigma(ebno, 0.5)

    def test_largest_usable_ebno_gives_finite_llrs(self):
        # at rate 1/2, 3079 dB is accepted and 3080 dB is refused
        sigma = ci.ebno_sigma(3079.0, 0.5)
        llr = ci.channel_llr([1.0, -1.0], sigma)
        assert np.isfinite(llr).all() and llr[0] == -llr[1] > 1e308


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


def seed_sequence_generator(master_seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(master_seed, index))))


def pcg64_state(streams: ci.TrialStreams, row: int) -> dict:
    high, low, inc_high, inc_low = map(int, streams.states[row])
    return {"state": high << 64 | low, "inc": inc_high << 64 | inc_low}


class TestTrialGenerators:
    """TrialStreams, pinned to NumPy's own SeedSequence, PCG64 and ziggurat."""

    # master seeds of one, two, three and seven 32-bit entropy words
    @pytest.mark.parametrize("master_seed", [0, 1, 1000, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 9])
    def test_state_equals_seed_sequence_seeding(self, master_seed):
        for index in (0, 1, 255, 2**32 - 1):
            for width in (1, 7, 512, 600):
                lo = min(index, 2**32 - width)
                streams = ci.TrialStreams(master_seed, lo, lo + width)
                assert streams.states.shape == (width, 4)
                for row, i in enumerate(range(lo, lo + width)):
                    expected = seed_sequence_generator(master_seed, i).bit_generator.state
                    assert pcg64_state(streams, row) == expected["state"], (master_seed, i, width)

    @pytest.mark.parametrize("size", [1, 3, 4, 5, 12, 13, 128, 181, 16_384])
    @pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 9])
    def test_bits_equal_integers_and_leave_the_stream_in_step(self, master_seed, size):
        lo = 2**32 - 7 if size < 16_384 else 255
        streams = ci.TrialStreams(master_seed, lo, lo + 7)
        bits = streams.bits(size)
        assert bits.dtype == np.uint8 and bits.shape == (7, size)
        for row, i in enumerate(range(lo, lo + 7)):
            gen = seed_sequence_generator(master_seed, i)
            assert np.array_equal(bits[row], gen.integers(0, 2, size=size, dtype=np.uint8))
            assert pcg64_state(streams, row) == gen.bit_generator.state["state"]

    @pytest.mark.parametrize("master_seed, lo, width, n", [
        (0, 0, 40, 32_761), (2**64 + 3, 2**32 - 600, 600, 181), (2**200 + 9, 255, 1, 1),
    ])
    def test_llrs_equal_the_numpy_channel_bit_for_bit(self, master_seed, lo, width, n):
        # 40 x 32,761 normals run the ziggurat's wedge and tail branches
        sigma = 0.83
        streams = ci.TrialStreams(master_seed, lo, lo + width)
        bits = streams.bits(128)
        codewords = np.random.default_rng(lo).integers(0, 2, size=(width, n), dtype=np.uint8)
        llrs = streams.llrs(codewords, sigma)
        normals = []
        for row, i in enumerate(range(lo, lo + width)):
            gen = seed_sequence_generator(master_seed, i)
            assert np.array_equal(bits[row], gen.integers(0, 2, size=128, dtype=np.uint8))
            normals.append(copy.deepcopy(gen).standard_normal(n))
            expected = ci.channel_llr(ci.awgn(ci.modulate(codewords[row]), sigma, gen), sigma)
            assert llrs[row].tobytes() == expected.tobytes(), (master_seed, i)
            assert pcg64_state(streams, row) == gen.bit_generator.state["state"]
        if width * n >= 10**6:
            # the ziggurat's tail starts at 3.6541528853610088
            assert (np.abs(np.concatenate(normals)) > 3.6541528853610088).any()

    def test_llrs_fill_a_given_array_of_the_codewords_shape(self):
        codewords = np.random.default_rng(4).integers(0, 2, size=(3, 181), dtype=np.uint8)
        expected = ci.TrialStreams(6, 10, 13).llrs(codewords, 0.7)
        rows = np.full((5, 181), np.nan)
        assert ci.TrialStreams(6, 10, 13).llrs(codewords, 0.7, out=rows[:3]).base is rows
        assert rows[:3].tobytes() == expected.tobytes() and np.isnan(rows[3:]).all()
        for out in (np.empty((3, 180)), np.empty((3, 181), np.float32), np.empty((181, 3)).T):
            with pytest.raises(ValueError, match="out must be"):
                ci.TrialStreams(6, 10, 13).llrs(codewords, 0.7, out=out)

    def test_rng_stream_is_one_trial_generator(self):
        for master_seed in (606, 2**32 + 5):  # one and two 32-bit entropy words
            state = ci.RngStream(master_seed, 41).generator().bit_generator.state
            assert state == seed_sequence_generator(master_seed, 41).bit_generator.state
            assert pcg64_state(ci.TrialStreams(master_seed, 41, 42), 0) == state["state"]

    def test_llrs_draw_each_row_as_its_trial_generator_alone(self):
        # TrialStreams draws each trial's channel as that trial's generator alone would
        bits = np.random.default_rng(1).integers(0, 2, size=(5, 181), dtype=np.uint8)
        together = ci.TrialStreams(5, 0, 5).llrs(bits, 0.7)
        alone = [
            ci.channel_llr(ci.awgn(ci.modulate(x), 0.7, ci.RngStream(5, i).generator()), 0.7)
            for i, x in enumerate(bits)
        ]
        assert np.array_equal(together, np.stack(alone))

    @pytest.mark.parametrize("shape, trials", [((3, 4), 2), ((3, 4), 4), ((4,), 4)])
    def test_llrs_refuse_a_row_count_other_than_the_trial_count(self, shape, trials):
        with pytest.raises(ValueError, match="one codeword row per trial stream"):
            ci.TrialStreams(0, 0, trials).llrs(np.zeros(shape, dtype=np.uint8), 1.0)

    def test_empty_range(self):
        streams = ci.TrialStreams(3, 5, 5)
        assert streams.states.shape == (0, 4)
        assert streams.bits(128).shape == (0, 128)
        assert streams.llrs(np.zeros((0, 181), dtype=np.uint8), 1.0).shape == (0, 181)

    @pytest.mark.parametrize(
        "master_seed, lo, hi",
        [(-1, 0, 1), (0, -1, 1), (0, 2**32 - 1, 2**32 + 1), (0, 2**32, 2**32 + 1)],
        ids=["negative-seed", "negative-index", "index-2^32", "past-2^32"],
    )
    def test_refused(self, master_seed, lo, hi):
        # SeedSequence hashes an index of 2^32 or more as two entropy words
        with pytest.raises(ValueError):
            ci.TrialStreams(master_seed, lo, hi)

    def test_nonpositive_sigma_refused(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            ci.TrialStreams(0, 0, 1).llrs(np.zeros((1, 4), dtype=np.uint8), 0.0)


def kernel_table_words(source: str, name: str) -> list[int]:
    """The entries of ``name[256]`` in ``_trial_kernel.c`` as 64-bit words:
    the integers of ``ki_double``, the bits of the others' hex floats."""
    (body,) = re.findall(rf"\b{name}\[256\] = \{{([^}}]*)\}};", source)
    entries = body.replace(",", " ").split()
    if name == "ki_double":
        return [int(entry, 16) for entry in entries]
    return [struct.unpack("=Q", struct.pack("=d", float.fromhex(entry)))[0] for entry in entries]


class TestZigguratTables:
    def test_tables_equal_the_installed_numpy_s_bit_for_bit(self, tmp_path):
        # sampling can miss a last-bit slip in a rarely used entry, so the
        # tables are read from NumPy's distributions archive itself
        archive = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
        if not archive.is_file() or not all(map(shutil.which, ("ar", "nm", "objcopy"))):
            pytest.skip("needs NumPy's libnpyrandom.a and binutils' ar, nm and objcopy")
        subprocess.run(["ar", "x", str(archive)], cwd=tmp_path, check=True)
        names = ("ki_double", "wi_double", "fi_double")
        found = {}  # name: (object file, offset in its .rodata, size)
        for member in sorted(tmp_path.glob("*.o")):
            listing = subprocess.run(["nm", "-S", str(member)], capture_output=True, text=True,
                                     check=True).stdout
            for fields in map(str.split, listing.splitlines()):
                if len(fields) == 4 and fields[3] in names:
                    found[fields[3]] = (member, int(fields[0], 16), int(fields[1], 16))
        assert sorted(found) == sorted(names)
        source = Path(ci.spa.__file__).with_name("_trial_kernel.c").read_text()
        for name in names:
            member, offset, size = found[name]
            rodata = member.with_suffix(".rodata")
            subprocess.run(["objcopy", "-O", "binary", "--only-section=.rodata", str(member),
                            str(rodata)], check=True)
            assert size == 256 * 8, name
            numpy_words = list(struct.unpack("=256Q", rodata.read_bytes()[offset:offset + size]))
            assert kernel_table_words(source, name) == numpy_words, name


class TestRandomBits:
    @pytest.mark.parametrize("shape", [1, 3, 4, 5, 12, 13, 128, 181, (128, 128)])
    def test_equals_integers_and_leaves_the_stream_in_step(self, shape):
        expected_gen, gen = seed_sequence_generator(8, 3), seed_sequence_generator(8, 3)
        expected = expected_gen.integers(0, 2, size=shape, dtype=np.uint8)
        bits = ci.random_bits(gen, expected.size).reshape(expected.shape)
        assert bits.dtype == np.uint8 and np.array_equal(bits, expected)
        assert np.array_equal(gen.standard_normal(50), expected_gen.standard_normal(50))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("draw", [
    lambda sigma: ci.awgn(np.zeros(4), sigma, ci.RngStream(0, 0).generator()),
    lambda sigma: ci.channel_llr(np.zeros(4), sigma),
    lambda sigma: ci.TrialStreams(0, 0, 1).llrs(np.zeros((1, 4), dtype=np.uint8), sigma),
], ids=["awgn", "channel_llr", "TrialStreams.llrs"])
def test_sigma_must_be_finite_and_positive(draw, sigma):
    # a NaN sigma made all-NaN LLRs, and an infinite one all-zero LLRs
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        draw(sigma)
