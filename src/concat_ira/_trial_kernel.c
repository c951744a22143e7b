/* Random streams of the trials of both systems, the IRA encoder, and the
 * construction of an IRA code's systematic section, which seeds and draws
 * through the same generator port.  Trial i of master seed m draws what
 * np.random.Generator(np.random.PCG64(np.random.SeedSequence((m, i))))
 * would draw.  The seeding is SeedSequence's hash and PCG64's set-up, each
 * trial's 128-bit state is stepped as NumPy's PCG64 steps it, and the
 * normals are NumPy's 256-layer ziggurat (Marsaglia and Tsang, J. Stat.
 * Softw. 5(8), 2000), random_standard_normal, ported with its tables.  A
 * trial's state is kept between calls as four uint64 words: state high,
 * state low, increment high, increment low.
 *
 * The tables ki_double, wi_double and fi_double are NumPy 2.4.6's, copied
 * bit for bit from the read-only data of libnpyrandom.a's
 * src_distributions_distributions.c.o (numpy/random/src/distributions/
 * ziggurat_constants.h), under NumPy's licence:
 *
 * Copyright (c) 2005-2025, NumPy Developers.
 * Copyright (c) 2019 Kevin Sheppard.
 * All rights reserved.
 *
 * Redistribution and use in source and binary forms, with or without
 * modification, are permitted provided that the following conditions are
 * met:
 *
 *   * Redistributions of source code must retain the above copyright
 *     notice, this list of conditions and the following disclaimer.
 *   * Redistributions in binary form must reproduce the above copyright
 *     notice, this list of conditions and the following disclaimer in the
 *     documentation and/or other materials provided with the distribution.
 *   * Neither the name of the NumPy Developers nor the names of any
 *     contributors may be used to endorse or promote products derived from
 *     this software without specific prior written permission.
 *
 * THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS
 * IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO,
 * THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR
 * PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT OWNER OR
 * CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
 * EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO,
 * PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR
 * PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF
 * LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
 * NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
 * SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* SeedSequence's hash constants (numpy/random/bit_generator.pyx) */
#define POOL 4
#define INIT_A 0x43B0D7E5u
#define MULT_A 0x931E8875u
#define INIT_B 0x8B51F9DDu
#define MULT_B 0x58F38DEDu
#define MIX_L 0xCA01F9DDu
#define MIX_R 0x4973F715u

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_L * x - MIX_R * y;
    return result ^ (result >> 16);
}

typedef unsigned __int128 u128;
#define PCG_MULT (((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

typedef struct { u128 state, inc; } pcg64;

static uint64_t next64(pcg64 *rng)
{
    rng->state = rng->state * PCG_MULT + rng->inc;
    uint64_t xored = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return (xored >> rot) | (xored << ((64 - rot) & 63));
}

static double next_double(pcg64 *rng)
{
    return (double)(next64(rng) >> 11) * (1.0 / 9007199254740992.0);
}

static pcg64 load(const uint64_t *words)
{
    pcg64 rng = {((u128)words[0] << 64) | words[1], ((u128)words[2] << 64) | words[3]};
    return rng;
}

static void store(const pcg64 *rng, uint64_t *words)
{
    words[0] = (uint64_t)(rng->state >> 64);
    words[1] = (uint64_t)rng->state;
    words[2] = (uint64_t)(rng->inc >> 64);
    words[3] = (uint64_t)rng->inc;
}

/* The generator np.random.PCG64(np.random.SeedSequence(entropy)) starts
 * from, where entropy is the n_head 32-bit words head, then the n_tail words
 * tail: the pool takes the first POOL words, zeros when the entropy is
 * shorter, and the rest is mixed into every word.  generate_state(4, uint64)
 * pairs eight hashed pool words little-endian. */
static pcg64 seed_sequence(const uint32_t *head, int64_t n_head, const uint32_t *tail, int64_t n_tail)
{
    uint32_t pool[POOL], hash_const = INIT_A, seed32[2 * POOL];
    int64_t n = n_head + n_tail;
    for (int64_t k = 0; k < POOL; k++)
        pool[k] = hashmix(k < n_head ? head[k] : k < n ? tail[k - n_head] : 0, &hash_const);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (int64_t k = POOL; k < n; k++) {
        uint32_t word = k < n_head ? head[k] : tail[k - n_head];
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(word, &hash_const));
    }
    hash_const = INIT_B;
    for (int k = 0; k < 2 * POOL; k++) {
        uint32_t value = pool[k % POOL] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        seed32[k] = value ^ (value >> 16);
    }
    uint64_t seed[4];
    for (int k = 0; k < 4; k++)
        seed[k] = seed32[2 * k] | (uint64_t)seed32[2 * k + 1] << 32;
    /* PCG64: state = 0, inc = initseq << 1 | 1; step; state += initstate; step */
    pcg64 rng = {0, (((u128)seed[2] << 64 | seed[3]) << 1) | 1u};
    next64(&rng);
    rng.state += (u128)seed[0] << 64 | seed[1];
    next64(&rng);
    return rng;
}

/* The states of trials lo..lo+count-1: entropy is the master seed's n_words
 * 32-bit words, then the trial index. */
void trial_seed(const uint32_t *words, int64_t n_words, int64_t lo, int64_t count, uint64_t *states)
{
    for (int64_t t = 0; t < count; t++) {
        uint32_t index = (uint32_t)(lo + t);
        pcg64 rng = seed_sequence(words, n_words, &index, 1);
        store(&rng, states + 4 * t);
    }
}

/* size uniform bits per trial, as Generator.integers(0, 2, size, uint8)
 * draws them: the top bit of each byte, little-endian, of ceil(size / 8)
 * raw outputs. */
void trial_bits(uint64_t *states, int64_t count, int64_t size, uint8_t *bits)
{
    for (int64_t t = 0; t < count; t++) {
        pcg64 rng = load(states + 4 * t);
        uint8_t *row = bits + t * size;
        for (int64_t j = 0; j < size; j += 8) {
            uint64_t raw = next64(&rng);
            for (int64_t b = 0; b < 8 && j + b < size; b++)
                row[j + b] = (uint8_t)(raw >> (8 * b + 7)) & 1;
        }
        store(&rng, states + 4 * t);
    }
}

static const uint64_t ki_double[256] = {
    0x000EF33D8025EF6A, 0x0000000000000000, 0x000C08BE98FBC6A8, 0x000DA354FABD8142,
    0x000E51F67EC1EEEA, 0x000EB255E9D3F77E, 0x000EEF4B817ECAB9, 0x000F19470AFA44AA,
    0x000F37ED61FFCB18, 0x000F4F469561255C, 0x000F61A5E41BA396, 0x000F707A755396A4,
    0x000F7CB2EC28449A, 0x000F86F10C6357D3, 0x000F8FA6578325DE, 0x000F9724C74DD0DA,
    0x000F9DA907DBF509, 0x000FA360F581FA74, 0x000FA86FDE5B4BF8, 0x000FACF160D354DC,
    0x000FB0FB6718B90F, 0x000FB49F8D5374C6, 0x000FB7EC2366FE77, 0x000FBAECE9A1E50E,
    0x000FBDAB9D040BED, 0x000FC03060FF6C57, 0x000FC2821037A248, 0x000FC4A67AE25BD1,
    0x000FC6A2977AEE31, 0x000FC87AA92896A4, 0x000FCA325E4BDE85, 0x000FCBCCE902231A,
    0x000FCD4D12F839C4, 0x000FCEB54D8FEC99, 0x000FD007BF1DC930, 0x000FD1464DD6C4E6,
    0x000FD272A8E2F450, 0x000FD38E4FF0C91E, 0x000FD49A9990B478, 0x000FD598B8920F53,
    0x000FD689C08E99EC, 0x000FD76EA9C8E832, 0x000FD848547B08E8, 0x000FD9178BAD2C8C,
    0x000FD9DD07A7ADD2, 0x000FDA9970105E8C, 0x000FDB4D5DC02E20, 0x000FDBF95C5BFCD0,
    0x000FDC9DEBB99A7D, 0x000FDD3B8118729D, 0x000FDDD288342F90, 0x000FDE6364369F64,
    0x000FDEEE708D514E, 0x000FDF7401A6B42E, 0x000FDFF46599ED40, 0x000FE06FE4BC24F2,
    0x000FE0E6C225A258, 0x000FE1593C28B84C, 0x000FE1C78CBC3F99, 0x000FE231E9DB1CAA,
    0x000FE29885DA1B91, 0x000FE2FB8FB54186, 0x000FE35B33558D4A, 0x000FE3B799D0002A,
    0x000FE410E99EAD7F, 0x000FE46746D47734, 0x000FE4BAD34C095C, 0x000FE50BAED29524,
    0x000FE559F74EBC78, 0x000FE5A5C8E41212, 0x000FE5EF3E138689, 0x000FE6366FD91078,
    0x000FE67B75C6D578, 0x000FE6BE661E11AA, 0x000FE6FF55E5F4F2, 0x000FE73E5900A702,
    0x000FE77B823E9E39, 0x000FE7B6E37070A2, 0x000FE7F08D774243, 0x000FE8289053F08C,
    0x000FE85EFB35173A, 0x000FE893DC840864, 0x000FE8C741F0CEBC, 0x000FE8F9387D4EF6,
    0x000FE929CC879B1D, 0x000FE95909D388EA, 0x000FE986FB939AA2, 0x000FE9B3AC714866,
    0x000FE9DF2694B6D5, 0x000FEA0973ABE67C, 0x000FEA329CF166A4, 0x000FEA5AAB32952C,
    0x000FEA81A6D5741A, 0x000FEAA797DE1CF0, 0x000FEACC85F3D920, 0x000FEAF07865E63C,
    0x000FEB13762FEC13, 0x000FEB3585FE2A4A, 0x000FEB56AE3162B4, 0x000FEB76F4E284FA,
    0x000FEB965FE62014, 0x000FEBB4F4CF9D7C, 0x000FEBD2B8F449D0, 0x000FEBEFB16E2E3E,
    0x000FEC0BE31EBDE8, 0x000FEC2752B15A15, 0x000FEC42049DAFD3, 0x000FEC5BFD29F196,
    0x000FEC75406CEEF4, 0x000FEC8DD2500CB4, 0x000FECA5B6911F12, 0x000FECBCF0C427FE,
    0x000FECD38454FB15, 0x000FECE97488C8B3, 0x000FECFEC47F91B7, 0x000FED1377358528,
    0x000FED278F844903, 0x000FED3B10242F4C, 0x000FED4DFBAD586E, 0x000FED605498C3DD,
    0x000FED721D414FE8, 0x000FED8357E4A982, 0x000FED9406A42CC8, 0x000FEDA42B85B704,
    0x000FEDB3C8746AB4, 0x000FEDC2DF416652, 0x000FEDD171A46E52, 0x000FEDDF813C8AD3,
    0x000FEDED0F909980, 0x000FEDFA1E0FD414, 0x000FEE06AE124BC4, 0x000FEE12C0D95A06,
    0x000FEE1E579006E0, 0x000FEE29734B6524, 0x000FEE34150AE4BC, 0x000FEE3E3DB89B3C,
    0x000FEE47EE2982F4, 0x000FEE51271DB086, 0x000FEE59E9407F41, 0x000FEE623528B42E,
    0x000FEE6A0B5897F1, 0x000FEE716C3E077A, 0x000FEE7858327B82, 0x000FEE7ECF7B06BA,
    0x000FEE84D2484AB2, 0x000FEE8A60B66343, 0x000FEE8F7ACCC851, 0x000FEE94207E25DA,
    0x000FEE9851A829EA, 0x000FEE9C0E13485C, 0x000FEE9F557273F4, 0x000FEEA22762CCAE,
    0x000FEEA4836B42AC, 0x000FEEA668FC2D71, 0x000FEEA7D76ED6FA, 0x000FEEA8CE04FA0A,
    0x000FEEA94BE8333B, 0x000FEEA950296410, 0x000FEEA8D9C0075E, 0x000FEEA7E7897654,
    0x000FEEA678481D24, 0x000FEEA48AA29E83, 0x000FEEA21D22E4DA, 0x000FEE9F2E352024,
    0x000FEE9BBC26AF2E, 0x000FEE97C524F2E4, 0x000FEE93473C0A3A, 0x000FEE8E40557516,
    0x000FEE88AE369C7A, 0x000FEE828E7F3DFD, 0x000FEE7BDEA7B888, 0x000FEE749BFF37FF,
    0x000FEE6CC3A9BD5E, 0x000FEE64529E007E, 0x000FEE5B45A32888, 0x000FEE51994E57B6,
    0x000FEE474A0006CF, 0x000FEE3C53E12C50, 0x000FEE30B2E02AD8, 0x000FEE2462AD8205,
    0x000FEE175EB83C5A, 0x000FEE09A22A1447, 0x000FEDFB27E349CC, 0x000FEDEBEA76216C,
    0x000FEDDBE422047E, 0x000FEDCB0ECE39D3, 0x000FEDB964042CF4, 0x000FEDA6DCE938C9,
    0x000FED937237E98D, 0x000FED7F1C38A836, 0x000FED69D2B9C02B, 0x000FED538D06AE00,
    0x000FED3C41DEA422, 0x000FED23E76A2FD8, 0x000FED0A732FE644, 0x000FECEFDA07FE34,
    0x000FECD4100EB7B8, 0x000FECB708956EB4, 0x000FEC98B61230C1, 0x000FEC790A0DA978,
    0x000FEC57F50F31FE, 0x000FEC356686C962, 0x000FEC114CB4B335, 0x000FEBEB948E6FD0,
    0x000FEBC429A0B692, 0x000FEB9AF5EE0CDC, 0x000FEB6FE1C98542, 0x000FEB42D3AD1F9E,
    0x000FEB13B00B2D4B, 0x000FEAE2591A02E9, 0x000FEAAEAE992257, 0x000FEA788D8EE326,
    0x000FEA3FCFFD73E5, 0x000FEA044C8DD9F6, 0x000FE9C5D62F563B, 0x000FE9843BA947A4,
    0x000FE93F471D4728, 0x000FE8F6BD76C5D6, 0x000FE8AA5DC4E8E6, 0x000FE859E07AB1EA,
    0x000FE804F690A940, 0x000FE7AB488233C0, 0x000FE74C751F6AA5, 0x000FE6E8102AA202,
    0x000FE67DA0B6ABD8, 0x000FE60C9F38307E, 0x000FE5947338F742, 0x000FE51470977280,
    0x000FE48BD436F458, 0x000FE3F9BFFD1E37, 0x000FE35D35EEB19C, 0x000FE2B5122FE4FE,
    0x000FE20003995557, 0x000FE13C82788314, 0x000FE068C4EE67B0, 0x000FDF82B02B71AA,
    0x000FDE87C57EFEAA, 0x000FDD7509C63BFD, 0x000FDC46E529BF13, 0x000FDAF8F82E0282,
    0x000FD985E1B2BA75, 0x000FD7E6EF48CF04, 0x000FD613ADBD650B, 0x000FD40149E2F012,
    0x000FD1A1A7B4C7AC, 0x000FCEE204761F9E, 0x000FCBA8D85E11B2, 0x000FC7D26ECD2D22,
    0x000FC32B2F1E22ED, 0x000FBD6581C0B83A, 0x000FB606C4005434, 0x000FAC40582A2874,
    0x000F9E971E014598, 0x000F89FA48A41DFC, 0x000F66C5F7F0302C, 0x000F1A5A4B331C4A,
};
static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51,
};
static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10,
};

#define ZIGGURAT_R 3.6541528853610088 /* the base layer's edge */
#define ZIGGURAT_INV_R 0.27366123732975828

/* One standard normal, as NumPy's random_standard_normal draws it: one
 * output picks a layer (low byte), a sign and 52 magnitude bits; the
 * rectangle inside the layer accepts at once, the base layer's tail and the
 * other layers' wedges draw doubles until they accept.  The sign bit is
 * XOR-ed into x's bits, not taken by a branch on r & 1, which is random and
 * so mispredicted about half the time; negation flips that bit alone, 0.0
 * included, so x is what -x would be. */
static inline double standard_normal(pcg64 *rng)
{
    for (;;) {
        uint64_t r = next64(rng);
        int idx = r & 0xff;
        r >>= 8;
        uint64_t rabs = (r >> 1) & 0x000fffffffffffff;
        double x = rabs * wi_double[idx];
        uint64_t x_bits;
        memcpy(&x_bits, &x, sizeof x);
        x_bits ^= (r & 1) << 63;
        memcpy(&x, &x_bits, sizeof x);
        if (rabs < ki_double[idx])
            return x;
        if (idx == 0) {
            for (;;) {
                /* log(1 - U), which is finite for every draw U in [0, 1) */
                double xx = -ZIGGURAT_INV_R * log1p(-next_double(rng));
                double yy = -log1p(-next_double(rng));
                if (yy + yy > xx * xx)
                    return (rabs >> 8) & 1 ? -(ZIGGURAT_R + xx) : ZIGGURAT_R + xx;
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * next_double(rng) + fi_double[idx]
            < exp(-0.5 * x * x))
            return x;
    }
}

/* Channel LLRs of n BPSK-mapped code bits per trial: n standard normals z
 * from the trial's stream, then 2 * ((1 - 2 * bit) + sigma * z) / sigma^2,
 * each operation rounded as NumPy's modulate, awgn and channel_llr round it. */
void trial_llrs(uint64_t *states, int64_t count, int64_t n, const uint8_t *codewords, double sigma,
                double *llrs)
{
    double scale = sigma * sigma;
    for (int64_t t = 0; t < count; t++) {
        pcg64 rng = load(states + 4 * t);
        double *row = llrs + t * n;
        const uint8_t *bit = codewords + t * n;
        for (int64_t j = 0; j < n; j++) {
            double z = standard_normal(&rng);
            row[j] = (2.0 * ((1.0 - 2.0 * (double)bit[j]) + sigma * z)) / scale;
        }
        store(&rng, states + 4 * t);
    }
}

/* The low bits of n <= 64 bytes as the bits of one word, byte i at bit i;
 * eight at a time, the multiply gathering the eight low bits into the top
 * byte, as each partial product lands in a bit of its own. */
static uint64_t pack_bits(const uint8_t *bytes, int64_t n)
{
    uint64_t bits = 0;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t eight;
        memcpy(&eight, bytes + i, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        eight = __builtin_bswap64(eight);
#endif
        bits |= ((eight & 0x0101010101010101u) * 0x0102040810204080u) >> 56 << i;
    }
    for (; i < n; i++)
        bits |= (uint64_t)(bytes[i] & 1) << i;
    return bits;
}

/* IRA encoding of count rows of k source bits into codewords of k + m bits:
 * the source bits, then parity c, the XOR of parity c - 1 and of the source
 * bits of check c.  masks is (m, words), words = ceil(k / 64): bit b of
 * word w of row c is set when source bit 64 w + b is in check c.  A source
 * byte counts by its low bit. */
void ira_encode(const uint64_t *masks, int64_t m, int64_t k, int64_t count,
                const uint8_t *sources, uint8_t *codewords)
{
    int64_t words = (k + 63) / 64;
    for (int64_t t = 0; t < count; t++) {
        const uint8_t *source = sources + t * k;
        uint8_t *word = codewords + t * (k + m), *parity = word + k;
        memcpy(word, source, (size_t)k);
        memset(parity, 0, (size_t)m);
        for (int64_t w = 0; w < words; w++) {
            uint64_t bits = pack_bits(source + 64 * w, k - 64 * w < 64 ? k - 64 * w : 64);
            for (int64_t c = 0; c < m; c++)
                parity[c] ^= (uint8_t)__builtin_parityll(bits & masks[c * words + w]);
        }
        for (int64_t c = 1; c < m; c++)
            parity[c] ^= parity[c - 1];
    }
}

/* --- construction of an IRA code's systematic section H1 ----------------
 * ira.build_h1's restarts, each drawing from np.random.default_rng(seed + r).
 * A row set is a mask of ceil(m / 64) words, bit r of word r / 64 set for
 * row r.  The tests pin every matrix and refusal to the Python construction
 * tests/oracles.reference_build_h1. */

/* Row masks of placed supports and of their pairwise sums, in one
 * open-addressed table: accepting a candidate support would complete a
 * codeword of weight <= 4 exactly when it, or its sum with a placed support,
 * is in the table.  No stored mask is zero (supports are non-empty and
 * distinct), so a zero slot is empty. */
typedef struct {
    int64_t words, bits;  /* words per row mask; log2 of the slots */
    uint64_t *slots, *placed, *sums, *at;  /* at: where each sum's probe ended */
    int64_t n_placed;
} low_weight_screen;

/* Multiplicative hashing, whose top bits depend on every bit of the key */
static uint64_t screen_hash(const low_weight_screen *s, const uint64_t *key)
{
    uint64_t h = 0;
    for (int64_t w = 0; w < s->words; w++)
        h = (h ^ key[w]) * 0x9E3779B97F4A7C15u;
    return h >> (64 - s->bits);
}

/* Linear probing from slot i: the first slot that holds key or is empty.
 * Nothing is ever removed, so a probe that ended at an empty slot may go on
 * from there after other keys have been added. */
static uint64_t screen_probe(const low_weight_screen *s, const uint64_t *key, uint64_t i)
{
    for (;; i = (i + 1) & (((uint64_t)1 << s->bits) - 1)) {
        const uint64_t *slot = s->slots + i * s->words;
        uint64_t differs = 0, held = 0;
        for (int64_t w = 0; w < s->words; w++) {
            differs |= slot[w] ^ key[w];
            held |= slot[w];
        }
        if (!differs || !held)
            return i;
    }
}

static int screen_held(const low_weight_screen *s, uint64_t i)
{
    uint64_t held = 0;
    for (int64_t w = 0; w < s->words; w++)
        held |= s->slots[i * s->words + w];
    return held != 0;
}

/* Register cand and return 1, or return 0 if it clashes. */
static int screen_admit(low_weight_screen *s, const uint64_t *cand)
{
    int64_t words = s->words;
    uint64_t at = screen_probe(s, cand, screen_hash(s, cand));
    if (screen_held(s, at))
        return 0; /* weight 2 or 3 */
    for (int64_t i = 0; i < s->n_placed; i++) {
        uint64_t *sum = s->sums + i * words;
        for (int64_t w = 0; w < words; w++)
            sum[w] = cand[w] ^ s->placed[i * words + w];
        s->at[i] = screen_probe(s, sum, screen_hash(s, sum));
        if (screen_held(s, s->at[i]))
            return 0; /* weight 3 or 4 */
    }
    /* the sums are distinct from each other and from cand */
    for (int64_t i = 0; i < s->n_placed; i++) {
        const uint64_t *sum = s->sums + i * words;
        memcpy(s->slots + screen_probe(s, sum, s->at[i]) * words, sum, 8 * (size_t)words);
    }
    memcpy(s->slots + screen_probe(s, cand, at) * words, cand, 8 * (size_t)words);
    memcpy(s->placed + s->n_placed++ * words, cand, 8 * (size_t)words);
    return 1;
}

/* cdf = the running sum of p[0..n), left to right, divided by its last entry */
static void scaled_cdf(const double *p, int64_t n, double *cdf)
{
    double sum = 0.0;
    for (int64_t i = 0; i < n; i++)
        cdf[i] = sum += p[i];
    for (int64_t i = 0; i < n; i++)
        cdf[i] /= sum;
}

static int64_t bisect_right(const double *a, int64_t n, double x)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* size distinct indices of p[0..n), as Generator.choice(n, size,
 * replace=False, p=p) draws them: one double per missing index, each
 * bisected into the scaled cdf (first_cdf while none is found, else the
 * table of p with the found indices zeroed), first sightings kept in draw
 * order, until size are found. */
static void draw_rows(pcg64 *rng, const double *p, const double *first_cdf, int64_t n, int64_t size,
                      double *p_work, double *cdf, int64_t *found)
{
    const double *table = first_cdf;
    int64_t n_found = 0;
    for (;;) {
        for (int64_t t = size - n_found; t > 0; t--) {
            int64_t i = bisect_right(table, n, next_double(rng)), seen = 0;
            for (int64_t f = 0; f < n_found; f++)
                seen |= found[f] == i;
            if (!seen)
                found[n_found++] = i;
        }
        if (n_found == size)
            return;
        memcpy(p_work, p, sizeof *p * (size_t)n);
        for (int64_t f = 0; f < n_found; f++)
            p_work[found[f]] = 0.0;
        scaled_cdf(p_work, n, cdf);
        table = cdf;
    }
}

/* comb(n, d), or cap when it is larger */
static int64_t comb_capped(int64_t n, int64_t d, int64_t cap)
{
    int64_t c = 1;
    /* c runs through comb(n - d + i, i), which never falls with i */
    for (int64_t i = 1; i <= d && c <= cap; i++)
        c = c * (n - d + i) / i;
    return c < cap ? c : cap;
}

/* Place the k systematic columns, of degrees[j] rows each, highest degree
 * first and in index order within a degree, into m rows that start with
 * check_degree - 2 free places each, row 0 with one more (H2 takes the
 * rest).  A column's rows are drawn from the rows with free places, with
 * probability proportional to their free places, and redrawn while they
 * close a 4-cycle (two rows that a placed column, of H1 or H2, already
 * shares) or complete a codeword of weight <= 4.  With columns of degree
 * <= 4 the 4-cycle test is exactly the ACE test at the default AceParams
 * (d_ace = 2, eta = 5): such a 4-cycle has ACE at most 4, and longer
 * cycles are past d_ace.  A column is stuck after
 * max_resample draws, once every row set has been refused, or at once when
 * fewer than its degree rows have free places; a stuck column restarts the
 * construction from the next seed, up to max_restarts times.
 *
 * The seed of restart 0 is the n_words 32-bit words seed_words, least
 * significant first, with no zero word on top (one zero word for seed 0);
 * restart r draws from SeedSequence of the words of seed + r.
 *
 * Returns 0 with column j's rows, ascending, at cols[degrees[0] + ... +
 * degrees[j - 1]]; 1 when every restart got stuck, with blocker {-1, -1}
 * when the last one ran out of draws or row sets, else {rows with free
 * places, degree}; -1 when memory ran out. */
int64_t ira_build_h1(const uint32_t *seed_words, int64_t n_words, int64_t k, int64_t m,
                     int64_t check_degree, const int64_t *degrees, int64_t max_resample,
                     int64_t max_restarts, int64_t *cols, int64_t *blocker)
{
    int64_t words = (m + 63) / 64, n = k + m, max_degree = 0, bits = 1;
    for (int64_t j = 0; j < k; j++)
        max_degree = degrees[j] > max_degree ? degrees[j] : max_degree;
    /* at most n supports and n (n - 1) / 2 sums, in at least twice as many slots */
    while (((int64_t)1 << bits) < n * (n + 1))
        bits++;
    int64_t slots = (int64_t)1 << bits;
    int64_t *order = malloc(sizeof *order * (size_t)k), *start = malloc(sizeof *start * (size_t)k);
    int64_t *budget = malloc(sizeof *budget * (size_t)m), *avail = malloc(sizeof *avail * (size_t)m);
    int64_t *found = malloc(sizeof *found * (size_t)max_degree);
    double *p = malloc(sizeof *p * 4 * (size_t)m);
    uint8_t *shared = malloc((size_t)(m * m));
    uint32_t *entropy = malloc(sizeof *entropy * (size_t)(n_words + 1));
    uint64_t *cand = malloc(8 * (size_t)(words * (1 + max_resample)));
    low_weight_screen screen = {words, bits, malloc(8 * (size_t)(slots * words)),
                                malloc(8 * (size_t)(n * words)), malloc(8 * (size_t)(n * words)),
                                malloc(8 * (size_t)n), 0};
    int64_t status = -1;
    if (!order || !start || !budget || !avail || !found || !p || !shared || !entropy || !cand
        || !screen.slots || !screen.placed || !screen.sums || !screen.at)
        goto done;
    double *first_cdf = p + m, *p_work = p + 2 * m, *cdf = p + 3 * m;
    uint64_t *failed = cand + words;

    int64_t n_order = 0;
    for (int64_t d = max_degree; d > 0; d--)
        for (int64_t j = 0; j < k; j++)
            if (degrees[j] == d)
                order[n_order++] = j;
    for (int64_t j = 0, at = 0; j < k; at += degrees[j++])
        start[j] = at;

    blocker[0] = blocker[1] = -1;
    status = 1;
    for (int64_t restart = 0; restart < max_restarts && status; restart++) {
        /* entropy: the words of seed + restart, restart < 2**32 */
        uint64_t carry = (uint64_t)restart;
        for (int64_t w = 0; w < n_words; w++, carry >>= 32)
            entropy[w] = (uint32_t)(carry += seed_words[w]);
        entropy[n_words] = (uint32_t)carry;
        pcg64 rng = seed_sequence(entropy, n_words + (carry > 0), NULL, 0);

        for (int64_t r = 0; r < m; r++)
            budget[r] = check_degree - 2 + (r == 0);
        memset(shared, 0, (size_t)(m * m));
        memset(screen.slots, 0, 8 * (size_t)(slots * words));
        screen.n_placed = 0;
        for (int64_t r = 0; r < m; r++) {
            /* H2's column r covers rows r and r + 1, its last column row m - 1 alone */
            memset(cand, 0, 8 * (size_t)words);
            cand[r / 64] |= 1ull << (r % 64);
            if (r + 1 < m) {
                cand[(r + 1) / 64] |= 1ull << ((r + 1) % 64);
                shared[r * m + r + 1] = shared[(r + 1) * m + r] = 1;
            }
            screen_admit(&screen, cand);
        }

        int64_t placed = 0;
        for (; placed < k; placed++) {
            int64_t j = order[placed], degree = degrees[j], n_avail = 0, total = 0;
            /* budgets change only on acceptance, so while this column redraws
             * its rows with free places are fixed and a refused set is refused again */
            for (int64_t r = 0; r < m; r++)
                if (budget[r] > 0) {
                    avail[n_avail++] = r;
                    total += budget[r];
                }
            if (n_avail < degree) {
                blocker[0] = n_avail;
                blocker[1] = degree;
                break;
            }
            for (int64_t i = 0; i < n_avail; i++)
                p[i] = (double)budget[avail[i]] / (double)total;
            scaled_cdf(p, n_avail, first_cdf);
            int64_t n_sets = comb_capped(n_avail, degree, max_resample + 1), n_failed = 0;
            int accepted = 0;
            for (int64_t draw = 0; draw < max_resample && !accepted; draw++) {
                draw_rows(&rng, p, first_cdf, n_avail, degree, p_work, cdf, found);
                memset(cand, 0, 8 * (size_t)words);
                for (int64_t i = 0; i < degree; i++) {
                    int64_t r = avail[found[i]];
                    cand[r / 64] |= 1ull << (r % 64);
                }
                int refused = 0;
                for (int64_t f = 0; f < n_failed && !refused; f++)
                    refused = !memcmp(failed + f * words, cand, 8 * (size_t)words);
                if (refused)
                    continue;
                /* the 4-cycle test refuses far more row sets than the screen, so it runs first */
                int closes = 0;
                for (int64_t a = 0; a < degree && !closes; a++)
                    for (int64_t b = a + 1; b < degree && !closes; b++)
                        closes = shared[avail[found[a]] * m + avail[found[b]]];
                accepted = !closes && screen_admit(&screen, cand);
                if (!accepted) {
                    memcpy(failed + n_failed++ * words, cand, 8 * (size_t)words);
                    if (n_failed == n_sets)
                        break; /* no row set is left to try */
                }
            }
            if (!accepted) {
                blocker[0] = blocker[1] = -1;
                break;
            }
            int64_t *rows = cols + start[j];
            for (int64_t i = 0; i < degree; i++) {
                int64_t r = avail[found[i]], at = i;
                for (; at > 0 && rows[at - 1] > r; at--)
                    rows[at] = rows[at - 1];
                rows[at] = r;
                budget[r]--;
            }
            for (int64_t a = 0; a < degree; a++)
                for (int64_t b = a + 1; b < degree; b++)
                    shared[rows[a] * m + rows[b]] = shared[rows[b] * m + rows[a]] = 1;
        }
        if (placed == k)
            status = 0;
    }
done:
    free(order); free(start); free(budget); free(avail); free(found); free(p); free(shared);
    free(entropy); free(cand); free(screen.slots); free(screen.placed); free(screen.sums);
    free(screen.at);
    return status;
}
