/* Random streams of the single-code harness, and the IRA encoder.  Trial i
 * of master seed m draws what
 * np.random.Generator(np.random.PCG64(np.random.SeedSequence((m, i))))
 * would draw.  The seeding is SeedSequence's hash and PCG64's set-up, each
 * trial's 128-bit state is stepped as NumPy's PCG64 steps it, and the
 * normals come from NumPy's own ziggurat, random_standard_normal_fill of
 * libnpyrandom.a, which this file is linked with.  A trial's state is kept
 * between calls as four uint64 words: state high, state low, increment high,
 * increment low. */
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* distributions.h declares it, but includes Python.h */
extern void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

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

static uint64_t next64(void *st)
{
    pcg64 *rng = st;
    rng->state = rng->state * PCG_MULT + rng->inc;
    uint64_t xored = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return (xored >> rot) | (xored << ((64 - rot) & 63));
}

static double next_double(void *st)
{
    return (double)(next64(st) >> 11) * (1.0 / 9007199254740992.0);
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

/* The states of trials lo..lo+count-1: entropy is the master seed's n_words
 * 32-bit words, then the trial index; the pool takes the first POOL words,
 * zeros when the entropy is shorter, and the rest is mixed into every word.
 * generate_state(4, uint64) pairs eight hashed pool words little-endian. */
void trial_seed(const uint32_t *words, int64_t n_words, int64_t lo, int64_t count, uint64_t *states)
{
    for (int64_t t = 0; t < count; t++) {
        uint32_t pool[POOL], hash_const = INIT_A, seed32[2 * POOL];
        int64_t n = n_words + 1;
        for (int64_t k = 0; k < POOL; k++)
            pool[k] = hashmix(k < n_words ? words[k] : k == n_words ? (uint32_t)(lo + t) : 0,
                              &hash_const);
        for (int src = 0; src < POOL; src++)
            for (int dst = 0; dst < POOL; dst++)
                if (src != dst)
                    pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
        for (int64_t k = POOL; k < n; k++) {
            uint32_t word = k < n_words ? words[k] : (uint32_t)(lo + t);
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

/* Channel LLRs of n BPSK-mapped code bits per trial: n standard normals z
 * from the trial's stream, then 2 * ((1 - 2 * bit) + sigma * z) / sigma^2,
 * each operation rounded as NumPy's modulate, awgn and channel_llr round it. */
void trial_llrs(uint64_t *states, int64_t count, int64_t n, const uint8_t *codewords, double sigma,
                double *llrs)
{
    double scale = sigma * sigma;
    for (int64_t t = 0; t < count; t++) {
        pcg64 rng = load(states + 4 * t);
        /* NumPy's PCG64 buffers half of an output for next_uint32; the
         * ziggurat never asks for one, so it is not modelled */
        bitgen_t gen = {&rng, next64, 0, next_double, next64};
        double *row = llrs + t * n;
        const uint8_t *bit = codewords + t * n;
        random_standard_normal_fill(&gen, n, row);
        for (int64_t j = 0; j < n; j++)
            row[j] = (2.0 * ((1.0 - 2.0 * (double)bit[j]) + sigma * row[j])) / scale;
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
