/* The exact residue kernels of kernels.py, on uint32 words over towers
 * q < 2^30: the negacyclic NTT (Longa-Naehrig merged-psi Cooley-Tukey
 * forward, Gentleman-Sande inverse) and every pointwise pass around it.
 * A product by a constant is a 32-bit Shoup product against its
 * precomputed quotient; a product of two residues takes a Barrett
 * reduction whose quotient estimate is a 32x32->64 multiply, so both
 * vectorize. A sum is kept lazily below 2q, so no accumulator reaches
 * 4q <= 2^32, and every result is fully reduced into [0, q). */
#include <stddef.h>
#include <stdint.h>

#define FOLD(x, q) ((x) < (x) - (q) ? (x) : (x) - (q)) /* x mod q, x < 2q */

/* One tower's constants, built by kernels.Moduli. */
typedef struct {
    uint32_t q, bits;   /* the modulus and its bit length b */
    uint32_t barrett;   /* floor(2^2b / q) */
    uint32_t one_s;     /* floor(2^32 / q): the Shoup quotient of 1 */
    uint32_t r32, r32_s; /* 2^32 mod q and its Shoup quotient */
    uint32_t r64, pad;  /* 2^64 mod q */
} modulus_t;

/* x w mod q lazily, in [0, 2q), for any 32-bit x, w < q and
 * s = floor(w 2^32 / q). */
static inline uint32_t shoup(uint32_t x, uint32_t w, uint32_t s, uint32_t q)
{
    return x * w - (uint32_t)(((uint64_t)x * s) >> 32) * q;
}

static inline uint32_t mulmod(uint32_t x, uint32_t w, uint32_t s, uint32_t q)
{
    uint32_t r = shoup(x, w, s, q);
    return FOLD(r, q);
}

/* x y mod q for x, y < q: the estimate ((x y >> (b - 1)) floor(2^2b / q))
 * >> (b + 1) is at most two below the quotient, so r < 3q < 2^32. */
static inline uint32_t barrett(uint32_t x, uint32_t y, const modulus_t *m)
{
    uint64_t p = (uint64_t)x * y;
    uint32_t top = (uint32_t)(p >> (m->bits - 1)); /* < 2^(b + 1) */
    uint32_t est = (uint32_t)(((uint64_t)top * m->barrett) >> (m->bits + 1));
    uint32_t r = (uint32_t)p - est * m->q;
    r = FOLD(r, m->q);
    return FOLD(r, m->q);
}

/* One stage: m blocks of 2t words, block i by twiddle w[m + i]. */
static inline void stage(uint32_t *a, size_t t, size_t m, const uint32_t *w,
                         const uint32_t *ws, uint32_t q, int inverse)
{
    for (size_t i = 0; i < m; i++) {
        uint32_t *x = a + 2 * i * t, *y = x + t, tw = w[m + i], s = ws[m + i];
        for (size_t j = 0; j < t; j++) {
            uint32_t u = x[j], v = inverse ? y[j] : mulmod(y[j], tw, s, q);
            uint32_t sum = u + v, diff = u - v + q;
            x[j] = FOLD(sum, q);
            y[j] = inverse ? mulmod(diff, tw, s, q) : FOLD(diff, q);
        }
    }
}

/* Constant widths below 16 let the compiler vectorise across blocks. */
#define STAGE(inv) switch (t) {                                           \
    case 1: stage(x, 1, m, tw, ts, qk, inv); break;                       \
    case 2: stage(x, 2, m, tw, ts, qk, inv); break;                       \
    case 4: stage(x, 4, m, tw, ts, qk, inv); break;                       \
    case 8: stage(x, 8, m, tw, ts, qk, inv); break;                       \
    default: stage(x, t, m, tw, ts, qk, inv); }

/* Row r of the (rows, n) stack a uses tower r % towers's tables. */
void ntt(uint32_t *a, size_t rows, size_t towers, size_t n,
         const uint32_t *w, const uint32_t *w_shoup, const uint32_t *q,
         const uint32_t *scale, const uint32_t *scale_shoup, int inverse)
{
    for (size_t r = 0; r < rows; r++) {
        size_t k = r % towers, t, m;
        uint32_t *x = a + r * n, qk = q[k];
        const uint32_t *tw = w + k * n, *ts = w_shoup + k * n;
        if (!inverse) {
            for (m = 1, t = n >> 1; m < n; m <<= 1, t >>= 1)
                STAGE(0)
            continue;
        }
        for (m = n >> 1, t = 1; m >= 1; m >>= 1, t <<= 1)
            STAGE(1)
        uint32_t c = scale[k], cs = scale_shoup[k];
        for (size_t j = 0; c != 1 && j < n; j++)
            x[j] = mulmod(x[j], c, cs, qk);
    }
}

/* out = (a mod q) s mod q per row (tower r % towers) of a (rows, n)
 * stack of 64-bit words, signed when sign is set: a = h 2^32 + l as
 * unsigned, less 2^64 when negative. */
void reduce(uint32_t *out, const uint64_t *a, size_t rows, size_t towers,
            size_t n, int sign, const uint32_t *s, const uint32_t *s_shoup,
            const modulus_t *mods)
{
    for (size_t r = 0; r < rows; r++) {
        modulus_t m = mods[r % towers];
        uint32_t q = m.q, w = s[r % towers], ws = s_shoup[r % towers];
        const uint64_t *x = a + r * n;
        uint32_t *o = out + r * n;
        for (size_t j = 0; j < n; j++) {
            uint32_t v = shoup((uint32_t)(x[j] >> 32), m.r32, m.r32_s, q)
                         + shoup((uint32_t)x[j], 1, m.one_s, q); /* < 4q */
            uint32_t neg = sign && (int64_t)x[j] < 0 ? m.r64 : 0;
            v = FOLD(v, 2 * q);
            v = FOLD(v, q) + q - neg;
            v = FOLD(v, q);
            o[j] = mulmod(v, w, ws, q);
        }
    }
}

/* out = a b mod q per row (tower r % towers) of (rows, n) residues. */
void multiply(uint32_t *out, const uint32_t *a, const uint32_t *b,
              size_t rows, size_t towers, size_t n, const modulus_t *mods)
{
    for (size_t r = 0; r < rows; r++) {
        modulus_t m = mods[r % towers]; /* a local copy: out cannot alias it */
        for (size_t j = r * n; j < (r + 1) * n; j++)
            out[j] = barrett(a[j], b[j], &m);
    }
}

/* The Eq. 4 tensor of NTT-domain (4, towers, n) operands a0, a1, b0, b1
 * (or (2, towers, n) a0, a1 squared) into (3, towers, n) y0, y1, y2. */
void tensor(uint32_t *restrict y, const uint32_t *f, size_t towers, size_t n,
            int square, const modulus_t *mods)
{
    size_t row = towers * n;
    const uint32_t *a0 = f, *a1 = f + row;
    const uint32_t *b0 = square ? a0 : f + 2 * row;
    const uint32_t *b1 = square ? a1 : f + 3 * row;
    for (size_t k = 0; k < towers; k++) {
        modulus_t m = mods[k];
        for (size_t j = k * n; j < (k + 1) * n; j++) {
            uint32_t cross = barrett(a0[j], b1[j], &m) + barrett(a1[j], b0[j], &m);
            y[j] = barrett(a0[j], b0[j], &m);
            y[row + j] = FOLD(cross, m.q);
            y[2 * row + j] = barrett(a1[j], b1[j], &m);
        }
    }
}

/* The key-switch inner product: out[s][j] = sum_d x[j][d] key[s][d] mod q
 * per tower, for (jobs, digits, towers, n) x, (2, digits, towers, n) key
 * rows and (2, jobs, towers, n) out. */
void keyswitch(uint32_t *out, const uint32_t *x, const uint32_t *key,
               size_t jobs, size_t digits, size_t towers, size_t n,
               const modulus_t *mods)
{
    size_t row = towers * n;
    for (size_t s = 0; s < 2; s++)
        for (size_t j = 0; j < jobs; j++)
            for (size_t k = 0; k < towers; k++) {
                modulus_t m = mods[k];
                uint32_t *o = out + (s * jobs + j) * row + k * n;
                for (size_t d = 0; d < digits; d++) {
                    const uint32_t *xd = x + (j * digits + d) * row + k * n;
                    const uint32_t *kd = key + (s * digits + d) * row + k * n;
                    for (size_t i = 0; i < n; i++) {
                        uint32_t v = (d ? o[i] : 0) + barrett(xd[i], kd[i], &m);
                        o[i] = FOLD(v, m.q);
                    }
                }
            }
}

/* Multiply-accumulate against constants: out[b][i] = (acc[b][i] s[i] +
 * sum_k x[b][k] c[i][k]) mod q_i, for (batch, terms, n) words x, per-tower
 * constants c (towers x terms) and s with their Shoup quotients, and
 * (batch, towers, n) out. acc may be NULL (zero) or out itself. */
void mac(uint32_t *out, const uint32_t *x, const uint32_t *acc, size_t batch,
         size_t terms, size_t towers, size_t n, const uint32_t *c,
         const uint32_t *c_shoup, const uint32_t *s, const uint32_t *s_shoup,
         const modulus_t *mods)
{
    for (size_t b = 0; b < batch; b++)
        for (size_t i = 0; i < towers; i++) {
            uint32_t q = mods[i].q, *o = out + (b * towers + i) * n;
            const uint32_t *a = acc ? acc + (b * towers + i) * n : NULL;
            for (size_t j = 0; j < n; j++)
                o[j] = a ? shoup(a[j], s[i], s_shoup[i], q) : 0;
            for (size_t k = 0; k < terms; k++) {
                const uint32_t *xk = x + (b * terms + k) * n;
                uint32_t w = c[i * terms + k], ws = c_shoup[i * terms + k];
                for (size_t j = 0; j < n; j++) {
                    uint32_t v = o[j] + shoup(xk[j], w, ws, q); /* < 4q */
                    o[j] = FOLD(v, 2 * q);
                }
            }
            for (size_t j = 0; j < n; j++)
                o[j] = FOLD(o[j], q);
        }
}

/* Garner's mixed-radix digits of (batch, towers, n) residues a:
 * d_k = (a_k c[k][k] + sum_{i<k} d_i c[k][i]) mod q_k, with c a
 * towers x towers table of constants and their Shoup quotients. */
void garner(uint32_t *d, const uint32_t *a, size_t batch, size_t towers,
            size_t n, const uint32_t *c, const uint32_t *c_shoup,
            const modulus_t *mods)
{
    for (size_t b = 0; b < batch; b++) {
        uint32_t *db = d + b * towers * n;
        const uint32_t *ab = a + b * towers * n;
        for (size_t k = 0; k < towers; k++) {
            uint32_t q = mods[k].q, *o = db + k * n;
            const uint32_t *ck = c + k * towers, *cs = c_shoup + k * towers;
            for (size_t j = 0; j < n; j++)
                o[j] = shoup(ab[k * n + j], ck[k], cs[k], q);
            for (size_t i = 0; i < k; i++)
                for (size_t j = 0; j < n; j++) {
                    uint32_t v = o[j] + shoup(db[i * n + j], ck[i], cs[i], q);
                    o[j] = FOLD(v, 2 * q);
                }
            for (size_t j = 0; j < n; j++)
                o[j] = FOLD(o[j], q);
        }
    }
}
