/* The exact residue kernels of kernels.py, on uint32 words over towers
 * q < 2^30: the negacyclic NTT (Longa-Naehrig merged-psi Cooley-Tukey
 * forward, Gentleman-Sande inverse) and every pointwise pass around it.
 * A product by a constant is a 32-bit Shoup product against its
 * precomputed quotient; a product of two residues takes a Barrett
 * reduction whose quotient estimate is a 32x32->64 multiply, so both
 * vectorize. A sum is kept lazily below 2q, and an NTT word below 4q, so
 * no word reaches 4q <= 2^32, and every result is fully reduced into
 * [0, q). */
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

/* The NTT keeps Harvey's lazy bounds (J. Symb. Comp. 2014): forward
 * words stay in [0, 4q) and inverse words in [0, 2q) between stages, so
 * a butterfly makes at most one correction, and a row is reduced into
 * [0, q) once, at the end (the inverse's end is its multiply by scale).
 * With q < 2^30, 4q < 2^32. */

/* A Cooley-Tukey butterfly on words below 4q; results below 4q. */
static inline void ct(uint32_t *x, uint32_t *y, uint32_t w, uint32_t s,
                      uint32_t q)
{
    uint32_t u = FOLD(*x, 2 * q), v = shoup(*y, w, s, q); /* both < 2q */
    *x = u + v;
    *y = u - v + 2 * q;
}

/* A Gentleman-Sande butterfly on words below 2q; results below 2q. */
static inline void gs(uint32_t *x, uint32_t *y, uint32_t w, uint32_t s,
                      uint32_t q)
{
    uint32_t u = *x, v = *y, sum = u + v;
    *x = FOLD(sum, 2 * q);
    *y = shoup(u - v + 2 * q, w, s, q);
}

/* Where a table keeps the twiddle w[m + i] of block i of the m-block
 * stage t = n / 2m. From n = 256 the stages of t = 8, 4, 2, 1, which act
 * inside aligned 16-word blocks, read theirs by tiles of 16 blocks: tile
 * T's 15 vectors of 16 twiddles, one per block (one vector for t = 8,
 * then 2, 4 and 8 for t = 4, 2, 1), at 240 T; the stages of t >= 16 read
 * theirs from n - n/16 on. */
static inline size_t slot(size_t n, size_t t, size_t i)
{
    if (n < 256 || t >= 16)
        return (n < 256 ? 0 : n - n / 16) + n / (2 * t) + i;
    size_t per = 8 / t, b = i / per; /* its 16-word block */
    return 240 * (b / 16) + 16 * (per - 1 + i % per) + b % 16;
}

/* The layout of a power-of-two table: order[slot(n, t, i)] = m + i, and
 * w[0], which no stage reads, in the one slot left. */
void ntt_order(uint64_t *order, size_t n)
{
    for (size_t m = 1; m < n; m *= 2)
        for (size_t i = 0; i < m; i++)
            order[slot(n, n / 2 / m, i)] = m + i;
    order[n < 256 ? 0 : n - n / 16] = 0;
}

/* One stage, word by word: m blocks of 2t words, block i by the twiddle
 * at slot(n, t, i). */
static inline void stage(uint32_t *a, size_t n, size_t t, size_t m,
                         const uint32_t *w, const uint32_t *ws, uint32_t q,
                         int inverse)
{
    for (size_t i = 0; i < m; i++) {
        size_t k = slot(n, t, i);
        uint32_t *x = a + 2 * i * t, tw = w[k], ts = ws[k];
        if (inverse)
            for (size_t j = 0; j < t; j++)
                gs(x + j, x + j + t, tw, ts, q);
        else
            for (size_t j = 0; j < t; j++)
                ct(x + j, x + j + t, tw, ts, q);
    }
}

/* A row word by word, with its closing pass: the reduction into [0, q)
 * forward, the multiply by c inverse. gcc vectorises the stages of
 * t >= 16, and the narrower ones at constant widths. */
static void scalar(uint32_t *a, size_t n, const uint32_t *w,
                   const uint32_t *ws, uint32_t q, uint32_t c, uint32_t cs,
                   int inverse)
{
    for (size_t s = 1; s < n; s *= 2) { /* m = s blocks forward */
        size_t m = inverse ? n / 2 / s : s, t = n / 2 / m;
        switch (t) {
        case 1: stage(a, n, 1, m, w, ws, q, inverse); break;
        case 2: stage(a, n, 2, m, w, ws, q, inverse); break;
        case 4: stage(a, n, 4, m, w, ws, q, inverse); break;
        case 8: stage(a, n, 8, m, w, ws, q, inverse); break;
        default: stage(a, n, t, m, w, ws, q, inverse);
        }
    }
    for (size_t j = 0; j < n; j++) {
        uint32_t v = FOLD(a[j], 2 * q); /* forward words are below 4q */
        a[j] = inverse ? mulmod(a[j], c, cs, q) : FOLD(v, q);
    }
}

#ifdef __AVX512F__
/* With AVX-512, from n = 256 every stage runs on 16-word vectors (gcc's
 * generic vectors; it lowers them poorly to narrower registers, so other
 * targets take scalar()). A stage of t >= 16 pairs whole vectors. The
 * stages of t = 8, 4, 2, 1 run on the tiles, transposed in registers:
 * vector l of a tile holds word l of its 16 blocks, and stage t pairs
 * vector l with vector l + t, by the vector of the blocks' twiddles. */
#include <immintrin.h>
typedef uint32_t v16 __attribute__((vector_size(64)));
typedef uint64_t v8 __attribute__((vector_size(64)));

/* Vector helpers are macros or take pointers, not vector values, whose
 * passing depends on the target's vector ABI. gcc 12 multiplies
 * zero-extended 64-bit lanes with the three-uop vpmullq and makes FOLD
 * a compare, a mask and a subtract, so the one-uop vpmuludq (MUL_EVEN:
 * the 32x32->64 products of the even lanes) and vpminud are named. */
#define MUL_EVEN(a, b) ((v8)_mm512_mul_epu32((__m512i)(a), (__m512i)(b)))
#define VMIN(a, b) ((v16)_mm512_min_epu32((__m512i)(a), (__m512i)(b)))
#define VFOLD(x, q) VMIN(x, (x) - (q))

/* shoup() lane by lane, for variables x, w, s and q: the high halves of
 * the even and the odd lanes' 64-bit products. */
#define VSHOUP(x, w, s, q) ({                                              \
    v8 even_ = MUL_EVEN(x, s), odd_ = MUL_EVEN((v8)x >> 32, (v8)s >> 32);  \
    x * w - ((v16)(even_ >> 32) | (v16)(odd_ & ~0xffffffffull)) * q; })

/* ct() and gs() on 16 lanes, with the twiddles w and s lane by lane. */
static inline void vct(v16 *x, v16 *y, const v16 *w, const v16 *s,
                       const v16 *q)
{
    v16 q2 = *q + *q, u = VFOLD(*x, q2), v = *y, tw = *w, ts = *s, vq = *q;
    v = VSHOUP(v, tw, ts, vq);
    *x = u + v;
    *y = u - v + q2;
}

static inline void vgs(v16 *x, v16 *y, const v16 *w, const v16 *s,
                       const v16 *q)
{
    v16 q2 = *q + *q, u = *x, v = *y, sum = u + v, d = u - v + q2;
    v16 tw = *w, ts = *s, vq = *q;
    *x = VFOLD(sum, q2);
    *y = VSHOUP(d, tw, ts, vq);
}

/* A stage of t >= 16: m blocks of 2t words, block i by twiddle w[m + i]. */
static void wide(uint32_t *a, size_t t, size_t m, const uint32_t *w,
                 const uint32_t *ws, uint32_t q, int inverse)
{
    v16 vq = q - (v16){0};
    for (size_t i = 0; i < m; i++) {
        v16 tw = w[m + i] - (v16){0}, ts = ws[m + i] - (v16){0}, x, y;
        for (uint32_t *p = a + 2 * i * t; p < a + (2 * i + 1) * t; p += 16) {
            __builtin_memcpy(&x, p, sizeof x);
            __builtin_memcpy(&y, p + t, sizeof y);
            if (inverse)
                vgs(&x, &y, &tw, &ts, &vq);
            else
                vct(&x, &y, &tw, &ts, &vq);
            __builtin_memcpy(p, &x, sizeof x);
            __builtin_memcpy(p + t, &y, sizeof y);
        }
    }
}

/* Swapping the off-diagonal h x h blocks of every 2h x 2h block, for
 * h = 8, 4, 2, 1, transposes 16 x 16 words: row i (i & h clear) takes
 * row i + h's words j - h where j & h, and row i + h row i's j + h. */
static const v16 SWAP_LO[4] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23},
    {0, 1, 2, 3, 16, 17, 18, 19, 8, 9, 10, 11, 24, 25, 26, 27},
    {0, 1, 16, 17, 4, 5, 20, 21, 8, 9, 24, 25, 12, 13, 28, 29},
    {0, 16, 2, 18, 4, 20, 6, 22, 8, 24, 10, 26, 12, 28, 14, 30}};
static const v16 SWAP_HI[4] = {
    {8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31},
    {4, 5, 6, 7, 20, 21, 22, 23, 12, 13, 14, 15, 28, 29, 30, 31},
    {2, 3, 18, 19, 6, 7, 22, 23, 10, 11, 26, 27, 14, 15, 30, 31},
    {1, 17, 3, 19, 5, 21, 7, 23, 9, 25, 11, 27, 13, 29, 15, 31}};

static inline void transpose(v16 *r)
{
#pragma GCC unroll 4
    for (int k = 0; k < 4; k++)
#pragma GCC unroll 16
        for (int i = 0; i < 16; i++)
            if (!(i & 8 >> k)) {
                v16 x = r[i], y = r[i + (8 >> k)];
                r[i] = __builtin_shuffle(x, y, SWAP_LO[k]);
                r[i + (8 >> k)] = __builtin_shuffle(x, y, SWAP_HI[k]);
            }
}

/* The stages of t = 8, 4, 2, 1 (forward; the reverse order inverse) of
 * an n >= 256 row, tile by tile; forward words end in [0, q). */
static void narrow(uint32_t *a, size_t n, const uint32_t *w,
                   const uint32_t *ws, uint32_t q, int inverse)
{
    v16 vq = q - (v16){0}, q2 = vq + vq, r[16], tw, ts;
    for (size_t tile = 0; tile < n / 256; tile++) {
        const uint32_t *w0 = w + 240 * tile, *s0 = ws + 240 * tile;
        __builtin_memcpy(r, a + 256 * tile, sizeof r);
        transpose(r);
        /* Unrolled, so that the tile stays in registers. */
#pragma GCC unroll 4
        for (int k = 0; k < 4; k++) {
            int t = inverse ? 1 << k : 8 >> k, first = 8 / t - 1;
#pragma GCC unroll 16
            for (int l = 0; l < 16; l++) {
                if (l & t)
                    continue;
                /* slot() of the tile's blocks' pair l / 2t */
                __builtin_memcpy(&tw, w0 + 16 * (first + l / (2 * t)), sizeof tw);
                __builtin_memcpy(&ts, s0 + 16 * (first + l / (2 * t)), sizeof ts);
                if (inverse)
                    vgs(r + l, r + l + t, &tw, &ts, &vq);
                else
                    vct(r + l, r + l + t, &tw, &ts, &vq);
            }
        }
#pragma GCC unroll 16
        for (int l = 0; !inverse && l < 16; l++) {
            r[l] = VFOLD(r[l], q2);
            r[l] = VFOLD(r[l], vq);
        }
        transpose(r);
        __builtin_memcpy(a + 256 * tile, r, sizeof r);
    }
}

/* The inverse's last stage (t = n/2, twiddle w) with the multiply by
 * c folded in: x + y times c and x - y times w c, reduced into [0, q). */
static void last(uint32_t *a, size_t n, uint32_t w, uint32_t c, uint32_t cs,
                 uint32_t q)
{
    uint32_t wc = (uint32_t)((uint64_t)w * c % q);
    v16 vq = q - (v16){0}, q2 = vq + vq, vc = c - (v16){0}, vcs = cs - (v16){0};
    v16 vw = wc - (v16){0}, vws = (uint32_t)(((uint64_t)wc << 32) / q) - (v16){0};
    for (uint32_t *p = a; p < a + n / 2; p += 16) {
        v16 x, y, sum, d;
        __builtin_memcpy(&x, p, sizeof x);
        __builtin_memcpy(&y, p + n / 2, sizeof y);
        sum = x + y, d = x - y + q2;
        x = VSHOUP(sum, vc, vcs, vq);
        y = VSHOUP(d, vw, vws, vq);
        x = VFOLD(x, vq);
        y = VFOLD(y, vq);
        __builtin_memcpy(p, &x, sizeof x);
        __builtin_memcpy(p + n / 2, &y, sizeof y);
    }
}

#endif

/* Row r of the (rows, n) stack a uses tower r % towers's tables: words
 * below 4q forward, below 2q inverse, results in [0, q). */
void ntt(uint32_t *a, size_t rows, size_t towers, size_t n,
         const uint32_t *w, const uint32_t *w_shoup, const uint32_t *q,
         const uint32_t *scale, const uint32_t *scale_shoup, int inverse)
{
    for (size_t r = 0; r < rows; r++) {
        size_t k = r % towers;
        uint32_t *x = a + r * n, qk = q[k];
        const uint32_t *tw = w + k * n, *ts = w_shoup + k * n;
#ifdef __AVX512F__
        size_t t, m, wide_at = n - n / 16;
        if (n >= 256 && !inverse) {
            for (m = 1, t = n / 2; t >= 16; m *= 2, t /= 2)
                wide(x, t, m, tw + wide_at, ts + wide_at, qk, 0);
            narrow(x, n, tw, ts, qk, 0);
            continue;
        }
        if (n >= 256) {
            narrow(x, n, tw, ts, qk, 1);
            for (m = n / 32, t = 16; m > 1; m /= 2, t *= 2)
                wide(x, t, m, tw + wide_at, ts + wide_at, qk, 1);
            last(x, n, tw[wide_at + 1], scale[k], scale_shoup[k], qk);
            continue;
        }
#endif
        scalar(x, n, tw, ts, qk, scale[k], scale_shoup[k], inverse);
    }
}

/* x mod q lazily, in [0, 2q), for any 64-bit x = h 2^32 + l. */
static inline uint32_t mod64(uint64_t x, const modulus_t *m)
{
    uint32_t v = shoup((uint32_t)(x >> 32), m->r32, m->r32_s, m->q)
                 + shoup((uint32_t)x, 1, m->one_s, m->q); /* < 4q */
    return FOLD(v, 2 * m->q);
}

/* out[r] = rows[r] mod q for k rows of n unsigned 64-bit words, each
 * given by its address (the MDMC's bank rows), and one modulus. */
void gather(uint32_t *out, const uint64_t *const *rows, size_t k, size_t n,
            const modulus_t *mods)
{
    modulus_t m = *mods;
    for (size_t r = 0; r < k; r++) {
        const uint64_t *x = rows[r];
        uint32_t *o = out + r * n;
        uint64_t top = 0;
        for (size_t j = 0; j < n; j++)
            top = x[j] > top ? x[j] : top;
        if (top < m.q) /* residues already: a narrowing copy */
            for (size_t j = 0; j < n; j++)
                o[j] = (uint32_t)x[j];
        else
            for (size_t j = 0; j < n; j++) {
                uint32_t v = mod64(x[j], &m);
                o[j] = FOLD(v, m.q);
            }
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
            uint32_t v = mod64(x[j], &m);
            uint32_t neg = sign && (int64_t)x[j] < 0 ? m.r64 : 0;
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
