/* The exact residue kernels of kernels.py, on uint32 words over towers
 * q < 2^30: the negacyclic NTT (Longa-Naehrig merged-psi Cooley-Tukey
 * forward, Gentleman-Sande inverse) and every pointwise pass around it.
 * A product by a constant is a 32-bit Shoup product against its
 * precomputed quotient; a product of two residues takes a Barrett
 * reduction whose quotient estimate is a 32x32->64 multiply, so both
 * run 16 lanes at a time on AVX-512. A sum is kept lazily below 2q, and
 * an NTT word below 4q, so no word reaches 4q <= 2^32, and every result
 * is fully reduced into [0, q). replay() runs a compiled stream of the
 * chip model's commands over its bank rows in one call. */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* The pointwise kernels' vectors: a modulus' constants in every lane,
 * and 16 64-bit words split into their low and high 32-bit halves. */
typedef int32_t v16s __attribute__((vector_size(64)));
struct vmod {
    v16 q, q2, barrett, r32, r32_s, one, one_s, r64;
    int lo, hi; /* Barrett's shifts, b - 1 and b + 1 */
};

#define LOAD(v, p) __builtin_memcpy(&(v), p, sizeof(v16))
#define STORE(p, v) __builtin_memcpy(p, &(v), sizeof(v16))
#define SPLAT(x) ((x) - (v16){0})

static inline void vmod(struct vmod *v, const modulus_t *m)
{
    v->q = SPLAT(m->q);
    v->q2 = v->q + v->q;
    v->barrett = SPLAT(m->barrett);
    v->r32 = SPLAT(m->r32);
    v->r32_s = SPLAT(m->r32_s);
    v->one = SPLAT(1);
    v->one_s = SPLAT(m->one_s);
    v->r64 = SPLAT(m->r64);
    v->lo = (int)m->bits - 1;
    v->hi = (int)m->bits + 1;
}

/* barrett() lane by lane, for variables x and y and a struct vmod m: the
 * 64-bit products and their quotient estimates, even lanes and odd. */
#define VBARRETT(x, y, m) ({                                               \
    v8 pe_ = MUL_EVEN(x, y), po_ = MUL_EVEN((v8)x >> 32, (v8)y >> 32);     \
    v8 ee_ = MUL_EVEN(pe_ >> (m).lo, (m).barrett) >> (m).hi;               \
    v8 eo_ = MUL_EVEN(po_ >> (m).lo, (m).barrett) >> (m).hi;               \
    v16 r_ = x * y - ((v16)ee_ | (v16)(eo_ << 32)) * (m).q;                \
    r_ = VFOLD(r_, (m).q);                                                 \
    VFOLD(r_, (m).q); })

static const v16 EVEN = {0, 2, 4, 6, 8, 10, 12, 14,
                         16, 18, 20, 22, 24, 26, 28, 30};
static const v16 ODD = {1, 3, 5, 7, 9, 11, 13, 15,
                        17, 19, 21, 23, 25, 27, 29, 31};

/* The low and high halves lo and hi of the 16 64-bit words at p. */
#define HALVES(p, lo, hi) do {                                             \
    v16 a_, b_;                                                            \
    LOAD(a_, p);                                                           \
    LOAD(b_, (p) + 8);                                                     \
    lo = __builtin_shuffle(a_, b_, EVEN);                                  \
    hi = __builtin_shuffle(a_, b_, ODD);                                   \
} while (0)

/* mod64() lane by lane, of the words of halves lo and hi: in [0, 2q). */
#define VMOD64(lo, hi, m) ({                                               \
    v16 w_ = (m).r32, s_ = (m).r32_s, one_ = (m).one, os_ = (m).one_s;     \
    v16 q_ = (m).q, h_ = VSHOUP(hi, w_, s_, q_);                           \
    h_ += VSHOUP(lo, one_, os_, q_);                                       \
    VFOLD(h_, (m).q2); })

#endif

/* One row x of n words below 4q forward, below 2q inverse, on tables tw
 * and ts of modulus q; the inverse ends with the multiply by c (Shoup
 * quotient cs). The results are in [0, q). */
static void transform_row(uint32_t *x, size_t n, const uint32_t *tw,
                          const uint32_t *ts, uint32_t q, uint32_t c,
                          uint32_t cs, int inverse)
{
#ifdef __AVX512F__
    size_t t, m, wide_at = n - n / 16;
    if (n >= 256 && !inverse) {
        for (m = 1, t = n / 2; t >= 16; m *= 2, t /= 2)
            wide(x, t, m, tw + wide_at, ts + wide_at, q, 0);
        narrow(x, n, tw, ts, q, 0);
        return;
    }
    if (n >= 256) {
        narrow(x, n, tw, ts, q, 1);
        for (m = n / 32, t = 16; m > 1; m /= 2, t *= 2)
            wide(x, t, m, tw + wide_at, ts + wide_at, q, 1);
        last(x, n, tw[wide_at + 1], c, cs, q);
        return;
    }
#endif
    scalar(x, n, tw, ts, q, c, cs, inverse);
}

/* Row r of the (rows, n) stack a uses tower r % towers's tables: words
 * below 4q forward, below 2q inverse, results in [0, q). */
void ntt(uint32_t *a, size_t rows, size_t towers, size_t n,
         const uint32_t *w, const uint32_t *w_shoup, const uint32_t *q,
         const uint32_t *scale, const uint32_t *scale_shoup, int inverse)
{
    for (size_t r = 0; r < rows; r++) {
        size_t k = r % towers;
        transform_row(a + r * n, n, w + k * n, w_shoup + k * n, q[k],
                      scale[k], scale_shoup[k], inverse);
    }
}


/* The pointwise kernels run 16-word vectors on AVX-512 rows of a
 * multiple of 16 words (each keeps an output tile in a register across
 * its terms), the word-by-word loops otherwise: the same operations lane
 * by lane, so the same words. */

/* x mod q lazily, in [0, 2q), for any 64-bit x = h 2^32 + l. */
static inline uint32_t mod64(uint64_t x, const modulus_t *m)
{
    uint32_t v = shoup((uint32_t)(x >> 32), m->r32, m->r32_s, m->q)
                 + shoup((uint32_t)x, 1, m->one_s, m->q); /* < 4q */
    return FOLD(v, 2 * m->q);
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
#ifdef __AVX512F__
        if (n % 16 == 0) {
            struct vmod vm;
            vmod(&vm, &m);
            v16 vq = vm.q, vw = SPLAT(w), vws = SPLAT(ws), lo, hi, v, neg;
            for (size_t j = 0; j < n; j += 16) {
                HALVES(x + j, lo, hi);
                neg = sign ? (v16)((v16s)hi >> 31) & vm.r64 : (v16){0};
                v = VMOD64(lo, hi, vm);
                v = VFOLD(v, vq) + vq - neg;
                v = VFOLD(v, vq);
                v = VSHOUP(v, vw, vws, vq);
                v = VFOLD(v, vq);
                STORE(o + j, v);
            }
            continue;
        }
#endif
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
#ifdef __AVX512F__
        if (n % 16 == 0) {
            struct vmod vm;
            vmod(&vm, &m);
            for (size_t j = r * n; j < (r + 1) * n; j += 16) {
                v16 x, y;
                LOAD(x, a + j);
                LOAD(y, b + j);
                x = VBARRETT(x, y, vm);
                STORE(out + j, x);
            }
            continue;
        }
#endif
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
#ifdef __AVX512F__
        if (n % 16 == 0) {
            struct vmod vm;
            vmod(&vm, &m);
            for (size_t j = k * n; j < (k + 1) * n; j += 16) {
                v16 x0, x1, y0, y1, cross, other;
                LOAD(x0, a0 + j);
                LOAD(x1, a1 + j);
                LOAD(y0, b0 + j);
                LOAD(y1, b1 + j);
                cross = VBARRETT(x0, y1, vm);
                other = VBARRETT(x1, y0, vm);
                cross += other;
                cross = VFOLD(cross, vm.q);
                y0 = VBARRETT(x0, y0, vm);
                y1 = VBARRETT(x1, y1, vm);
                STORE(y + j, y0);
                STORE(y + row + j, cross);
                STORE(y + 2 * row + j, y1);
            }
            continue;
        }
#endif
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
                const uint32_t *x0 = x + j * digits * row + k * n;
                const uint32_t *k0 = key + s * digits * row + k * n;
#ifdef __AVX512F__
                if (n % 16 == 0) {
                    struct vmod vm;
                    vmod(&vm, &m);
                    for (size_t i = 0; i < n; i += 16) {
                        v16 acc = {0}, xd, kd;
                        for (size_t d = 0; d < digits; d++) {
                            LOAD(xd, x0 + d * row + i);
                            LOAD(kd, k0 + d * row + i);
                            acc += VBARRETT(xd, kd, vm);
                            acc = VFOLD(acc, vm.q);
                        }
                        STORE(o + i, acc);
                    }
                    continue;
                }
#endif
                for (size_t d = 0; d < digits; d++) {
                    const uint32_t *xd = x0 + d * row, *kd = k0 + d * row;
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
            const uint32_t *ci = c + i * terms, *cs = c_shoup + i * terms;
#ifdef __AVX512F__
            if (n % 16 == 0) {
                v16 vq = SPLAT(q), q2 = vq + vq, w = SPLAT(s[i]);
                v16 ws = SPLAT(s_shoup[i]), t, v;
                for (size_t j = 0; j < n; j += 16) {
                    t = (v16){0};
                    if (a) {
                        LOAD(t, a + j);
                        t = VSHOUP(t, w, ws, vq);
                    }
                    for (size_t k = 0; k < terms; k++) {
                        v16 tw = SPLAT(ci[k]), ts = SPLAT(cs[k]);
                        LOAD(v, x + (b * terms + k) * n + j);
                        t += VSHOUP(v, tw, ts, vq); /* < 4q */
                        t = VFOLD(t, q2);
                    }
                    t = VFOLD(t, vq);
                    STORE(o + j, t);
                }
                continue;
            }
#endif
            for (size_t j = 0; j < n; j++)
                o[j] = a ? shoup(a[j], s[i], s_shoup[i], q) : 0;
            for (size_t k = 0; k < terms; k++) {
                const uint32_t *xk = x + (b * terms + k) * n;
                for (size_t j = 0; j < n; j++) {
                    uint32_t v = o[j] + shoup(xk[j], ci[k], cs[k], q); /* < 4q */
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
#ifdef __AVX512F__
            if (n % 16 == 0) {
                v16 vq = SPLAT(q), q2 = vq + vq, w = SPLAT(ck[k]);
                v16 ws = SPLAT(cs[k]), t, v;
                for (size_t j = 0; j < n; j += 16) {
                    LOAD(t, ab + k * n + j);
                    t = VSHOUP(t, w, ws, vq);
                    for (size_t i = 0; i < k; i++) {
                        v16 tw = SPLAT(ck[i]), ts = SPLAT(cs[i]);
                        LOAD(v, db + i * n + j);
                        t += VSHOUP(v, tw, ts, vq);
                        t = VFOLD(t, q2);
                    }
                    t = VFOLD(t, vq);
                    STORE(o + j, t);
                }
                continue;
            }
#endif
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

/* Bank row x of n 64-bit words mod q into o: a narrowing copy, which is
 * all when every word is already below q, else the reduction. */
static void load(uint32_t *o, const uint64_t *x, size_t n, const modulus_t *m)
{
    uint64_t top = 0;
    for (size_t j = 0; j < n; j++) {
        top = x[j] > top ? x[j] : top;
        o[j] = (uint32_t)x[j];
    }
    if (top < m->q)
        return;
#ifdef __AVX512F__
    if (n % 16 == 0) {
        struct vmod vm;
        vmod(&vm, m);
        for (size_t j = 0; j < n; j += 16) {
            v16 lo, hi, v;
            HALVES(x + j, lo, hi);
            v = VMOD64(lo, hi, vm);
            v = VFOLD(v, vm.q);
            STORE(o + j, v);
        }
        return;
    }
#endif
    for (size_t j = 0; j < n; j++) {
        uint32_t v = mod64(x[j], m);
        o[j] = FOLD(v, m->q);
    }
}

/* The replay's opcodes: a twiddle row's check, then the MDMC's
 * vector-fidelity commands. */
enum replay_op {
    OP_CHECK, OP_NTT, OP_INTT, OP_PMODMUL, OP_PMODSQR, OP_PMODADD,
    OP_PMODSUB, OP_CMODMUL
};

/* One group of a replay program: rows commands of one opcode on n-word
 * rows of 64-bit bank words, reading x[r] (and y[r]) and writing out[r].
 * NTT and iNTT groups run on the tables w, w_shoup, and an iNTT's row r
 * ends with the multiply by c[r] (Shoup quotient c_shoup[r]), which is
 * all a CMODMUL row does. A CHECK group's row x[0] must hold the words
 * y[0]. The last group of a hazard level has last set. */
typedef struct {
    uint32_t op, rows, last, pad;
    const uint64_t *const *x;
    const uint64_t *const *y;
    uint64_t *const *out;
    const uint32_t *w;
    const uint32_t *w_shoup;
    const uint32_t *c;
    const uint32_t *c_shoup;
} group_t;

/* Runs a program of count groups over n-word rows mod one modulus, level
 * by level: a level reads its operand rows mod q into scratch, which has
 * room for one row more than the largest level's, and once its groups
 * have run, stores their results as 64-bit words. Returns 1, having
 * stored nothing, when a CHECK row differs, and 0 otherwise. */
int replay(const group_t *g, size_t count, size_t n, const modulus_t *mods,
           uint32_t *scratch)
{
    modulus_t m = *mods;
    uint32_t q = m.q, *y = scratch; /* row 0: a second operand */
    for (size_t i = 0; i < count; i++)
        if (g[i].op == OP_CHECK
            && memcmp(g[i].x[0], g[i].y[0], n * sizeof(uint64_t)))
            return 1;
    for (size_t i = 0, first = 0, at = 1; i < count; i++) {
        const group_t *p = g + i;
        for (size_t r = 0; p->op != OP_CHECK && r < p->rows; r++, at++) {
            uint32_t *x = scratch + at * n;
            load(x, p->x[r], n, &m);
            if (p->y)
                load(y, p->y[r], n, &m);
            switch (p->op) {
            case OP_NTT:
                transform_row(x, n, p->w, p->w_shoup, q, 1, m.one_s, 0);
                break;
            case OP_INTT:
                transform_row(x, n, p->w, p->w_shoup, q, p->c[r],
                              p->c_shoup[r], 1);
                break;
            case OP_PMODMUL:
                multiply(x, x, y, 1, 1, n, &m);
                break;
            case OP_PMODSQR:
                multiply(x, x, x, 1, 1, n, &m);
                break;
            case OP_PMODADD:
                for (size_t j = 0; j < n; j++) {
                    uint32_t v = x[j] + y[j];
                    x[j] = FOLD(v, q);
                }
                break;
            case OP_PMODSUB:
                for (size_t j = 0; j < n; j++) {
                    uint32_t v = x[j] - y[j] + q;
                    x[j] = FOLD(v, q);
                }
                break;
            case OP_CMODMUL:
                for (size_t j = 0; j < n; j++)
                    x[j] = mulmod(x[j], p->c[r], p->c_shoup[r], q);
                break;
            }
        }
        if (!p->last)
            continue;
        for (const uint32_t *x = scratch + n; first <= i; first++)
            for (size_t r = 0; g[first].op != OP_CHECK && r < g[first].rows;
                 r++, x += n) {
                uint64_t *o = g[first].out[r];
                for (size_t j = 0; j < n; j++)
                    o[j] = x[j];
            }
        at = 1;
    }
    return 0;
}
