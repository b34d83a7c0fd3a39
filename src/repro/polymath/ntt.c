/* The exact residue kernels of kernels.py, on uint32 words over towers
 * q < 2^30: the negacyclic NTT (Longa-Naehrig merged-psi Cooley-Tukey
 * forward, Gentleman-Sande inverse) and every pointwise pass around it.
 * A product by a constant is a 32-bit Shoup product against its
 * precomputed quotient; a product of two residues takes a Barrett
 * reduction whose quotient estimate is a 32x32->64 multiply, so both
 * run 16 lanes at a time on AVX-512. A sum is kept lazily below 2q, and
 * an NTT word below 4q, so no word reaches 4q <= 2^32, and every result
 * is fully reduced into [0, q). replay() runs a compiled stream of the
 * chip model's commands over its bank rows in one call, with the host's
 * operand loads and result checks around it, and centre(),
 * scale_round(), digits() and pack() each run one change of
 * representation of the served RNS path (wire words, towers, key-switch
 * digits, bytes) in one call. */
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
 * (or (2, towers, n) a0, a1 squared) into (3, towers, n) y0, y1, y2. Each
 * word is read before its place in any row is written, so y may be f. */
void tensor(uint32_t *y, const uint32_t *f, size_t towers, size_t n,
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
            uint32_t y0 = barrett(a0[j], b0[j], &m), y2 = barrett(a1[j], b1[j], &m);
            y[j] = y0;
            y[row + j] = FOLD(cross, m.q);
            y[2 * row + j] = y2;
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

/* The RNS boundary kernels (centre, scale_round, digits, pack) carry 16
 * coefficients at a time through every step of a change of
 * representation, in tiles: rows of 16 words, one row per tower, limb or
 * digit, on the stack. A step runs on 16-word vectors on AVX-512, lane by
 * lane otherwise and for rows of fewer than 16 words (n < 16). */
#define LANES 16
typedef uint32_t tile_t[LANES];

/* o = (a + sum_{k < terms} x_k c[k]) mod q, lane by lane, in [0, q): a
 * (NULL: zero) below 2q, the terms any 32-bit words at x + k stride,
 * the constants below q with their Shoup quotients cs. A lazy sum below
 * 2q. o may be one of the terms. */
static void dot(uint32_t *o, const uint32_t *a, const uint32_t *x,
                size_t stride, size_t terms, const uint32_t *c,
                const uint32_t *cs, uint32_t q, size_t lanes)
{
#ifdef __AVX512F__
    if (lanes == LANES) {
        v16 vq = SPLAT(q), q2 = vq + vq, t = {0}, v;
        if (a)
            LOAD(t, a);
        for (size_t k = 0; k < terms; k++) {
            v16 w = SPLAT(c[k]), s = SPLAT(cs[k]);
            LOAD(v, x + k * stride);
            t += VSHOUP(v, w, s, vq); /* < 4q */
            t = VFOLD(t, q2);
        }
        t = VFOLD(t, vq);
        STORE(o, t);
        return;
    }
#endif
    for (size_t l = 0; l < lanes; l++) {
        uint32_t t = a ? a[l] : 0;
        for (size_t k = 0; k < terms; k++) {
            t += shoup(x[k * stride + l], c[k], cs[k], q);
            t = FOLD(t, 2 * q);
        }
        o[l] = FOLD(t, q);
    }
}

/* Garner's digits of a tile of towers rows in place, as garner() makes
 * them: row k of the towers x towers table g holds d_i's constants at
 * i < k and a_k's at k. */
static void garner_tile(tile_t *x, size_t towers, const uint32_t *g,
                        const uint32_t *gs, const modulus_t *mods,
                        size_t lanes)
{
    for (size_t k = 0; k < towers; k++)
        dot(x[k], NULL, x[0], LANES, k + 1, g + k * towers, gs + k * towers,
            mods[k].q, lanes);
}

/* The count little-endian 32-bit limbs of v = d_0 + q_0 (d_1 + q_1 (...
 * + q_{towers-2} d_{towers-1})) for a tile d of Garner digits: one
 * multiply-with-carry per limb and digit, limb q_k + carry < 2^63. count
 * must hold v. */
static void limbs_tile(tile_t *limb, size_t count, const tile_t *d,
                       size_t towers, const modulus_t *mods, size_t lanes)
{
    memcpy(limb[0], d[towers - 1], sizeof(tile_t));
    memset(limb[1], 0, (count - 1) * sizeof(tile_t));
    for (size_t k = towers - 1; k-- > 0;) {
        uint32_t q = mods[k].q;
#ifdef __AVX512F__
        if (lanes == LANES) {
            v8 low = (v8){0} + 0xffffffffu, vq = (v8){0} + q, even, odd;
            v16 x;
            LOAD(x, d[k]);
            v8 ce = (v8)x & low, co = (v8)x >> 32; /* the carries by lane */
            for (size_t j = 0; j < count; j++) {
                LOAD(x, limb[j]);
                even = MUL_EVEN(x, vq) + ce;
                odd = MUL_EVEN((v8)x >> 32, vq) + co;
                x = (v16)(even & low) | (v16)(odd << 32);
                STORE(limb[j], x);
                ce = even >> 32;
                co = odd >> 32;
            }
            continue;
        }
#endif
        for (size_t l = 0; l < lanes; l++) {
            uint64_t carry = d[k][l];
            for (size_t j = 0; j < count; j++) {
                uint64_t x = (uint64_t)limb[j][l] * q + carry;
                limb[j][l] = (uint32_t)x;
                carry = x >> 32;
            }
        }
    }
}

/* Tile rows x[k] = the lanes words at row + k stride, k < rows. */
static void load_tile(tile_t *x, const uint32_t *row, size_t stride,
                      size_t rows, size_t lanes)
{
    for (size_t k = 0; k < rows; k++)
        memcpy(x[k], row + k * stride, lanes * sizeof(uint32_t));
}

/* Wire words to centred residues, the entry of a tensor's operands: for
 * each of count operands, words[p] holds its coefficients in [0, Q) as
 * width 32-bit words each, top first, word k of coefficient j at k n + j,
 * and out[p] takes the (towers, n) residues of c - Q where c > floor(Q/2)
 * (whose words are half; compared word by word), else of c: the sum of
 * the words times radix[i][k] = 2^(32 (width - 1 - k)) mod q_i, plus
 * lift[i] = -Q mod q_i for a c above half. */
void centre(uint32_t *const *out, const uint32_t *const *words, size_t count,
            size_t width, size_t towers, size_t n, const uint32_t *half,
            const uint32_t *radix, const uint32_t *radix_shoup,
            const uint32_t *lift, const modulus_t *mods)
{
    for (size_t p = 0; p < count; p++)
        for (size_t j = 0, lanes; j < n; j += lanes) {
            const uint32_t *w = words[p] + j;
            lanes = n - j < LANES ? n - j : LANES;
            tile_t above, a;
#ifdef __AVX512F__
            if (lanes == LANES) {
                v16 gt = {0}, eq = ~gt, x, h;
                for (size_t k = 0; k < width; k++) {
                    LOAD(x, w + k * n);
                    h = SPLAT(half[k]);
                    gt |= eq & (v16)(x > h);
                    eq &= (v16)(x == h);
                }
                STORE(above, gt);
            } else
#endif
                for (size_t l = 0; l < lanes; l++) {
                    size_t k = 0;
                    while (k < width && w[k * n + l] == half[k])
                        k++;
                    above[l] = k < width && w[k * n + l] > half[k] ? ~0u : 0;
                }
            for (size_t i = 0; i < towers; i++) {
                for (size_t l = 0; l < lanes; l++)
                    a[l] = above[l] & lift[i];
                dot(out[p] + i * n + j, a, w, n, width, radix + i * width,
                    radix_shoup + i * width, mods[i].q, lanes);
            }
        }
}

/* round(f) of f = t (d_{head-1} + (... + d_0 / q_0) ...) / q_{head-1},
 * v / q in float64 for Garner digits d of v on q's towers, lane by lane
 * into r, as numpy rounds it: each operation of float64 rounded once
 * (ntt.c builds with -ffp-contract=off), floor(f + 0.5). A lane within
 * t 2^-40 of a half is near: its index at + l goes to near. Returns how
 * many lanes are near. */
static size_t round_tile(uint32_t *r, uint32_t *near, size_t at,
                         const tile_t *d, size_t head, uint32_t t,
                         const modulus_t *mods, size_t lanes)
{
    size_t found = 0;
    double tf = t, eps = tf * 0x1p-40;
#ifdef __AVX512F__
    if (lanes == LANES) {
        for (size_t h = 0; h < LANES; h += 8) {
            __m512d f = _mm512_setzero_pd(), half = _mm512_set1_pd(0.5);
            for (size_t k = 0; k < head; k++) {
                __m256i x = _mm256_loadu_si256((const __m256i *)(d[k] + h));
                f = _mm512_add_pd(_mm512_cvtepu32_pd(x), f);
                f = _mm512_div_pd(f, _mm512_set1_pd(mods[k].q));
            }
            f = _mm512_mul_pd(f, _mm512_set1_pd(tf));
            __m512d frac = _mm512_sub_pd(f, _mm512_roundscale_pd(
                f, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC));
            frac = _mm512_abs_pd(_mm512_sub_pd(frac, half));
            unsigned mask = _mm512_cmp_pd_mask(frac, _mm512_set1_pd(eps),
                                               _CMP_LT_OQ);
            f = _mm512_roundscale_pd(_mm512_add_pd(f, half),
                                     _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
            _mm256_storeu_si256((__m256i *)(r + h), _mm512_cvttpd_epu32(f));
            for (; mask; mask &= mask - 1)
                near[found++] = (uint32_t)(at + h + __builtin_ctz(mask));
        }
        return found;
    }
#endif
    for (size_t l = 0; l < lanes; l++) {
        double f = 0;
        for (size_t k = 0; k < head; k++)
            f = ((double)d[k][l] + f) / (double)mods[k].q;
        f *= tf;
        if (__builtin_fabs(f - __builtin_floor(f) - 0.5) < eps)
            near[found++] = (uint32_t)(at + l);
        r[l] = (uint32_t)__builtin_floor(f + 0.5);
    }
    return found;
}

/* Eq. 4's scale-and-round, the exact RNS rounding of Halevi, Polyakov and
 * Shoup: for (batch, head + ext, n) residues a of centred values c on q's
 * head towers and ext extension towers, out (batch, head, n) takes
 * round(t c / q) mod q_i, with c = q u + v:
 *  - v's Garner digits d_k on q's towers (table c[0], head x head);
 *  - u = (c - v) / q on the extension, a_p q^-1 + sum_k d_k (-place_k
 *    q^-1) (table c[1], ext rows of head + 1: those constants, q^-1);
 *  - u's Garner digits there (table c[2], ext x ext), its sign the top
 *    digit's, and u on q's towers: the digits times the extension's place
 *    values (table c[3], head rows of ext), plus -E mod q_i for a
 *    negative u (c[4], head words);
 *  - round(t v / q) from v's digits in float64 (round_tile), and
 *    t u + round(t v / q) (t mod q_i: tq).
 * c holds its five tables in that order, with Shoup quotients cs (c[4]'s
 * unused). t < 2^32. A column within t 2^-40 of a half is written but not
 * exact: its index b n + j goes to near, and the count is returned. */
size_t scale_round(uint32_t *out, uint32_t *near, const uint32_t *a,
                   size_t batch, size_t head, size_t ext, size_t n,
                   uint32_t t, const uint32_t *c, const uint32_t *cs,
                   const uint32_t *tq, const uint32_t *tq_shoup,
                   const modulus_t *mods)
{
    size_t towers = head + ext, found = 0;
    size_t to_u = head * head, ge = to_u + ext * (head + 1);
    size_t place = ge + ext * ext, minus_e = place + head * ext;
    const modulus_t *emods = mods + head;
    for (size_t b = 0; b < batch; b++)
        for (size_t j = 0, lanes; j < n; j += lanes) {
            tile_t x[towers], u[ext], z[2], neg, acc;
            lanes = n - j < LANES ? n - j : LANES;
            load_tile(x, a + b * towers * n + j, n, towers, lanes);
            garner_tile(x, head, c, cs, mods, lanes);
            for (size_t p = 0; p < ext; p++) {
                /* the terms d_0 ... d_{head-1}, a_p */
                memcpy(x[head], x[head + p], sizeof(tile_t));
                dot(u[p], NULL, x[0], LANES, head + 1,
                    c + to_u + p * (head + 1), cs + to_u + p * (head + 1),
                    emods[p].q, lanes);
            }
            garner_tile(u, ext, c + ge, cs + ge, emods, lanes);
            for (size_t l = 0; l < lanes; l++) /* u < 0: its top digit */
                neg[l] = u[ext - 1][l] > emods[ext - 1].q / 2 ? ~0u : 0;
            found += round_tile(z[1], near + found, b * n + j, x, head, t,
                                mods, lanes);
            for (size_t i = 0; i < head; i++) {
                uint32_t q = mods[i].q, k[2] = {tq[i], 1};
                uint32_t ks[2] = {tq_shoup[i], mods[i].one_s};
                for (size_t l = 0; l < lanes; l++)
                    acc[l] = neg[l] & c[minus_e + i];
                dot(z[0], acc, u[0], LANES, ext, c + place + i * ext,
                    cs + place + i * ext, q, lanes);
                dot(out + (b * head + i) * n + j, NULL, z[0], LANES, 2, k, ks,
                    q, lanes);
            }
        }
    return found;
}

/* count base-2^bits digits of canonical coefficients, each reduced mod
 * every tower into out (count, towers, n). The coefficients come from
 * (towers, n) residues a on those towers (Garner table g, towers x
 * towers), v in width limbs; or, a NULL, from words (width 32-bit words
 * each, top first, word k of coefficient j at k n + j). A digit's 32-bit
 * chunks, top first, sum against radix[i][k] = 2^(32 (chunks - 1 - k))
 * mod q_i. */
void digits(uint32_t *out, const uint32_t *a, const uint32_t *words,
            size_t width, size_t towers, size_t n, size_t bits, size_t count,
            const uint32_t *g, const uint32_t *gs, const uint32_t *radix,
            const uint32_t *radix_shoup, const modulus_t *mods)
{
    size_t chunks = (bits + 31) / 32, limbs = count * bits / 32 + 2;
    limbs = limbs > width ? limbs : width;
    for (size_t j = 0, lanes; j < n; j += lanes) {
        tile_t x[towers], limb[limbs], chunk[chunks];
        lanes = n - j < LANES ? n - j : LANES;
        if (a) {
            load_tile(x, a + j, n, towers, lanes);
            garner_tile(x, towers, g, gs, mods, lanes);
            limbs_tile(limb, width, x, towers, mods, lanes);
        } else
            for (size_t k = 0; k < width; k++)
                memcpy(limb[k], words + (width - 1 - k) * n + j,
                       lanes * sizeof(uint32_t));
        memset(limb[width], 0, (limbs - width) * sizeof(tile_t));
        for (size_t i = 0; i < count; i++) {
            for (size_t k = 0; k < chunks; k++) { /* low first */
                size_t start = i * bits + 32 * k, at = start / 32;
                size_t shift = start % 32, left = (i + 1) * bits - start;
                uint32_t mask = left < 32 ? (1u << left) - 1 : ~0u;
                for (size_t l = 0; l < lanes; l++) {
                    uint32_t v = limb[at][l] >> shift;
                    if (shift)
                        v |= limb[at + 1][l] << (32 - shift);
                    chunk[chunks - 1 - k][l] = v & mask;
                }
            }
            for (size_t r = 0; r < towers; r++)
                dot(out + (i * towers + r) * n + j, NULL, chunk[0], LANES,
                    chunks, radix + r * chunks, radix_shoup + r * chunks,
                    mods[r].q, lanes);
        }
    }
}

/* The canonical coefficients of (towers, n) residues a (Garner table g,
 * towers x towers) in two forms, each written when its pointer is not
 * NULL: bytes, width big-endian bytes each; words, ceil(width / 4)
 * 32-bit words each, top first, word k of coefficient j at k n + j. */
void pack(uint8_t *bytes, uint32_t *words, const uint32_t *a, size_t towers,
          size_t n, size_t width, const uint32_t *g, const uint32_t *gs,
          const modulus_t *mods)
{
    size_t count = (width + 3) / 4;
    for (size_t j = 0, lanes; j < n; j += lanes) {
        tile_t x[towers], limb[count];
        lanes = n - j < LANES ? n - j : LANES;
        load_tile(x, a + j, n, towers, lanes);
        garner_tile(x, towers, g, gs, mods, lanes);
        limbs_tile(limb, count, x, towers, mods, lanes);
        for (size_t k = 0; words && k < count; k++)
            memcpy(words + (count - 1 - k) * n + j, limb[k],
                   lanes * sizeof(uint32_t));
        for (size_t l = 0; bytes && l < lanes; l++) {
            uint8_t be[4 * count];
            for (size_t k = 0; k < count; k++) {
                uint32_t v = __builtin_bswap32(limb[k][l]);
                memcpy(be + 4 * (count - 1 - k), &v, sizeof v);
            }
            memcpy(bytes + (j + l) * width, be + 4 * count - width, width);
        }
    }
}

/* Bank words x mod q into o, n of them: a narrowing copy, which is all
 * when every word is already below q, else the reduction. */
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

/* Host row x of n 32-bit words mod q into o: a copy, which is all when
 * every word is already below q, else the reduction. */
static void enter(uint32_t *o, const uint32_t *x, size_t n,
                  const modulus_t *m)
{
    uint32_t top = 0;
    for (size_t j = 0; j < n; j++) {
        top = x[j] > top ? x[j] : top;
        o[j] = x[j];
    }
    if (top < m->q)
        return;
    for (size_t j = 0; j < n; j++) {
        uint32_t v = shoup(x[j], 1, m->one_s, m->q);
        o[j] = FOLD(v, m->q);
    }
}

/* The replay's opcodes: a twiddle row's check and the host's operand
 * loads and result checks, which use no temporary rows, then the MDMC's
 * vector-fidelity commands. */
enum replay_op {
    OP_CHECK, OP_LOAD, OP_EXPECT, OP_NTT, OP_INTT, OP_PMODMUL, OP_PMODSQR,
    OP_PMODADD, OP_PMODSUB, OP_CMODMUL
};

/* words 64-bit words of a bank and, for a CHECK, the words they must
 * hold, copy; otherwise the residues' place in the replay's scratch, at
 * words from its start. */
typedef struct {
    uint64_t *bank;
    const uint64_t *copy;
    size_t at, words;
} span_t;

/* One group of a replay program: rows commands of one opcode on n-word
 * rows, reading x[r] (and y[r]) and writing out[r], each row the offset
 * in words of its residues in the scratch. NTT and iNTT groups run on
 * the tables w, w_shoup, and an iNTT's row r ends with the multiply by
 * c[r] (Shoup quotient c_shoup[r]), which is all a CMODMUL row does. A
 * CHECK group's bank row span->bank must hold the words span->copy. A
 * LOAD group enters row r of the call's input rows, reduced mod q, into
 * out[r], and an EXPECT group compares x[r] with row r of the call's
 * expected rows. The last group of a hazard level has last set. */
typedef struct {
    uint32_t op, rows, last, pad;
    const size_t *x;
    const size_t *y;
    const size_t *out;
    const span_t *span;
    const uint32_t *w;
    const uint32_t *w_shoup;
    const uint32_t *c;
    const uint32_t *c_shoup;
} group_t;

/* Runs a program of count groups over n-word rows mod one modulus. The
 * rows live in scratch as residues: first the fills, bank words read
 * mod q; then the groups, level by level, each level computing into the
 * scratch's first rows (room for the largest level) and, once its
 * groups have run, copying them to their rows; last the stores, n words
 * each widened into its bank row. The input rows in and the expected
 * rows want are n 32-bit words each, in_stride and want_stride words
 * apart. Returns 1, having stored nothing, when a CHECK row differs, 2
 * when an EXPECT row differs, and 0 otherwise. */
int replay(const group_t *g, size_t count, const span_t *fills,
           size_t nfills, const span_t *stores, size_t nstores, size_t n,
           const modulus_t *mods, uint32_t *scratch, const uint32_t *in,
           size_t in_stride, const uint32_t *want, size_t want_stride)
{
    modulus_t m = *mods;
    uint32_t q = m.q;
    int code = 0;
    for (size_t i = 0; i < count; i++)
        if (g[i].op == OP_CHECK && memcmp(g[i].span->bank, g[i].span->copy,
                                          n * sizeof(uint64_t)))
            return 1;
    for (size_t i = 0; i < nfills; i++)
        load(scratch + fills[i].at, fills[i].bank, fills[i].words, &m);
    for (size_t i = 0, first = 0, at = 0; i < count; i++) {
        const group_t *p = g + i;
        for (size_t r = 0; p->op == OP_LOAD && r < p->rows; r++)
            enter(scratch + p->out[r], in + r * in_stride, n, &m);
        for (size_t r = 0; p->op == OP_EXPECT && r < p->rows; r++)
            if (memcmp(scratch + p->x[r], want + r * want_stride,
                       n * sizeof(uint32_t)))
                code = 2;
        for (size_t r = 0; p->op >= OP_NTT && r < p->rows; r++, at++) {
            uint32_t *x = scratch + at * n;
            const uint32_t *a = scratch + p->x[r];
            const uint32_t *b = p->y ? scratch + p->y[r] : a;
            switch (p->op) {
            case OP_NTT:
                memcpy(x, a, n * sizeof(uint32_t));
                transform_row(x, n, p->w, p->w_shoup, q, 1, m.one_s, 0);
                break;
            case OP_INTT:
                memcpy(x, a, n * sizeof(uint32_t));
                transform_row(x, n, p->w, p->w_shoup, q, p->c[r],
                              p->c_shoup[r], 1);
                break;
            case OP_PMODMUL:
            case OP_PMODSQR:
                multiply(x, a, b, 1, 1, n, &m);
                break;
            case OP_PMODADD:
                for (size_t j = 0; j < n; j++) {
                    uint32_t v = a[j] + b[j];
                    x[j] = FOLD(v, q);
                }
                break;
            case OP_PMODSUB:
                for (size_t j = 0; j < n; j++) {
                    uint32_t v = a[j] - b[j] + q;
                    x[j] = FOLD(v, q);
                }
                break;
            case OP_CMODMUL:
                for (size_t j = 0; j < n; j++)
                    x[j] = mulmod(a[j], p->c[r], p->c_shoup[r], q);
                break;
            }
        }
        if (!p->last)
            continue;
        for (const uint32_t *x = scratch; first <= i; first++)
            for (size_t r = 0; g[first].op >= OP_NTT && r < g[first].rows;
                 r++, x += n)
                memcpy(scratch + g[first].out[r], x, n * sizeof(uint32_t));
        at = 0;
    }
    for (size_t i = 0; i < nstores; i++) {
        uint64_t *o = stores[i].bank;
        const uint32_t *x = scratch + stores[i].at;
        for (size_t j = 0; j < n; j++)
            o[j] = x[j];
    }
    return code;
}
