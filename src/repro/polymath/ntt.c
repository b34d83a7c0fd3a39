/* The exact negacyclic NTT kernel of kernels.py: Longa-Naehrig merged-psi
 * Cooley-Tukey forward and Gentleman-Sande inverse on uint32 words with
 * 32-bit Shoup products. Every butterfly leaves its words in [0, q). */
#include <stddef.h>
#include <stdint.h>

#define FOLD(x, q) ((x) < (x) - (q) ? (x) : (x) - (q)) /* x mod q, x < 2q */

/* x w mod q for any 32-bit x, w < q < 2^30 and s = floor(w 2^32 / q). */
static inline uint32_t mulmod(uint32_t x, uint32_t w, uint32_t s, uint32_t q)
{
    uint32_t r = x * w - (uint32_t)(((uint64_t)x * s) >> 32) * q;
    return FOLD(r, q);
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
