/* One collapsed Gibbs sweep for LDA, called from gibbstopics.lda.lda_sweep.
 *
 * Each step does the arithmetic of lda_conditional + core.draw in the same
 * order, so z, the count tables and the draws match the NumPy form bit for
 * bit. Build without FMA contraction or fast-math: both change rounding. */

#include <math.h>
#include <stdint.h>

/* The sum np.add.reduce computes for a contiguous float64 vector: pairwise,
 * with eight accumulators per block of at most 128 values. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Visit the tokens in (document, position) order over the flat words/z,
 * document d holding tokens offsets[d] to offsets[d+1]-1, resampling each
 * with uniforms u[t]; w is K doubles of scratch. Returns -1, or the index of
 * the first token whose conditional has a weight that is not finite and
 * positive (its counts are then left decremented). */
int64_t lda_sweep(int64_t n_docs, const int64_t *offsets, const int64_t *words,
                  int64_t *z, int64_t *ndk, int64_t *nkw, int64_t *nk,
                  int64_t K, int64_t V, double alpha, double beta,
                  const double *u, double *w)
{
    const double vbeta = (double)V * beta;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t *ndk_d = ndk + d * K;
        for (int64_t t = offsets[d], end = offsets[d + 1]; t < end; t++) {
            int64_t word = words[t], k = z[t];
            ndk_d[k]--;
            nkw[k * V + word]--;
            nk[k]--;
            for (int64_t j = 0; j < K; j++) {
                w[j] = ((double)ndk_d[j] + alpha) * ((double)nkw[j * V + word] + beta)
                       / ((double)nk[j] + vbeta);
                if (!(w[j] > 0 && w[j] < INFINITY))
                    return t;
            }
            double x = u[t] * pairwise_sum(w, K);
            for (int64_t j = 1; j < K; j++)
                w[j] += w[j - 1];
            for (k = 0; k < K - 1 && !(w[k] > x); k++)
                ;
            z[t] = k;
            ndk_d[k]++;
            nkw[k * V + word]++;
            nk[k]++;
        }
    }
    return -1;
}
