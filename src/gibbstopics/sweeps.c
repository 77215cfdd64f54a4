/* The collapsed Gibbs sweeps of both samplers, the matrix writer's
 * formatter and the tokenizer, built and loaded by gibbstopics.native:
 * lda_sweep (called from lda.lda_sweep), dmm_sweep (called from
 * dmm.dmm_sweep and dmm.estimate_theta_dmm), format_matrix (called from
 * persistence.write_matrix) and tokenize (called from persistence.read_tokens,
 * which reads corpora and .topicAssignments files).
 *
 * Each sampler step does the arithmetic of the NumPy oracles in tests/oracles.py
 * (the conditional, then the draw) in the same order, so z, nkw, nk, mk and the
 * draws match them bit for bit; both samplers end in one draw, which totals the
 * weights by their last cumulative sum, not in NumPy's summation order. Build
 * without FMA contraction or fast-math: both change rounding. */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* Turn the K weights w into their cumulative sums, in place and left to
 * right, and map the uniform u to the first k with w[k] > u * w[K-1], the
 * total; K-1 when rounding leaves none. */
static int64_t draw(double *w, int64_t K, double u)
{
    for (int64_t j = 1; j < K; j++)
        w[j] += w[j - 1];
    double x = u * w[K - 1];
    int64_t k = 0;
    while (k < K - 1 && !(w[k] > x))
        k++;
    return k;
}

/* The one count move of both kernels: a unit's tokens words[b] to words[e-1]
 * and its own count unit[k] (a DMM document and mk, or LDA's token [t, t+1)
 * and its document's topic counts) go into (sign 1) or out of (sign -1) topic k. */
static inline void move_unit(int64_t k, int64_t sign, int64_t b, int64_t e, const int64_t *words,
                             int64_t *unit, int64_t *nkw, int64_t *nk, int64_t V)
{
    unit[k] += sign;
    for (int64_t i = b; i < e; i++)
        nkw[k * V + words[i]] += sign;
    nk[k] += sign * (e - b);
}

/* Visit the tokens in (document, position) order over the flat words/z,
 * document d holding tokens offsets[d] to offsets[d+1]-1, resampling each
 * with uniforms u[t]. ndk (K int64s) is document d's topic counts, counted
 * from its z; w is K doubles of scratch. Returns -1, or the first token t
 * with a weight not finite and positive, its counts back under z[t]. */
int64_t lda_sweep(int64_t n_docs, const int64_t *offsets, const int64_t *words,
                  int64_t *z, int64_t *ndk, int64_t *nkw, int64_t *nk,
                  int64_t K, int64_t V, double alpha, double beta,
                  const double *u, double *w)
{
    const double vbeta = (double)V * beta;
    for (int64_t d = 0; d < n_docs; d++) {
        memset(ndk, 0, K * sizeof *ndk);
        for (int64_t t = offsets[d]; t < offsets[d + 1]; t++)
            ndk[z[t]]++;
        for (int64_t t = offsets[d], end = offsets[d + 1]; t < end; t++) {
            int64_t word = words[t], k = z[t];
            move_unit(k, -1, t, t + 1, words, ndk, nkw, nk, V);
            for (int64_t j = 0; j < K; j++) {
                w[j] = ((double)ndk[j] + alpha) * ((double)nkw[j * V + word] + beta)
                       / ((double)nk[j] + vbeta);
                if (!(w[j] > 0 && w[j] < INFINITY)) {
                    move_unit(k, 1, t, t + 1, words, ndk, nkw, nk, V);
                    return t;
                }
            }
            z[t] = k = draw(w, K, u[t]);
            move_unit(k, 1, t, t + 1, words, ndk, nkw, nk, V);
        }
    }
    return -1;
}

/* For each document d in turn, its tokens words[offsets[d]] to
 * words[offsets[d+1]-1] sorted by word id, with its counts removed from
 * topic z[d]: the log-weight of every topic, summed left to right in the
 * formula's order (prior, word terms, then length terms) from the tables
 * lnum[m] = log(m + beta), lden[m] = log(m + V*beta) and
 * lpri[m] = log(m + alpha) - log(D - 1 + K*alpha), m < D; a word's t-th token
 * in the document (t from 0) adds lnum[n_kw + t]. Then the weights
 * exp(logw - max). With uniforms u, z[d] is drawn with u[d] as the oracle's
 * draw does; without (u NULL), row d of the D x K theta is the normalized
 * weights. The counts go back under z[d]. w is K doubles of scratch.
 *
 * Returns -1; n_docs + d, before any count moves, if document d is the first
 * whose words do not ascend; or the first document with a count outside a
 * table (never read) or a log-weight not finite, its counts back under z[d]. */
int64_t dmm_sweep(int64_t n_docs, const int64_t *offsets, const int64_t *words,
                  int64_t *z, int64_t *mk, int64_t *nkw, int64_t *nk,
                  int64_t K, int64_t V, const double *lnum, int64_t n_num,
                  const double *lden, int64_t n_den, const double *lpri,
                  const double *u, double *w, double *theta)
{
    for (int64_t d = 0; d < n_docs; d++)
        for (int64_t i = offsets[d] + 1; i < offsets[d + 1]; i++)
            if (words[i] < words[i - 1])
                return n_docs + d;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t b = offsets[d], e = offsets[d + 1], k = z[d];
        move_unit(k, -1, b, e, words, mk, nkw, nk, V);
        double top = -INFINITY;
        for (int64_t j = 0; j < K; j++) {
            int64_t m = mk[j], c = nk[j];
            if (m < 0 || m >= n_docs || c < 0 || c + (e - b) > n_den)
                goto corrupt;
            double s = lpri[m];
            for (int64_t i = b, t = 0; i < e; i++) {
                t = i > b && words[i] == words[i - 1] ? t + 1 : 0;
                int64_t a = nkw[j * V + words[i]];
                if (a < 0 || a + t >= n_num)
                    goto corrupt;
                s += lnum[a + t];
            }
            for (int64_t t = 0; t < e - b; t++)
                s -= lden[c + t];
            if (!(s > -INFINITY && s < INFINITY))
                goto corrupt;
            w[j] = s;
            if (s > top)
                top = s;
        }
        for (int64_t j = 0; j < K; j++)
            w[j] = exp(w[j] - top);
        if (u) {
            z[d] = k = draw(w, K, u[d]);
        } else {
            double total = 0.;
            for (int64_t j = 0; j < K; j++)
                total += w[j];
            for (int64_t j = 0; j < K; j++)
                theta[d * K + j] = w[j] / total;
        }
        move_unit(k, 1, b, e, words, mk, nkw, nk, V);
        continue;
    corrupt:
        move_unit(k, 1, b, e, words, mk, nkw, nk, V);
        return d;
    }
    return -1;
}


/* Every power of ten up to 1e22 is exactly a double. */
static const double P10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
                             1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* x * 10^k into *s with one rounding, or 0 when 10^|k| is not exact. */
static int scale(double x, int k, double *s)
{
    if (k < -22 || k > 22)
        return 0;
    *s = k >= 0 ? x * P10[k] : x / P10[-k];
    return 1;
}

/* Write x to out as printf("%.6g") does, without the terminating NUL, and
 * return its length (at most 13).
 *
 * For positive x in decade e (10^e <= x < 10^(e+1)) the six significant
 * digits are the scaled value s = x * 10^(5-e), in [1e5, 1e6), rounded to
 * an integer. One multiplication or division by an exact power of ten puts
 * s within 2^-33 of the exact product, so the rounding is exact unless s
 * lies within 1e-6 of a tie. Those values go to snprintf, as do zero,
 * values that need a power of ten past 1e22 (below about 1e-17 or above
 * about 1e28), and non-finite or negative ones. */
static int format_g6(double x, char *out)
{
    int b, e, n = 0;
    double s;
    if (!(x > 0 && x < INFINITY))
        goto fallback;
    frexp(x, &b);  /* 2^(b-1) <= x < 2^b, so e is e0 or e0 + 1 */
    e = (int)floor((b - 1) * 0.30102999566398120);
    if (!scale(x, 5 - e, &s))
        goto fallback;
    if (s >= 1e6) {
        e++;
        if (!scale(x, 5 - e, &s))
            goto fallback;
    }
    /* At a decade's edge s may come out a rounding error below 1e5, or at
     * exactly 1e6; both give 100000 in the upper decade (after the carry
     * below), as the exact value does. */
    double whole = floor(s), frac = s - whole;
    if (fabs(frac - 0.5) < 1e-6)
        goto fallback;
    int32_t m = (int32_t)whole + (frac > 0.5);
    if (m == 1000000) {  /* 999999.5 and up carry into the next decade */
        m = 100000;
        e++;
    }
    char d[6];
    int nd = 6;
    for (int i = 5; i >= 0; i--, m /= 10)
        d[i] = (char)('0' + m % 10);
    while (d[nd - 1] == '0')
        nd--;
    /* %g's style switch: d.ddddde+XX below decade -4 or from decade 6,
     * else e + 1 digits before the point ("0." and -e - 1 zeros if e < 0) */
    int sci = e < -4 || e >= 6, ip = sci ? 1 : e + 1;
    if (ip > 0) {
        memcpy(out, d, ip);
        n = ip;
    } else {
        out[n++] = '0';
    }
    if (nd > ip) {
        out[n++] = '.';
        for (int i = ip; i < 0; i++)
            out[n++] = '0';
        int from = ip > 0 ? ip : 0;
        memcpy(out + n, d + from, nd - from);
        n += nd - from;
    }
    if (sci) {  /* |e| <= 28 here: two exponent digits */
        out[n++] = 'e';
        out[n++] = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        out[n++] = (char)('0' + e / 10);
        out[n++] = (char)('0' + e % 10);
    }
    return n;
fallback:;
    char tmp[32];
    n = snprintf(tmp, sizeof tmp, "%.6g", x);
    memcpy(out, tmp, n);
    return n;
}

/* Write the rows x cols row-major matrix x to out as
 * np.savetxt(fmt="%.6g") does: values separated by one space, each row
 * ending in a newline. out holds at least rows * (14 * cols + 1) bytes.
 * Returns the number of bytes written. */
int64_t format_matrix(int64_t rows, int64_t cols, const double *x, char *out)
{
    char *p = out;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < cols; c++) {
            p += format_g6(x[r * cols + c], p);
            *p++ = c + 1 < cols ? ' ' : '\n';
        }
        if (cols == 0)
            *p++ = '\n';
    }
    return p - out;
}


/* The bytes that start a separator: ASCII whitespace (1), a line end (2),
 * or the lead byte of a multi-byte whitespace code point (3). */
static const uint8_t SPACE[256] = {
    ['\t'] = 1, ['\v'] = 1, ['\f'] = 1, [0x1c] = 1, [0x1d] = 1, [0x1e] = 1, [0x1f] = 1,
    [' '] = 1, ['\n'] = 2, ['\r'] = 2, [0xc2] = 3, [0xe1] = 3, [0xe2] = 3, [0xe3] = 3,
};

/* The length of the whitespace code point str.split() splits on at text[i]
 * (lead byte class 3), or 0 when the code point there is not one. Reads no
 * byte at or past n. */
static int64_t multibyte_space(const uint8_t *text, int64_t i, int64_t n)
{
    uint8_t a = text[i], b = i + 1 < n ? text[i + 1] : 0, c = i + 2 < n ? text[i + 2] : 0;
    if (a == 0xc2)  /* U+0085, U+00A0 */
        return b == 0x85 || b == 0xa0 ? 2 : 0;
    if (a == 0xe1)  /* U+1680 */
        return b == 0x9a && c == 0x80 ? 3 : 0;
    if (a == 0xe3)  /* U+3000 */
        return b == 0x80 && c == 0x80 ? 3 : 0;
    if (b == 0x80)  /* U+2000-U+200A, U+2028, U+2029, U+202F */
        return (c >= 0x80 && c <= 0x8a) || c == 0xa8 || c == 0xa9 || c == 0xaf ? 3 : 0;
    return b == 0x81 && c == 0x9f ? 3 : 0;  /* U+205F */
}

/* A hash slot: a word's FNV-1a hash and its id + 1 (0: the slot is empty). */
typedef struct {
    uint64_t hash;
    int64_t id1;
} slot_t;

/* Double the table's slots, rehashing every word. Returns 0 when out of
 * memory, leaving the table as it was. */
static int grow_table(slot_t **table, int64_t *cap)
{
    int64_t mask = 2 * *cap - 1;
    slot_t *grown = calloc(2 * *cap, sizeof *grown);
    if (!grown)
        return 0;
    for (int64_t s = 0; s < *cap; s++) {
        if (!(*table)[s].id1)
            continue;
        int64_t t = (int64_t)((*table)[s].hash & (uint64_t)mask);
        while (grown[t].id1)
            t = (t + 1) & mask;
        grown[t] = (*table)[s];
    }
    free(*table);
    *table = grown;
    *cap = mask + 1;
    return 1;
}

/* Split the n bytes of a valid UTF-8 text into lines, ended by LF, CR LF or
 * CR, and each line into tokens, separated by the 29 code points
 * str.split() treats as whitespace. Each token's word id, given in order of
 * first occurrence through an open-addressing hash table that doubles at
 * half load, goes to words; offsets[0] = 0 and offsets[l + 1] is the token
 * count after line l. Each distinct word, followed by '\n', goes to vocab.
 * Capacities: words (n + 1) / 2 ids (rounded down), offsets n + 1, vocab
 * n + 1 bytes. sizes gets the token, line and vocab byte counts. Returns
 * the number of distinct words, or -1 when out of memory. */
int64_t tokenize(int64_t n, const uint8_t *text, int64_t *words, int64_t *offsets,
                 uint8_t *vocab, int64_t *sizes)
{
    int64_t cap = 256, n_words = 0, n_tokens = 0, n_lines = 0, n_vocab = 0, n_starts = 256;
    slot_t *table = calloc(cap, sizeof *table);
    /* where each word starts in vocab, then where the next one would */
    int64_t *vstart = malloc(n_starts * sizeof *vstart);
    if (!table || !vstart)
        goto out_of_memory;
    offsets[0] = 0;
    vstart[0] = 0;
    int64_t i = 0;
    while (i < n) {
        /* the token at i, up to the next separator */
        int64_t start = i, sep = 0;
        uint64_t h = 14695981039346656037ULL;
        for (; i < n; i++) {
            uint8_t cls = SPACE[text[i]];
            if (cls && (sep = cls < 3 ? 1 : multibyte_space(text, i, n)))
                break;
            h = (h ^ text[i]) * 1099511628211ULL;
        }
        if (i > start) {
            int64_t len = i - start, j = (int64_t)(h & (uint64_t)(cap - 1)), id;
            for (;; j = (j + 1) & (cap - 1)) {
                id = table[j].id1 - 1;
                if (id < 0 || (table[j].hash == h && vstart[id + 1] - vstart[id] - 1 == len
                               && !memcmp(vocab + vstart[id], text + start, len)))
                    break;
            }
            if (id < 0) {  /* a new word */
                if (2 * (n_words + 1) > cap) {
                    if (!grow_table(&table, &cap))
                        goto out_of_memory;
                    for (j = (int64_t)(h & (uint64_t)(cap - 1)); table[j].id1; j = (j + 1) & (cap - 1))
                        ;
                }
                if (n_words + 1 == n_starts) {
                    int64_t *more = realloc(vstart, 2 * n_starts * sizeof *vstart);
                    if (!more)
                        goto out_of_memory;
                    vstart = more;
                    n_starts *= 2;
                }
                id = n_words++;
                table[j] = (slot_t){h, n_words};
                memcpy(vocab + n_vocab, text + start, len);
                n_vocab += len;
                vocab[n_vocab++] = '\n';
                vstart[n_words] = n_vocab;
            }
            words[n_tokens++] = id;
        }
        if (i < n && text[i] == '\r' && i + 1 < n && text[i + 1] == '\n')
            sep = 2;
        if (i < n && SPACE[text[i]] == 2)
            offsets[++n_lines] = n_tokens;
        i += sep;
    }
    if (n > 0 && SPACE[text[n - 1]] != 2)  /* an unterminated last line */
        offsets[++n_lines] = n_tokens;
    free(table);
    free(vstart);
    sizes[0] = n_tokens;
    sizes[1] = n_lines;
    sizes[2] = n_vocab;
    return n_words;
out_of_memory:
    free(table);
    free(vstart);
    return -1;
}
