/* The collapsed Gibbs sweeps of both samplers, the artifact writers'
 * formatters and the tokenizer, built and loaded by gibbstopics.native:
 * lda_sweep (called from lda.lda_sweep), dmm_sweep (called from
 * dmm.dmm_sweep and dmm.estimate_theta_dmm), format_matrix, format_ids and
 * top_ids (called from persistence.write_matrix, write_assignments and
 * write_top_words) and tokenize (called from persistence.read_tokens, which
 * reads corpora and .topicAssignments files).
 *
 * Each sampler step does the arithmetic of the NumPy oracles in tests/oracles.py
 * (the conditional, then the draw) in the same order, so z, nkw, nk, mk and the
 * draws match them bit for bit; both samplers end in one search of the weights'
 * cumulative sums, which totals them by the last sum, not in NumPy's summation
 * order. nkw is stored word-major, V x K (state.nkw is its K x V transpose), so
 * a word's K topic counts are adjacent. Build without FMA contraction or
 * fast-math: both change rounding. */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* The first k with w[k] > u * w[K-1], or K-1 when rounding leaves none. The K
 * cumulative sums w never decrease, so eight at a time are passed over when
 * the eighth does not exceed: the topic is the one a sum-by-sum scan finds.
 * (A binary search puts a chain of loads before each token's next one.) */
static int64_t search(const double *w, int64_t K, double u)
{
    double x = u * w[K - 1];
    int64_t k = 0;
    while (k + 8 < K && !(w[k + 7] > x))
        k += 8;
    while (k < K - 1 && !(w[k] > x))
        k++;
    return k;
}

/* The one count move of both kernels: a unit's tokens words[b] to words[e-1]
 * and its own count unit[k] (a DMM document and mk, or LDA's token [t, t+1)
 * and its document's topic counts) go into (sign 1) or out of (sign -1) topic
 * k, each token's count at nkw[word * K + k]. */
static inline void move_unit(int64_t k, int64_t sign, int64_t b, int64_t e, const int64_t *words,
                             int64_t *unit, int64_t *nkw, int64_t *nk, int64_t K)
{
    unit[k] += sign;
    for (int64_t i = b; i < e; i++)
        nkw[words[i] * K + k] += sign;
    nk[k] += sign * (e - b);
}

/* Visit the tokens in (document, position) order over the flat words/z,
 * document d holding tokens offsets[d] to offsets[d+1]-1, resampling each
 * with uniforms u[t]. ndk (K int64s) is document d's topic counts, counted
 * from its z; w is K doubles of scratch for each token's cumulative weights,
 * summed left to right as they are computed. Returns -1, or the first token t
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
            const int64_t *counts = nkw + words[t] * K;
            int64_t k = z[t];
            move_unit(k, -1, t, t + 1, words, ndk, nkw, nk, K);
            double c = 0.;
            for (int64_t j = 0; j < K; j++) {
                double x = ((double)ndk[j] + alpha) * ((double)counts[j] + beta)
                           / ((double)nk[j] + vbeta);
                if (!(x > 0 && x < INFINITY)) {
                    move_unit(k, 1, t, t + 1, words, ndk, nkw, nk, K);
                    return t;
                }
                w[j] = c += x;
            }
            z[t] = k = search(w, K, u[t]);
            move_unit(k, 1, t, t + 1, words, ndk, nkw, nk, K);
        }
    }
    return -1;
}

/* For each document d in turn, its tokens words[offsets[d]] to
 * words[offsets[d+1]-1] sorted by word id, with its counts removed from
 * topic z[d]: the log-weight of every topic, summed left to right in the
 * formula's order (prior, word terms, then length terms; each token adds its
 * term to all K topics, reading its word's K adjacent counts) from the tables
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
                  int64_t K, const double *lnum, int64_t n_num,
                  const double *lden, int64_t n_den, const double *lpri,
                  const double *u, double *w, double *theta)
{
    for (int64_t d = 0; d < n_docs; d++)
        for (int64_t i = offsets[d] + 1; i < offsets[d + 1]; i++)
            if (words[i] < words[i - 1])
                return n_docs + d;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t b = offsets[d], e = offsets[d + 1], k = z[d];
        move_unit(k, -1, b, e, words, mk, nkw, nk, K);
        double top = -INFINITY;
        for (int64_t j = 0; j < K; j++) {
            int64_t m = mk[j], c = nk[j];
            if (m < 0 || m >= n_docs || c < 0 || c + (e - b) > n_den)
                goto corrupt;
            w[j] = lpri[m];
        }
        for (int64_t i = b, t = 0; i < e; i++) {
            t = i > b && words[i] == words[i - 1] ? t + 1 : 0;
            const int64_t *counts = nkw + words[i] * K;
            for (int64_t j = 0; j < K; j++) {
                if (counts[j] < 0 || counts[j] + t >= n_num)
                    goto corrupt;
                w[j] += lnum[counts[j] + t];
            }
        }
        for (int64_t j = 0; j < K; j++) {
            double s = w[j];
            for (int64_t t = 0; t < e - b; t++)
                s -= lden[nk[j] + t];
            if (!(s > -INFINITY && s < INFINITY))
                goto corrupt;
            w[j] = s;
            if (s > top)
                top = s;
        }
        double total = 0.;
        for (int64_t j = 0; j < K; j++) {  /* the weights' cumulative sums, as LDA's */
            double x = exp(w[j] - top);
            if (!u)
                theta[d * K + j] = x;
            w[j] = total += x;
        }
        if (u)
            z[d] = k = search(w, K, u[d]);
        else
            for (int64_t j = 0; j < K; j++)
                theta[d * K + j] /= total;
        move_unit(k, 1, b, e, words, mk, nkw, nk, K);
        continue;
    corrupt:
        move_unit(k, 1, b, e, words, mk, nkw, nk, K);
        return d;
    }
    return -1;
}


/* Every power of ten up to 1e22 is exactly a double. */
static const double P10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
                             1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* x * 10^k, multiplied or divided by the exact 1e22 until the rest of the
 * power is in P10: for |k| <= 329, at most 15 steps, each rounding once. */
static double scale(double x, int k)
{
    for (; k > 22; k -= 22)
        x *= 1e22;
    for (; k < -22; k += 22)
        x /= 1e22;
    return k >= 0 ? x * P10[k] : x / P10[-k];
}

/* Write x to the 16 bytes at out as printf("%.6g") does and return its
 * length (at most 13); only the snprintf fallback writes a NUL after it.
 *
 * For positive x in decade e (10^e <= x < 10^(e+1)) the six significant
 * digits are the scaled value s = x * 10^(5-e), in [1e5, 1e6), rounded to
 * an integer. Every finite positive double has -324 <= e <= 308, so scale
 * takes at most 15 steps, and each rounding is within a relative 2^-53:
 * s stays within about 2e-9 of the exact product, and the rounding is exact
 * unless s lies within 1e-6 of a tie. Those values go to snprintf, as do
 * zero and non-finite or negative values. */
static int format_g6(double x, char *out)
{
    int b, e, n = 0;
    if (!(x > 0 && x < INFINITY))
        goto fallback;
    frexp(x, &b);  /* 2^(b-1) <= x < 2^b, so e is e0 or e0 + 1 */
    e = (int)floor((b - 1) * 0.30102999566398120);
    double s = scale(x, 5 - e);
    if (s >= 1e6) {
        e++;
        s = scale(x, 5 - e);
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
    if (sci) {  /* at least two exponent digits, three from 100 */
        out[n++] = 'e';
        out[n++] = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100)
            out[n++] = (char)('0' + e / 100);
        out[n++] = (char)('0' + e / 10 % 10);
        out[n++] = (char)('0' + e % 10);
    }
    return n;
fallback:
    return snprintf(out, 16, "%.6g", x);
}

/* A formatted value: the 64 bits of a double, and its "%.6g" text. */
typedef struct { uint64_t key; char text[16]; uint8_t len; } formatted_t;

/* Write the rows x cols row-major matrix x to out as
 * np.savetxt(fmt="%.6g") does: values separated by one space, each row
 * ending in a newline. out holds at least rows * (14 * cols + 1) + 16 bytes:
 * each value is copied as all 16 bytes of its slot's text, one fixed-size
 * move (a memcpy of the value's own length compiles to rep movsq at -O2,
 * about 50 ns a call), and the next value or separator overwrites the tail.
 * The 256 slots are a direct-mapped table of formatted values keyed by their
 * 64 bits, 8 KiB on the stack, so a value that repeats (as a row of phi
 * repeats one value per distinct count) is formatted once. Returns the number
 * of bytes written. */
int64_t format_matrix(int64_t rows, int64_t cols, const double *x, char *out)
{
    formatted_t slots[256];
    for (int s = 0; s < 256; s++)  /* every slot starts as a true entry: 0.0 is "0" */
        slots[s] = (formatted_t){.key = 0, .text = "0", .len = 1};
    char *p = out;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < cols; c++) {
            uint64_t key;
            memcpy(&key, &x[r * cols + c], sizeof key);
            formatted_t *slot = &slots[(key * 0x9E3779B97F4A7C15ULL) >> 56];
            if (slot->key != key) {
                slot->key = key;
                slot->len = (uint8_t)format_g6(x[r * cols + c], slot->text);
            }
            memcpy(p, slot->text, 16);
            p += slot->len;
            *p++ = c + 1 < cols ? ' ' : '\n';
        }
        if (cols == 0)
            *p++ = '\n';
    }
    return p - out;
}

/* Write line l of ids, ids[offsets[l]] to ids[offsets[l+1]-1], to out for
 * each of the n_lines lines as " ".join(map(str, line)) does, each line ending
 * in a newline. out holds at least 21 * offsets[n_lines] + n_lines bytes.
 * Returns the number of bytes written. */
int64_t format_ids(int64_t n_lines, const int64_t *offsets, const int64_t *ids, char *out)
{
    char *p = out;
    for (int64_t l = 0; l < n_lines; l++) {
        for (int64_t i = offsets[l]; i < offsets[l + 1]; i++) {
            if (i > offsets[l])
                *p++ = ' ';
            /* the magnitude as unsigned: -INT64_MIN is not an int64 */
            uint64_t m = ids[i] < 0 ? 0 - (uint64_t)ids[i] : (uint64_t)ids[i];
            char digits[20], *q = digits + 20;
            do
                *--q = (char)('0' + m % 10);
            while (m /= 10);
            if (ids[i] < 0)
                *p++ = '-';
            while (q < digits + 20)
                *p++ = *q++;
        }
        *p++ = '\n';
    }
    return p - out;
}

/* For each row of the rows x cols row-major matrix x, which holds no NaN,
 * write to row r of the rows x t ids the columns of its t <= cols largest
 * values, largest first and a tie's lower column first: the first t of the
 * row's stable descending argsort. One pass per row: a value enters only if
 * it is greater than the t-th so far, shifting the smaller ones down.
 * Returns rows * t. */
int64_t top_ids(int64_t rows, int64_t cols, const double *x, int64_t t, int64_t *ids)
{
    for (int64_t r = 0; r < rows && t > 0; r++) {
        const double *row = x + r * cols;
        int64_t *top = ids + r * t, n = 0;
        for (int64_t c = 0; c < cols; c++) {
            double v = row[c];
            if (n == t && !(v > row[top[t - 1]]))
                continue;
            int64_t i = n < t ? n++ : t - 1;
            for (; i > 0 && v > row[top[i - 1]]; i--)
                top[i] = top[i - 1];
            top[i] = c;
        }
    }
    return rows * t;
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
