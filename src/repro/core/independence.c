/*
 * Eq. 16 independence greedy over one bucket of equal-size value groups.
 *
 * The batched numpy kernel this replaces is kept as the byte-identity
 * oracle (tests/oracles/independence.py), so every floating-point step
 * here reproduces numpy's own evaluation order:
 *
 * - row totals use numpy's pairwise summation (pairwise_sum below);
 *   numpy adds them to a +0.0 start, which changes nothing here since
 *   every row holds its +0.0 diagonal, so no total is -0.0;
 * - argmax/argmin take the first index on ties and stop at the first
 *   NaN, as numpy's do;
 * - each factor is x * (-r) then + 1.0 as two roundings (built with
 *   -ffp-contract=off), multiplied left to right over predecessors.
 *
 * The kernel keeps no state: all scratch is passed in by the caller.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* numpy's float64 pairwise sum of a contiguous run (PW_BLOCKSIZE 128). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; k++) {
            r[k] = a[k];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int k = 0; k < 8; k++) {
                r[k] += a[i + k];
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* numpy's argmax (max = 1) or argmin (max = 0) of v[0..n). */
static int64_t first_extreme(const double *v, int64_t n, int max)
{
    double best = v[0];
    int64_t at = 0;
    if (isnan(best)) {
        return 0;
    }
    for (int64_t i = 1; i < n; i++) {
        double x = v[i];
        if (max ? !(x <= best) : !(x >= best)) {
            best = x;
            at = i;
            if (isnan(best)) {
                break;
            }
        }
    }
    return at;
}

/*
 * One bucket: n_groups groups of m providers each.
 *
 * claims[g * m + k]      claim position of member k of group g;
 * slots[(g * m + k) * m + l]
 *                        pair slot of P(member k -> member l) in the
 *                        layout of ClaimArrays.multi_group_slots: pair
 *                        s above the diagonal (p_ab[s]), n_pairs + s
 *                        at the mirrored entry (p_ba[s]), and 0.0 on
 *                        the diagonal;
 * work                   m * m + 3 * m doubles of scratch;
 * order                  2 * m int64 of scratch;
 * indep                  written at every member's claim position.
 */
static void independence_bucket(
    int64_t n_groups, int64_t m,
    const int64_t *claims, const intptr_t *slots,
    const double *p_ab, const double *p_ba,
    double r, int dependent_first, int total_mode,
    double *work, int64_t *order, double *indep)
{
    double *sub = work;
    double *row = sub + m * m;
    double *totals = row + m;
    double *attach = totals + m;
    int64_t *remaining = order + m;
    const double neg_r = -r;

    for (int64_t g = 0; g < n_groups; g++) {
        const intptr_t *gs = slots + g * m * m;
        const int64_t *gc = claims + g * m;

        for (int64_t k = 0; k < m; k++) {
            sub[k * m + k] = 0.0;
            for (int64_t l = k + 1; l < m; l++) {
                intptr_t s = gs[k * m + l];
                sub[k * m + l] = p_ab[s];
                sub[l * m + k] = p_ba[s];
            }
        }
        for (int64_t k = 0; k < m; k++) {
            for (int64_t l = 0; l < m; l++) {
                row[l] = sub[k * m + l] + sub[l * m + k];
            }
            totals[k] = pairwise_sum(row, m);
        }

        /* Alg. 1 line 19: each next pick is the remaining member with
         * the best directed attachment to any selected one.  The numpy
         * kernel masks selected members to -inf and takes the argmax
         * over all m; here the remaining members stay in ascending
         * order with their attachments, so the first maximum among
         * them is the same pick.  Only when every remaining attachment
         * is -inf does numpy's argmax return member 0 instead, selected
         * or not, and that is reproduced too. */
        int64_t next = first_extreme(totals, m, dependent_first);
        int64_t at = next;
        int64_t n_remaining = m;
        for (int64_t k = 0; k < m; k++) {
            remaining[k] = k;
            attach[k] = -INFINITY;
        }
        for (int64_t position = 0; position < m; position++) {
            order[position] = next;
            if (at >= 0) {
                n_remaining--;
                for (int64_t i = at; i < n_remaining; i++) {
                    remaining[i] = remaining[i + 1];
                    attach[i] = attach[i + 1];
                }
            }
            if (n_remaining == 0) {
                continue;
            }
            for (int64_t i = 0; i < n_remaining; i++) {
                double a = attach[i];
                double b = sub[remaining[i] * m + next];
                double x = a >= b ? a : b;
                attach[i] = a != a ? a : x;
            }
            at = first_extreme(attach, n_remaining, 1);
            next = remaining[at];
            if (attach[at] == -INFINITY && next != 0) {
                at = -1;
                next = 0;
            }
        }

        for (int64_t k = 0; k < m; k++) {
            int64_t worker = order[k];
            double product = 1.0;
            for (int64_t l = 0; l < k; l++) {
                int64_t before = order[l];
                double dep = sub[worker * m + before];
                if (total_mode) {
                    dep = dep + sub[before * m + worker];
                }
                double factor = dep * neg_r;
                factor = factor + 1.0;
                product = product * factor;
            }
            indep[gc[worker]] = product;
        }
    }
}

/*
 * Buckets 0..n_buckets of one pass, in one call: bucket b is
 * n_groups[b] groups of ms[b] providers, its claims and slots laid out
 * as above from claims[b] and slots[b].  work and order are sized for
 * the largest ms[b].  A part of a pass passes each bucket's own run of
 * groups; the groups never share a claim, so parts may run at once.
 */
void independence_buckets(
    int64_t n_buckets, const int64_t *ms, const int64_t *n_groups,
    const int64_t *const *claims, const intptr_t *const *slots,
    const double *p_ab, const double *p_ba,
    double r, int dependent_first, int total_mode,
    double *work, int64_t *order, double *indep)
{
    for (int64_t b = 0; b < n_buckets; b++) {
        independence_bucket(
            n_groups[b], ms[b], claims[b], slots[b], p_ab, p_ba,
            r, dependent_first, total_mode, work, order, indep);
    }
}
