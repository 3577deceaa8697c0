/*
 * Step 1 of Alg. 1: the per-row terms of Eqs. 7-13 and their per-pair
 * sums (the likelihoods Eq. 15 normalizes).
 *
 * One row per (co-answering pair, shared task).  score_pair_rows writes
 * each row's three hypothesis likelihoods *before* the log: the caller
 * takes numpy's log of the three contiguous outputs in place, so no
 * transcendental function runs here.  pair_sums then adds each pair's
 * contiguous row segment of those logs.
 *
 * The classwise numpy scorer this replaces is kept as the byte-identity
 * oracle (tests/oracles/dependence.py), so every step reproduces the
 * float operations numpy performs, in its order (built with
 * -ffp-contract=off, no fast-math):
 *
 * - clip_acc is numpy's float clip: NaN bounds give NaN, a NaN input
 *   passes through, and equal values keep the input (so -0.0 survives
 *   a 0.0 lower bound);
 * - floor_prob is np.maximum(x, 1e-12): NaN propagates;
 * - pair sums start at +0.0 and add rows in row order, as np.bincount
 *   does; no reduction is reassociated.
 */
#include <stdint.h>

#define MIN_PROB 1e-12

static double clip_acc(double x, double lo, double hi)
{
    if (lo != lo || hi != hi) {
        return lo != lo ? lo : hi;
    }
    if (x != x) {
        return x;
    }
    double t = x < lo ? lo : x;
    return t > hi ? hi : t;
}

static double floor_prob(double x)
{
    return x < MIN_PROB ? MIN_PROB : x;
}

/*
 * Pre-log likelihood terms of n rows.
 *
 * rows                   pair-table row of each output, or NULL for
 *                        rows 0..n-1;
 * ps_claim_a/b           ClaimArrays' int32 row tables: each row's two
 *                        claim positions;
 * claim_task             per-claim task, so a row's task is
 *                        claim_task[ps_claim_a[row]];
 * claim_code, claim_acc  per-claim value code and current accuracy;
 * truth_codes, collision per-task truth code (-1: none) and false-value
 *                        collision probability;
 * out_ind/ab/ba          written at 0..n-1.
 *
 * Differing rows (T_d, Eqs. 9, 13) score P_d = 1 - P_s - P_f and share
 * P_d (1 - r) between the copy directions.  Same-value rows score P_s =
 * A A' on the truth (T_s, Eqs. 7, 11) and P_f = (1-A)(1-A') col off it
 * (T_f, Eqs. 8, 12, 22); both directions are src r + P (1 - r) with the
 * copied provider's src = A on T_s and 1 - A on T_f.  The numpy scorer
 * chose T_s/T_f by the blend x m + y (1 - m) with m in {0.0, 1.0}; the
 * ternaries below equal it for finite inputs.
 */
void score_pair_rows(
    int64_t n, const int64_t *rows,
    const int32_t *ps_claim_a, const int32_t *ps_claim_b, const int64_t *claim_task,
    const int64_t *claim_code, const double *claim_acc,
    const int64_t *truth_codes, const double *collision,
    double lo, double hi, double r,
    double *out_ind, double *out_ab, double *out_ba)
{
    const double keep = 1.0 - r;

    for (int64_t i = 0; i < n; i++) {
        int64_t row = rows ? rows[i] : i;
        int64_t ca = ps_claim_a[row];
        int64_t cb = ps_claim_b[row];
        int64_t task = claim_task[ca];
        double a = clip_acc(claim_acc[ca], lo, hi);
        double b = clip_acc(claim_acc[cb], lo, hi);
        int64_t code = claim_code[ca];

        if (code == claim_code[cb]) {
            int on_truth = code == truth_codes[task];
            double src_a = on_truth ? a : 1.0 - a;
            double src_b = on_truth ? b : 1.0 - b;
            double p = src_a * src_b;
            if (!on_truth) {
                p = p * collision[task];
            }
            out_ind[i] = floor_prob(p);
            p = p * keep;
            out_ab[i] = floor_prob(src_b * r + p);
            out_ba[i] = floor_prob(src_a * r + p);
        } else {
            double p = 1.0 - a * b;
            p = p - ((1.0 - a) * (1.0 - b)) * collision[task];
            p = floor_prob(p);
            out_ind[i] = p;
            p = floor_prob(p * keep);
            out_ab[i] = p;
            out_ba[i] = p;
        }
    }
}

/*
 * Per-pair sums of the logged row terms.
 *
 * pairs                  the n pairs to sum, or NULL for pairs 0..n-1;
 * pair_ptr               int32 CSR pointer of each pair's contiguous rows;
 * row0                   the pair-table row that row_ind/ab/ba[0] holds
 *                        (a block of rows starts at its first pair's);
 * sum_ind/ab/ba          written at each summed pair's own index,
 *                        once its rows are read: the sums may overwrite
 *                        the row terms they add (pair k's rows never
 *                        precede index k), as the dependence pass does.
 */
void pair_sums(
    int64_t n, const int64_t *pairs, const int32_t *pair_ptr, int64_t row0,
    const double *row_ind, const double *row_ab, const double *row_ba,
    double *sum_ind, double *sum_ab, double *sum_ba)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t pair = pairs ? pairs[k] : k;
        double s_ind = 0.0;
        double s_ab = 0.0;
        double s_ba = 0.0;
        for (int64_t row = pair_ptr[pair] - row0; row < pair_ptr[pair + 1] - row0; row++) {
            s_ind += row_ind[row];
            s_ab += row_ab[row];
            s_ba += row_ba[row];
        }
        sum_ind[pair] = s_ind;
        sum_ab[pair] = s_ab;
        sum_ba[pair] = s_ba;
    }
}
