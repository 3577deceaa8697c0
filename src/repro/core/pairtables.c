/*
 * The co-answering pair tables and the Eq. 16 slot map in one walk.
 *
 * One row per (worker a, worker b, shared task) with a < b, in the
 * order ClaimArrays keeps them: by a, then b, then task.  The walk
 * visits the workers b in ascending order and each b's claims in task
 * order (the worker CSR).  When b reaches a task, the task's claimants
 * a < b are the ones before b's claim in by_task, the task's claims in
 * worker order.  Each such a takes the next row at its own cursor: a's
 * rows arrive by b, then by task, so the table order comes from the
 * walk itself, with no sort and no scan over all workers per worker.
 * A new pair starts at a's cursor whenever a meets a new b.
 *
 * task_buckets writes by_task once, with each claim's index in it
 * (pos) and the rows of the workers before each b (row_ptr, a CSR
 * pointer over workers: b's claim cb has pos[cb] - task_ptr[t] earlier
 * claimants).  pair_tables then walks any range [b0, b1) of second
 * workers, so a caller may cut the walk into parts that run at once,
 * each with its own last, row_at and pair_at.  It runs every part
 * twice:
 *
 * - count (pair_a NULL): row_at[a] and pair_at[a] start at 0 and end
 *   as a's row and pair counts within the part;
 * - fill: walk_cursors has turned every part's counts into its
 *   cursors, a's first row and first pair (the prefix sums of the
 *   summed counts) plus a's counts in the parts before, and every
 *   table is written.  A row whose two claims share a value
 *   group g writes its slot-map entry there too: n_pairs + p at
 *   [lb, la] of g's m x m block (block[g] onward), with la < lb the
 *   claims' offsets in g.  Every pair of g's members shares g's task,
 *   so the walk writes the whole lower triangle; slot_transpose then
 *   mirrors it, block by block, into pair p at [la, lb] and writes
 *   2 * n_pairs on the diagonal.  One scattered write per row instead
 *   of two is the cheaper walk.
 *
 * Parts write disjoint rows, pairs and slots, so the tables do not
 * depend on the cut.  The walk writes only what the kernels read, in
 * int32: the pairs' workers and row pointer, each row's two claim
 * positions and the slot map.  A row's task is claim_task of its first
 * claim and its pair is found from pair_ptr, so neither is stored.  The
 * caller has checked between the passes that every written value fits.
 *
 * All scratch is passed in by the caller: fill holds n_tasks and last
 * b1 int64.
 */
#include <stddef.h>
#include <stdint.h>

void task_buckets(
    int64_t n_workers, int64_t n_tasks,
    const int64_t *task_ptr, const int64_t *worker_ptr,
    const int64_t *worker_claims, const int64_t *claim_task,
    int64_t *fill, int64_t *by_task, int64_t *pos, int64_t *row_ptr)
{
    for (int64_t t = 0; t < n_tasks; t++) {
        fill[t] = task_ptr[t];
    }
    int64_t rows = 0;
    row_ptr[0] = 0;
    for (int64_t b = 0; b < n_workers; b++) {
        for (int64_t k = worker_ptr[b]; k < worker_ptr[b + 1]; k++) {
            int64_t cb = worker_claims[k];
            int64_t t = claim_task[cb];
            rows += fill[t] - task_ptr[t];
            pos[cb] = fill[t];
            by_task[fill[t]++] = cb;
        }
        row_ptr[b + 1] = rows;
    }
}

/*
 * Between the passes: each part's counts become its fill cursors, in
 * place, and totals gets the row and pair counts.  counters holds, per
 * part, its last, row_at and pair_at rows of n_workers each.  Rows and
 * pairs are numbered by a, then by part, so part k's cursor for a is
 * the counts of every worker before a plus a's counts in parts 0..k-1.
 */
void walk_cursors(int64_t n_parts, int64_t n_workers, int64_t *counters, int64_t *totals)
{
    int64_t rows = 0, pairs = 0;
    for (int64_t a = 0; a < n_workers; a++) {
        for (int64_t k = 0; k < n_parts; k++) {
            int64_t *row_at = counters + (3 * k + 1) * n_workers;
            int64_t *pair_at = row_at + n_workers;
            int64_t r = row_at[a], p = pair_at[a];
            row_at[a] = rows;
            pair_at[a] = pairs;
            rows += r;
            pairs += p;
        }
    }
    totals[0] = rows;
    totals[1] = pairs;
}

void pair_tables(
    int64_t b0, int64_t b1,
    const int64_t *task_ptr, const int64_t *worker_ptr,
    const int64_t *worker_claims, const int64_t *claim_task,
    const int64_t *claim_worker, const int64_t *claim_group,
    const int64_t *group_ptr, const int64_t *group_size,
    const int64_t *block, const int64_t *by_task, const int64_t *pos,
    int64_t n_pairs, int64_t *last, int64_t *row_at, int64_t *pair_at,
    int32_t *pair_a, int32_t *pair_b, int32_t *pair_ptr,
    int32_t *ps_claim_a, int32_t *ps_claim_b, int32_t *slots)
{
    for (int64_t w = 0; w < b1; w++) {
        last[w] = -1;
    }
    for (int64_t b = b0; b < b1; b++) {
        for (int64_t k = worker_ptr[b]; k < worker_ptr[b + 1]; k++) {
            int64_t cb = worker_claims[k];
            int64_t t = claim_task[cb];
            for (int64_t e = task_ptr[t]; e < pos[cb]; e++) {
                int64_t ca = by_task[e];
                int64_t a = claim_worker[ca];
                if (pair_a == NULL) {
                    pair_at[a] += last[a] != b;
                    last[a] = b;
                    row_at[a]++;
                    continue;
                }
                if (last[a] != b) {
                    last[a] = b;
                    pair_a[pair_at[a]] = (int32_t)a;
                    pair_b[pair_at[a]] = (int32_t)b;
                    pair_ptr[pair_at[a]++] = (int32_t)row_at[a];
                }
                int64_t r = row_at[a]++;
                int64_t p = pair_at[a] - 1;
                ps_claim_a[r] = (int32_t)ca;
                ps_claim_b[r] = (int32_t)cb;
                int64_t g = claim_group[ca];
                if (g == claim_group[cb]) {
                    int64_t m = group_size[g];
                    int64_t la = ca - group_ptr[g];
                    int64_t lb = cb - group_ptr[g];
                    slots[block[g] + lb * m + la] = (int32_t)(n_pairs + p);
                }
            }
        }
    }
}

/*
 * After the fill: each of the n_blocks consecutive m x m blocks of the
 * slot map (sizes[b] = m, in bucket order) gets its upper triangle from
 * its lower one, n_pairs + p at [l, k] giving p at [k, l], and
 * 2 * n_pairs on its diagonal.
 */
void slot_transpose(int64_t n_blocks, const int64_t *sizes, int64_t n_pairs, int32_t *slots)
{
    for (int64_t b = 0; b < n_blocks; b++) {
        int64_t m = sizes[b];
        for (int64_t k = 0; k < m; k++) {
            slots[k * m + k] = (int32_t)(2 * n_pairs);
            for (int64_t l = k + 1; l < m; l++) {
                slots[k * m + l] = slots[l * m + k] - (int32_t)n_pairs;
            }
        }
        slots += m * m;
    }
}
