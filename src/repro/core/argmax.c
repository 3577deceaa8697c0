/*
 * Line 28's argmax, per task: the code of the first value group whose
 * score is the task's largest.
 *
 * A task's groups are contiguous and ordered by code (a group's code is
 * its index minus task_group_ptr[task]), so the first maximal group is
 * the lexicographically smallest winning value.  This reproduces the
 * numpy steps it replaced, a segment max by np.maximum.reduceat and then
 * the first group equal to it: a task without groups gets -1, and so
 * does a task with a NaN score, whose NaN-propagating max equals no
 * score.  Scores are only compared, so any build flags keep the bits.
 */
#include <math.h>
#include <stdint.h>

void first_argmax_codes(
    int64_t n_tasks, const int64_t *task_group_ptr, const double *values, int64_t *out)
{
    for (int64_t t = 0; t < n_tasks; t++) {
        int64_t g0 = task_group_ptr[t];
        int64_t g1 = task_group_ptr[t + 1];
        out[t] = -1;
        if (g0 == g1) {
            continue;
        }
        double best = values[g0];
        for (int64_t g = g0 + 1; g < g1 && !isnan(best); g++) {
            double x = values[g];
            if (isnan(x) || x > best) {
                best = x;
            }
        }
        for (int64_t g = g0; g < g1; g++) {
            if (values[g] == best) {
                out[t] = g - g0;
                break;
            }
        }
    }
}
