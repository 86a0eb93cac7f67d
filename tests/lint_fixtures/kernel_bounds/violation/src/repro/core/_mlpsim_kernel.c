/* Miniature kernel with one off-by-one subscript: the loop runs
 * `i <= n`, so the final iteration reads `ops[n]` one past the
 * contracted length — exactly one kernel-bounds finding. */
#include <stdint.h>

#define BATCH_MAGIC 7

int mlpsim_batch(int64_t n, const int8_t *ops)
{
    int64_t total = 0;
    int64_t i;
    for (i = 0; i <= n; i++) {
        /* certify: assume total <= (1 << 29) -- at most n <= 1 << 26
         * iterations, each adding an ops value of at most 8 */
        total += ops[i];
    }
    (void)total;
    return BATCH_MAGIC - BATCH_MAGIC;
}
