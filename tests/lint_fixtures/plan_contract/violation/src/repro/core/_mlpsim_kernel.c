/* Miniature kernel whose single subscript is provably in bounds:
 * `i` ranges over [0, n - 1] and the contract declares `ops` to be
 * exactly `n` elements long. */
#include <stdint.h>

#define BATCH_MAGIC 7

int mlpsim_batch(int64_t n, const int8_t *ops)
{
    int64_t total = 0;
    int64_t i;
    for (i = 0; i < n; i++) {
        /* certify: assume total <= (1 << 29) -- at most n <= 1 << 26
         * iterations, each adding an ops value of at most 8 */
        total += ops[i];
    }
    (void)total;
    return BATCH_MAGIC - BATCH_MAGIC;
}
