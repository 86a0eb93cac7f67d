/* Miniature kernel with one int32-overflowing accumulator: the
 * assumed invariant is itself wider than the int32 it caps, so the
 * post-increment value provably exceeds INT32_MAX — exactly one
 * kernel-overflow finding on the store. */
#include <stdint.h>

#define BATCH_MAGIC 7

int mlpsim_batch(int64_t n, const int8_t *ops)
{
    int64_t total = 0;
    int32_t hot = 0;
    int64_t i;
    for (i = 0; i < n; i++) {
        /* certify: assume total <= (1 << 29) -- at most n <= 1 << 26
         * iterations, each adding an ops value of at most 8 */
        total += ops[i];
        /* certify: assume hot <= (1 << 31) -- fixture defect: the cap
         * is wider than the int32 accumulator it claims to protect */
        hot += 1 << 20;
    }
    (void)total;
    (void)hot;
    return BATCH_MAGIC - BATCH_MAGIC;
}
