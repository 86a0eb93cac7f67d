/* Miniature kernel whose int32 accumulator is provably in width: the
 * assume caps it at 1 << 20, so the post-increment value stays far
 * below INT32_MAX. */
#include <stdint.h>

#define BATCH_MAGIC 7

int mlpsim_batch(int64_t n, const int8_t *ops)
{
    int32_t hot = 0;
    int64_t i;
    for (i = 0; i < n; i++) {
        /* certify: assume hot <= (1 << 20) -- the accumulator is reset
         * well before the cap in the full kernel; the fixture keeps
         * the invariant and the certifier proves the width from it */
        hot += ops[i];
    }
    (void)hot;
    return BATCH_MAGIC - BATCH_MAGIC;
}
