"""Miniature plan builder with one drifted contract range.

``PLAN_CONTRACT`` below widens the ``dmiss`` column to ``[0, 2]``
while the package's literal, which the certified facts are built
from, says ``[0, 1]`` — the single-site drift ``kernel-bounds`` must
report as exactly one finding.  Everything else matches the clean
fixture.
"""

PLAN_CONTRACT = {
    "symbols": {"n": [0, 1 << 26], "nconfigs": [0, 1 << 20]},
    "entries": {
        "mlpsim_batch": {
            "returns": "int",
            "params": [
                ["n", "int64_t"],
                ["ops", "const int8_t *", "n", 0, 8],
                ["prod1", "const int32_t *", "n", 0, "n"],
                ["prod2", "const int32_t *", "n", 0, "n"],
                ["prod3", "const int32_t *", "n", 0, "n"],
                ["memdep", "const int32_t *", "n", 0, "n"],
                ["dmiss", "const uint8_t *", "n", 0, 2],
                ["imiss", "const uint8_t *", "n", 0, 1],
                ["mispred", "const uint8_t *", "n", 0, 1],
                ["pmiss", "const uint8_t *", "n", 0, 1],
                ["pfuseful", "const uint8_t *", "n", 0, 1],
                ["vp_ok", "const uint8_t *", "n", 0, 1],
                ["smiss", "const uint8_t *", "n", 0, 1],
                ["scalar_mask", "const uint8_t *", "n", 0, 1],
                ["configs", "const KernelConfig *", "nconfigs"],
                ["nconfigs", "int64_t"],
                ["results", "KernelResult *", "nconfigs"],
            ],
        },
    },
    "structs": {
        "KernelConfig": [
            [[1, 1 << 24], ["rob", "iw"]],
            [[0, 1 << 24], ["fetch_buffer"]],
            [[0, 1], ["serializing", "load_in_order", "load_wait_staddr",
                      "branch_in_order", "slow_bp", "runahead"]],
            [[1, 1 << 30], ["mshr_cap"]],
            [[0, 1 << 30], ["sb_cap"]],
            [[0, 1 << 20], ["slow_bp_threshold"]],
            [[1, (1 << 26) + 1], ["max_runahead"]],
        ],
    },
}
