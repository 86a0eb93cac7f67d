"""Miniature plan builder whose contract matches the certified facts.

``PLAN_CONTRACT`` below is token-for-token the literal the real
builder declares, so it equals the package's ``PLAN_CONTRACT`` (which
``repro.lint.certify.contracts`` builds its facts from): the fixture is
clean by construction.
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
                ["dmiss", "const uint8_t *", "n", 0, 1],
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
