"""Miniature plan builder with one drifted contract range.

``PLAN_CONTRACT`` below widens the ``dmiss`` column to ``[0, 2]``
while the package's literal, which the certified facts are built
from, says ``[0, 1]`` — the single-site drift the ``plan-contract`` pass must
report as exactly one finding.  Everything else matches the clean
fixture.
"""

import numpy as np

from repro.robustness.errors import InternalError

COLUMNAR_SCHEMA_VERSION = 2

PLAN_COLUMNS = (
    ("ops", np.int8),
    ("prod1", np.int32),
    ("prod2", np.int32),
    ("prod3", np.int32),
    ("memdep", np.int32),
    ("dmiss", np.bool_),
    ("imiss", np.bool_),
    ("mispred", np.bool_),
    ("pmiss", np.bool_),
    ("pfuseful", np.bool_),
    ("vp_ok", np.bool_),
    ("smiss", np.bool_),
    ("scalar_mask", np.bool_),
)

PLAN_CONTRACT = {
    "n_max": 1 << 26,
    "columns": {
        "ops": [0, 8],
        "prod1": [0, ["n", 0]],
        "prod2": [0, ["n", 0]],
        "prod3": [0, ["n", 0]],
        "memdep": [0, ["n", 0]],
        "dmiss": [0, 2],
        "imiss": [0, 1],
        "mispred": [0, 1],
        "pmiss": [0, 1],
        "pfuseful": [0, 1],
        "vp_ok": [0, 1],
        "smiss": [0, 1],
        "scalar_mask": [0, 1],
    },
    "config": {
        "rob": [1, 1 << 24],
        "iw": [1, 1 << 24],
        "fetch_buffer": [0, 1 << 24],
        "serializing": [0, 1],
        "load_in_order": [0, 1],
        "load_wait_staddr": [0, 1],
        "branch_in_order": [0, 1],
        "mshr_cap": [1, 1 << 30],
        "sb_cap": [0, 1 << 30],
        "slow_bp": [0, 1],
        "slow_bp_threshold": [0, 1 << 20],
        "runahead": [0, 1],
        "max_runahead": [1, (1 << 26) + 1],
    },
}


def plan_payload(plan):
    payload = {name: getattr(plan, name) for name, _ in PLAN_COLUMNS}
    payload["meta"] = np.asarray(
        [COLUMNAR_SCHEMA_VERSION, plan.start, plan.stop], dtype=np.int64
    )
    return payload


def validate_plan_contract(plan, configs):
    n = len(plan)
    if n > PLAN_CONTRACT["n_max"]:
        raise InternalError(
            f"plan region has {n} instructions; the kernel is certified"
            f" for at most {PLAN_CONTRACT['n_max']}"
        )
