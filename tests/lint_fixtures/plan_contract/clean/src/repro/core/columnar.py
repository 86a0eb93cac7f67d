"""Miniature plan builder whose contract matches the certified facts.

``PLAN_CONTRACT`` below is token-for-token the literal the real
builder declares, so it equals the package's ``PLAN_CONTRACT`` (which
``repro.lint.certify.contracts`` builds its facts from) and its
fingerprint matches the manifest pin; ``validate_plan_contract`` exists and is called by the
miniature driver (``ckernel.py``) before the kernel — the fixture is
clean by construction.
"""

from repro.robustness.errors import InternalError

PLAN_CONTRACT = {
    "n_max": 1 << 26,
    "columns": {
        "ops": [0, 8],
        "prod1": [0, ["n", 0]],
        "prod2": [0, ["n", 0]],
        "prod3": [0, ["n", 0]],
        "memdep": [0, ["n", 0]],
        "dmiss": [0, 1],
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


def validate_plan_contract(plan, configs):
    n = len(plan)
    if n > PLAN_CONTRACT["n_max"]:
        raise InternalError(
            f"plan region has {n} instructions; the kernel is certified"
            f" for at most {PLAN_CONTRACT['n_max']}"
        )
