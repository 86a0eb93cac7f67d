"""Miniature columnar module whose payload schema matches the pin.

``PLAN_COLUMNS`` and the ``plan_payload`` extras below reproduce the
real module's column set exactly, so the fingerprint the
``schema-version`` pass computes here equals the one pinned in
``repro.lint.manifest`` — the fixture is clean by construction.
"""

import numpy as np

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


def plan_payload(plan):
    payload = {name: getattr(plan, name) for name, _ in PLAN_COLUMNS}
    payload["meta"] = np.asarray(
        [COLUMNAR_SCHEMA_VERSION, plan.start, plan.stop], dtype=np.int64
    )
    return payload
