"""Pinned content hashes of the frozen oracles.

``repro.core.mlpsim_reference`` is the pre-optimization MLPsim engine,
kept bit-identical as the oracle for the engine-equivalence suite
(PR 2), and ``repro.cyclesim.simulator_reference`` is the
pre-optimization cycle-accurate pipeline simulator frozen the same way
for the cyclesim-equivalence suite.  Their usefulness rests entirely
on them never changing, so the ``frozen-oracle`` lint pass verifies
each file's SHA-256 against the value pinned here.  An edit to an
oracle therefore requires an edit to this manifest in the same commit
— an explicit, reviewable act rather than a quiet drive-by change.

Hashes are computed over text with ``\\r\\n`` normalised to ``\\n``, so
checkouts with translated line endings still verify.  Regenerate the
two hashes with ``repro lint --manifest-update`` (see
``docs/STATIC_ANALYSIS.md``), never by hand.
"""

#: Root-relative path of the frozen reference engine.
ORACLE_PATH = "src/repro/core/mlpsim_reference.py"

#: SHA-256 of the oracle's (newline-normalised) content.
ORACLE_SHA256 = (
    "99f790e0548ba80015582b1e26fe3cd056fe32ad5e1113a129e487c86cfa366d"
)

#: Root-relative path of the frozen cycle-simulator reference.
CYCLESIM_ORACLE_PATH = "src/repro/cyclesim/simulator_reference.py"

#: SHA-256 of the cyclesim oracle's (newline-normalised) content.
CYCLESIM_ORACLE_SHA256 = (
    "725733cdb43602f3b61201e1c3172c8f0f63f3970e858519a4db5401b7b83e46"
)
