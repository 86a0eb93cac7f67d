"""Pinned content hashes and fingerprints for frozen contracts.

``repro.core.mlpsim_reference`` is the pre-optimization MLPsim engine,
kept bit-identical as the oracle for the engine-equivalence suite
(PR 2), and ``repro.cyclesim.simulator_reference`` is the
pre-optimization cycle-accurate pipeline simulator frozen the same way
for the cyclesim-equivalence suite.  Their usefulness rests entirely
on them never changing, so the ``frozen-oracle`` lint pass verifies
each file's SHA-256 against the value pinned here.  An edit to an
oracle therefore requires an edit to this manifest in the same commit
— an explicit, reviewable act rather than a quiet drive-by change.

The kernel certification (PR 10) pins the plan contracts the same
way: the ``plan-contract`` pass fingerprints the ``PLAN_CONTRACT`` /
``CYCLE_PLAN_CONTRACT`` / ``ANNOTATE_CONTRACT`` / ``GENERATE_CONTRACT``
literals the runtime validators enforce and compares them against the
pins below, so changing a contracted range without regenerating this
manifest fails the build.

Hashes are computed over text with ``\\r\\n`` normalised to ``\\n``, so
checkouts with translated line endings still verify.  Regenerate this
file with ``repro lint --manifest-update`` (see
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

#: ``facts_fingerprint`` pins of the Python plan-contract literals the
#: kernel certification assumes, keyed by literal name (see
#: ``repro.lint.certify.contracts``).
PLAN_CONTRACT_FINGERPRINTS = {
    "PLAN_CONTRACT": (
        "d55cb6d22ee20f115bb1de49d5267139ccd59311e5aa62ef4b1864058d99a154"
    ),
    "CYCLE_PLAN_CONTRACT": (
        "e62d25af0454fc9bcd749c8394f6347c34b0402899d6d4fbce2d8b7769bcd296"
    ),
    "ANNOTATE_CONTRACT": (
        "ffbe9ddc058fb14e57b4c1873ef7082d8a51901637f5a93d4344706465f0e34d"
    ),
    "GENERATE_CONTRACT": (
        "a17b75aa43d1f15d57ab506bd15f5f076a45fd3ee633bb84aeddde04e5b717d3"
    ),
}
