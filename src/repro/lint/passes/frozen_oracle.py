"""frozen-oracle: reference engines are immutable and self-contained.

The frozen MLPsim interpreter ``repro.core.mlpsim_reference`` is the
oracle of the compiled MLPsim kernel, which ``repro.core.mlpsim``
routes runs to; the cyclesim performance overhaul froze the
cycle-accurate pipeline simulator as
``repro.cyclesim.simulator_reference`` under the same protocol.  The
equivalence suites derive all their power from those files never
changing.  Two statically checkable properties protect each oracle:

* the oracle may not import the engine under test: a whole-module
  import of the engine module, or a ``from``-import of anything
  beyond the shared trace-plumbing helpers the frozen file has always
  used, would let the oracle delegate to the code it is supposed to
  validate, which proves nothing;
* its content SHA-256 must match the manifest pinned in
  :mod:`repro.lint.manifest` — editing an oracle without updating the
  manifest (a loud, reviewable diff) fails the build.

If the tree has an engine but no oracle at all, that is also reported:
deleting an oracle must not silently pass.
"""

import ast
import hashlib

from repro.lint import manifest
from repro.lint.framework import LintPass, register

ENGINE_PATH = "src/repro/core/mlpsim.py"
CYCLESIM_ENGINE_PATH = "src/repro/cyclesim/simulator.py"

#: One spec per frozen oracle: where it lives, the hash it is pinned
#: at, the optimized engine it validates (and so must not import), the
#: spellings under which that engine can be imported, the package a
#: ``from <package> import <name>`` re-export would come from, and the
#: shared trace-plumbing names the oracle has always legitimately
#: imported from the engine module (anything else — ``simulate``,
#: ``simulate_oracle``, ``*`` — is delegation).
_ORACLE_SPECS = (
    {
        "oracle_path": manifest.ORACLE_PATH,
        "sha256": manifest.ORACLE_SHA256,
        "engine_path": ENGINE_PATH,
        "engine_modules": ("repro.core.mlpsim", "mlpsim"),
        "engine_package": "repro.core",
        "engine_name": "mlpsim",
        "allowed_from_engine": frozenset({
            "NOT_EXECUTED", "event_masks", "resolve_region",
        }),
    },
    {
        "oracle_path": manifest.CYCLESIM_ORACLE_PATH,
        "sha256": manifest.CYCLESIM_ORACLE_SHA256,
        "engine_path": CYCLESIM_ENGINE_PATH,
        "engine_modules": ("repro.cyclesim.simulator", "simulator"),
        "engine_package": "repro.cyclesim",
        "engine_name": "simulator",
        # The cyclesim oracle shares nothing with its optimized engine
        # (its mlpsim plumbing imports come from repro.core.mlpsim, a
        # different module): any from-import here is delegation.
        "allowed_from_engine": frozenset(),
    },
)


def _imports_engine(node, spec):
    if isinstance(node, ast.Import):
        return any(
            alias.name in spec["engine_modules"] for alias in node.names
        )
    if isinstance(node, ast.ImportFrom):
        if node.module in spec["engine_modules"]:
            return any(
                alias.name not in spec["allowed_from_engine"]
                for alias in node.names
            )
        if node.module == spec["engine_package"] or (
            node.level >= 1 and node.module in (None, "")
        ):
            return any(
                alias.name == spec["engine_name"] for alias in node.names
            )
    return False


@register
class FrozenOraclePass(LintPass):
    id = "frozen-oracle"
    description = (
        "frozen reference engines must match their pinned hashes and"
        " must not import the engine under test"
    )

    def check_project(self, project):
        for spec in _ORACLE_SPECS:
            yield from self._check_oracle(project, spec)

    def _check_oracle(self, project, spec):
        oracle = project.module(spec["oracle_path"])
        if oracle is None:
            if project.module(spec["engine_path"]) is not None:
                yield self.finding(
                    spec["engine_path"], 1,
                    f"{spec['oracle_path']} is missing: the frozen"
                    " oracle must exist alongside the engine",
                )
            return
        if oracle.tree is not None:
            for node in ast.walk(oracle.tree):
                if _imports_engine(node, spec):
                    yield self.finding(
                        oracle, node.lineno,
                        "the frozen oracle imports"
                        f" {spec['engine_modules'][0]}; the reference"
                        " engine must stay independent of the engine it"
                        " validates",
                    )
        digest = hashlib.sha256(oracle.source.encode()).hexdigest()
        if digest != spec["sha256"]:
            yield self.finding(
                oracle, 1,
                "content hash does not match the pinned manifest"
                f" (got {digest[:12]}…, pinned"
                f" {spec['sha256'][:12]}…); the oracle is frozen"
                " — revert the edit, or update repro.lint.manifest in"
                " the same reviewed change",
            )
