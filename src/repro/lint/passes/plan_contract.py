"""plan-contract: the Python plan invariants match what the C proof assumed.

The kernel certification (``kernel-bounds`` / ``kernel-overflow``)
proves its obligations *under the contract facts* — declared ranges
for every plan column, every config field and the region length.
Those facts are only sound if the Python side establishes them, so
this pass closes the loop:

* the ``PLAN_CONTRACT`` / ``CYCLE_PLAN_CONTRACT`` /
  ``ANNOTATE_CONTRACT`` module-level literal exists, constant-folds, and is token-for-token equal to the facts
  the certifier assumed (:mod:`repro.lint.certify.contracts`);
* its SHA-256 fingerprint matches the pin in
  :mod:`repro.lint.manifest` — changing a contracted range without
  ``repro lint --manifest-update`` (a reviewed manifest regen) is a
  finding;
* the runtime validator (``validate_plan_contract`` /
  ``validate_cycle_plan_contract`` / ``validate_annotate_contract``)
  is defined next to the literal;
* the validator call *dominates* the ``_kernel(...)`` invocation in
  every ctypes driver of the kernel: an unconditional top-level
  statement of the driver function, lexically before the kernel call,
  so every path that reaches the kernel has checked the certified
  input ranges.

The checks short-circuit per contract, so a single-site edit yields
exactly one finding.  Fixture trees that lack the C kernel (or the
builder module) are skipped — there is nothing certified to contract
against.
"""

from repro.lint import manifest
from repro.lint.certify.contracts import kernel_contracts
from repro.lint.certify.pyfacts import contract_findings
from repro.lint.framework import LintPass, register


@register
class PlanContractPass(LintPass):
    id = "plan-contract"
    description = (
        "plan/config contract literals, their manifest fingerprints and"
        " the runtime validator calls must match the ranges the kernel"
        " certification assumed"
    )

    def check_project(self, project):
        for contract in kernel_contracts():
            if project.read_text(contract.path) is None:
                continue  # no kernel in this tree -> nothing certified
            pinned = manifest.PLAN_CONTRACT_FINGERPRINTS.get(
                contract.python_name
            )
            for relpath, lineno, message in contract_findings(
                project, contract, pinned
            ):
                yield self.finding(relpath, lineno, message)
