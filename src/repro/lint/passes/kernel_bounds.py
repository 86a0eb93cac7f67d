"""kernel-bounds: every C kernel subscript is proved in bounds.

The compiled kernels index dozens of ctypes-shared buffers with
computed offsets; one out-of-bounds subscript corrupts a neighbouring
column or segfaults the sweep pool, and no test tier can prove the
*absence* of such an index.  This pass runs the interval abstract
interpreter (:mod:`repro.lint.certify`) over each contracted kernel
and reports every array access whose index interval is not provably
inside the declared buffer length — the finding carries the C line
and the interval that failed, e.g.
``subscript ops[i]: index in [0, n], ops length n``.

This pass also owns the certification's shared diagnostics: a kernel
that fails to parse, annotation hygiene (a trusted ``certify:``
annotation or a C suppression without a ``-- reason`` justification,
a member fact that attaches to no member or names one that does not
exist), and a contract literal of the linted tree that differs from
the running package's, whose declaration the proof was built from
(:func:`repro.lint.certify.pyfacts.contract_findings`) — exactly one
pass reports them, so a single defect stays a single finding.

Suppression uses C block comments
(``/* reprolint: disable=kernel-bounds -- why */``): trailing on the
flagged line, or alone on the line above it.  The ``-- why`` reason is
mandatory — an unjustified suppression is itself a finding.
"""

from repro.lint.certify import certified_kernels
from repro.lint.certify.contracts import kernel_contracts
from repro.lint.certify.pyfacts import contract_findings
from repro.lint.framework import LintPass, register


@register
class KernelBoundsPass(LintPass):
    id = "kernel-bounds"
    description = (
        "every array subscript in the C kernels must be provably in"
        " bounds under the declared kernel contract"
    )

    def check_project(self, project):
        for contract in kernel_contracts():
            if project.read_text(contract.path) is None:
                continue  # no kernel in this tree -> nothing certified
            for relpath, lineno, message in contract_findings(project,
                                                              contract):
                yield self.finding(relpath, lineno, message)
        for relpath, report in sorted(certified_kernels(project).items()):
            if report.error is not None:
                lineno, message = report.error
                yield self.finding(
                    relpath, max(lineno, 1),
                    f"kernel cannot be certified: {message}",
                )
                continue
            for lineno, message in report.issues:
                if not report.unit.suppressed(lineno, self.id):
                    yield self.finding(relpath, lineno, message)
            for obligation in report.failed("bounds"):
                if report.unit.suppressed(obligation.lineno, self.id):
                    continue
                yield self.finding(
                    relpath, obligation.lineno, obligation.message,
                )
