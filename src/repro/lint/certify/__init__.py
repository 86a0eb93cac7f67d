"""Interval abstract interpretation over the kernels' C subset.

``repro.lint.certify`` is the analysis layer behind the
``kernel-bounds`` and ``kernel-overflow`` passes:

* :mod:`repro.lint.certify.intervals` — the value domain: per-variable
  ``[lo, hi]`` intervals whose endpoints are *affine expressions* over
  the kernel's symbolic sizes (``n``, ``rob_alloc``, ...), so a bound
  like ``idx <= n - 1`` is provable for every trace length at once;
* :mod:`repro.lint.certify.cparse` — the C front end: one parse of a
  kernel as compiled (its rendered header, then its source), with the
  defines, structs, function bodies and the ``certify:`` facts the
  source declares;
* :mod:`repro.lint.certify.contracts` — the facts built from the
  contract literals that declare each entry point, imported from the
  running package: symbol boxes, entry parameters, checked field
  ranges;
* :mod:`repro.lint.certify.interp` — the abstract interpreter: a
  worklist fixpoint over a statement-level C CFG (delayed widening at
  loop heads, a narrowing sweep, then one checking pass that turns
  every unproven subscript / signed wrap into an obligation);
* :mod:`repro.lint.certify.pyfacts` — the Python side: checks the
  linted tree's contract literals equal the package's, whose
  declarations the proof assumes, the compiler checks the C
  definitions against and every kernel call is checked against.

:func:`certified_kernels` runs the C analysis once per kernel and
process, and memoises on the :class:`~repro.lint.framework.Project`;
the ``kernel-bounds`` and ``kernel-overflow`` passes partition its
obligations rather than re-running the fixpoint.
"""

import hashlib
import importlib

from repro.lint.certify.contracts import kernel_contracts

#: This process's kernel reports, keyed by :func:`_report_key`: a lint
#: run re-analyses only a kernel whose inputs changed since an earlier
#: run analysed it.
_REPORTS = {}


def kernel_header(contract):
    """The header *contract*'s kernel compiles against, rendered by the
    running package: the loader of the driver module the contract
    names (``src/repro/core/ckernel.py`` is
    :mod:`repro.core.ckernel`)."""
    name = contract.driver_path.removeprefix("src/").removesuffix(".py")
    driver = importlib.import_module(name.replace("/", "."))
    return driver._loader.header()


def _report_key(header, source, contract):
    """Digest of everything one analysis reads."""
    digest = hashlib.sha256()
    for part in (header, source, repr(contract.python_facts)):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def certified_kernels(project):
    """Analyse every contracted kernel once per project.

    Each kernel is analysed as the compiler reads it: the header the
    running package renders, then the source under the project root.
    Returns ``{relpath: KernelReport}`` (see
    :class:`repro.lint.certify.interp.KernelReport`); memoised on the
    project so the two C passes share one fixpoint run, and across
    projects on the header, source and contract (reports are read,
    never modified), so linting an unchanged kernel again reuses its
    report.
    """
    cache = getattr(project, "_certify_reports", None)
    if cache is None:
        from repro.lint.certify.interp import analyse_kernel
        cache = {}
        for contract in kernel_contracts():
            source = project.read_text(contract.path)
            if source is None:
                continue
            header = kernel_header(contract)
            key = _report_key(header, source, contract)
            report = _REPORTS.get(key)
            if report is None:
                project.count_parse(contract.path, "c-unit")
                report = analyse_kernel(header, source, contract)
                _REPORTS[key] = report
            cache[contract.path] = report
        project._certify_reports = cache
    return cache
