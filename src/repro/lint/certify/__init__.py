"""Interval abstract interpretation over the kernels' C subset.

``repro.lint.certify`` is the analysis layer behind the
``kernel-bounds``, ``kernel-overflow`` and ``plan-contract`` passes:

* :mod:`repro.lint.certify.intervals` — the value domain: per-variable
  ``[lo, hi]`` intervals whose endpoints are *affine expressions* over
  the kernel's symbolic sizes (``n``, ``rob_alloc``, ...), so a bound
  like ``idx <= n - 1`` is provable for every trace length at once;
* :mod:`repro.lint.certify.contracts` — the declared facts: symbol
  ranges, buffer lengths and element ranges, struct-field invariants,
  built over the contract literals the runtime validators enforce,
  imported from the running package;
* :mod:`repro.lint.certify.interp` — the abstract interpreter: a
  worklist fixpoint over a statement-level C CFG (delayed widening at
  loop heads, a narrowing sweep, then one checking pass that turns
  every unproven subscript / signed wrap into an obligation);
* :mod:`repro.lint.certify.pyfacts` — the Python side: checks the
  linted tree's contract literals equal the package's, are pinned in
  the manifest, and are enforced by validators that dominate the
  kernel calls, so the C proof's assumptions are themselves verified.

:func:`certified_kernels` runs the whole C analysis once per lint
invocation and memoises on the :class:`~repro.lint.framework.Project`;
the ``kernel-bounds`` and ``kernel-overflow`` passes partition its
obligations rather than re-running the fixpoint.
"""

import importlib

from repro.lint.certify.contracts import kernel_contracts


def kernel_header(contract):
    """The header *contract*'s kernel compiles against, rendered by the
    running package: the loader of the driver module the contract
    names (``src/repro/core/ckernel.py`` is
    :mod:`repro.core.ckernel`)."""
    name = contract.driver_path.removeprefix("src/").removesuffix(".py")
    driver = importlib.import_module(name.replace("/", "."))
    return driver._loader.header()


def certified_kernels(project):
    """Analyse every contracted kernel once per project.

    Each kernel is analysed as the compiler reads it: the header the
    running package renders, then the source under the project root.
    Returns ``{relpath: KernelReport}`` (see
    :class:`repro.lint.certify.interp.KernelReport`); memoised on the
    project so the two C passes share one fixpoint run.
    """
    cache = getattr(project, "_certify_reports", None)
    if cache is None:
        from repro.lint.certify.interp import analyse_kernel
        cache = {}
        for contract in kernel_contracts():
            source = project.read_text(contract.path)
            if source is None:
                continue
            extract = project.c_extract(contract.path,
                                        kernel_header(contract))
            project.count_parse(contract.path, "c-unit")
            cache[contract.path] = analyse_kernel(source, contract, extract)
        project._certify_reports = cache
    return cache
