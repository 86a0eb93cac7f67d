"""The built-in reprolint passes.

Importing this package registers every pass with the framework
registry (each module applies the :func:`repro.lint.framework.register`
decorator at class-definition time).  Add a new pass by dropping a
module here and importing it below — see ``docs/STATIC_ANALYSIS.md``.
"""

from repro.lint.passes import (  # noqa: F401  (imported for registration)
    atomic_writes,
    config_attrs,
    determinism,
    error_hierarchy,
    exhibit_registry,
    frozen_oracle,
    journal_protocol,
    kernel_bounds,
    kernel_overflow,
    resource_paths,
    seed_provenance,
    shm_lifetime,
    signal_safety,
    sweep_race,
    unreachable_code,
)
