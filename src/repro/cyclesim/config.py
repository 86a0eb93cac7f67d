"""Configuration of the cycle-accurate simulator."""

import dataclasses

from repro.core.config import IssueConfig, MachineConfig
from repro.robustness.errors import ConfigError

#: The fields that count cycles.
_CYCLE_FIELDS = ("frontend_depth", "alu_latency", "branch_latency",
                 "l1_latency", "l2_latency", "miss_penalty",
                 "redirect_penalty")


@dataclasses.dataclass(frozen=True)
class CycleSimConfig:
    """Timing and structure parameters of the cycle simulator.

    Structure sizes and issue constraints mirror
    :class:`~repro.core.config.MachineConfig`; the timing parameters are
    cyclesim-only (MLPsim is timing-free by design).
    """

    issue: IssueConfig = IssueConfig.from_letter("C")
    issue_window: int = 64
    rob: int = 64
    fetch_buffer: int = 32

    fetch_width: int = 4
    dispatch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    frontend_depth: int = 5
    """Cycles between fetch and dispatch (decode/rename pipeline)."""

    alu_latency: int = 1
    branch_latency: int = 1
    l1_latency: int = 3
    l2_latency: int = 12
    miss_penalty: int = 1000
    """Latency of a long-latency off-chip access, in cycles."""
    redirect_penalty: int = 3
    """Cycles between branch resolution and fetch restart."""

    perfect_l2: bool = False
    """Treat would-be off-chip accesses as L2 hits (measures CPI_perf)."""

    event_skip: bool = True
    """Jump over fully-stalled stretches instead of ticking every cycle.
    Results are identical either way (tested); disable only to verify
    the skipping logic or to trace cycle-by-cycle behaviour."""

    def __post_init__(self):
        # No machine has a width or a structure below 1 or a negative
        # cycle count: the lower bounds of the kernel's config ranges.
        # The frozen reference (which imports this module) keeps time
        # below its horizon, the value that stands for "never": a
        # latency that reaches it cannot be simulated.
        from repro.cyclesim.plan import CYCLE_PLAN_CONTRACT
        from repro.cyclesim.simulator_reference import _NEVER

        for (lo, _), names in CYCLE_PLAN_CONTRACT["structs"]["CycleConfig"]:
            for name in names:
                value = getattr(self, name, lo)
                if value < lo:
                    raise ConfigError(
                        f"{name} must be at least {lo}, not {value}",
                        field=name)
        for name in _CYCLE_FIELDS:
            value = getattr(self, name)
            if value >= _NEVER:
                raise ConfigError(
                    f"{value} cycles is not below the cycle simulator's"
                    f" horizon of {_NEVER}", field=name)
        if self.rob < self.issue_window:
            raise ConfigError("the ROB cannot be smaller than the issue window")
        if self.miss_penalty <= self.l2_latency:
            raise ConfigError("off-chip latency must exceed the L2 latency")

    @classmethod
    def from_machine(cls, machine, miss_penalty=1000, **overrides):
        """Build a timing config matching a :class:`MachineConfig`."""
        if machine.runahead:
            raise ConfigError("the cycle simulator does not implement runahead")
        fields = {
            "issue": machine.issue,
            "issue_window": machine.issue_window,
            "rob": machine.rob,
            "fetch_buffer": machine.fetch_buffer,
            "miss_penalty": miss_penalty,
        }
        fields.update(overrides)
        return cls(**fields)

    def machine(self):
        """The window-structure view of this config, for MLPsim parity."""
        return MachineConfig(
            issue=self.issue,
            issue_window=self.issue_window,
            rob=self.rob,
            fetch_buffer=self.fetch_buffer,
        )
