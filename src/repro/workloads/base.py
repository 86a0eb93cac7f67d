"""Emitter and generator base class for synthetic workloads.

An :class:`Emitter` wraps a :class:`~repro.trace.builder.TraceBuilder`
with a program counter, so generators read like tiny assemblers: each
helper appends one dynamic instruction at the current PC and advances
it, and control transfers move the PC the way the fetch stream would.

A :class:`SyntheticWorkload` repeatedly emits *transactions* until the
requested trace length is reached.  Transactions are the steady-state
unit of all three commercial workloads the paper uses (Section 4.2
notes they are "transaction-oriented and do not exhibit phase changes"),
which is what makes short synthetic traces representative.
"""

import random

from repro.isa.registers import REG_NONE
from repro.trace.builder import TraceBuilder
from repro.robustness.errors import ConfigError

#: PC of the first instruction a generator emits.
START_PC = 0x0040_0000


class Emitter:
    """A PC-tracking assembler over a trace builder."""

    def __init__(self, builder, start_pc=START_PC):
        self.builder = builder
        self.pc = start_pc

    def __len__(self):
        return len(self.builder)

    # -- straight-line instructions ---------------------------------------

    def alu(self, dst, src1=REG_NONE, src2=REG_NONE):
        """Append a register computation at the current PC."""
        self.builder.add_alu(self.pc, dst=dst, src1=src1, src2=src2)
        self.pc += 4

    def nop(self):
        """Append a no-operation."""
        self.builder.add_nop(self.pc)
        self.pc += 4

    def load(self, dst, addr, src1=REG_NONE, src2=REG_NONE, value=0):
        """Append a load of *addr* (address regs *src1*/*src2*)."""
        self.builder.add_load(
            self.pc, dst=dst, addr=addr, src1=src1, src2=src2, value=value
        )
        self.pc += 4

    def store(self, addr, data_src, src1=REG_NONE, src2=REG_NONE, value=0):
        """Append a store of register *data_src* to *addr*."""
        self.builder.add_store(
            self.pc, addr=addr, data_src=data_src, src1=src1, src2=src2,
            value=value,
        )
        self.pc += 4

    def prefetch(self, addr, src1=REG_NONE):
        """Append a software prefetch of *addr*."""
        self.builder.add_prefetch(self.pc, addr=addr, src1=src1)
        self.pc += 4

    def cas(self, dst, addr, src1=REG_NONE, data_src=REG_NONE, value=0):
        """Append a compare-and-swap (serializing atomic)."""
        self.builder.add_cas(
            self.pc, dst=dst, addr=addr, src1=src1, data_src=data_src,
            value=value,
        )
        self.pc += 4

    def ldstub(self, dst, addr, src1=REG_NONE, value=0):
        """Append an LDSTUB (serializing atomic)."""
        self.builder.add_ldstub(self.pc, dst=dst, addr=addr, src1=src1,
                                value=value)
        self.pc += 4

    def membar(self):
        """Append a memory barrier."""
        self.builder.add_membar(self.pc)
        self.pc += 4

    # -- control transfers ---------------------------------------------------

    def branch(self, taken, target, src1=REG_NONE, src2=REG_NONE):
        """Conditional branch; moves the PC along the actual path."""
        self.builder.add_branch(
            self.pc, taken=taken, target=target, src1=src1, src2=src2
        )
        self.pc = target if taken else self.pc + 4

    def jump(self, target):
        """Unconditional transfer (always-taken branch)."""
        self.builder.add_branch(self.pc, taken=True, target=target)
        self.pc = target

    def call_block(self, base):
        """Jump to a fixed code block; return the PC to jump back to.

        The synthetic generators keep every dynamic instruction at a
        stable static address (real steady-state code does), expressing
        randomness only through branch outcomes, loop trip counts and
        data addresses.  ``call_block``/``jump(ret)`` is the call/return
        idiom for their fixed *motif blocks*.
        """
        ret = self.pc + 4
        self.jump(base)
        return ret


class SyntheticWorkload:
    """Base class for the synthetic workload generators.

    Subclasses set :attr:`name` and implement :meth:`setup` (build the
    static program: regions, code templates, site models) and
    :meth:`emit_transaction` (append one transaction's dynamic
    instructions).
    """

    name = "synthetic"

    def __init__(self, seed=1234):
        self.seed = seed

    def setup(self, rng):
        """Build per-run static state; called once per :meth:`generate`."""
        raise NotImplementedError

    def emit_transaction(self, em, rng):
        """Emit one transaction at the emitter's current position."""
        raise NotImplementedError

    def generate(self, length):
        """Generate a trace of exactly *length* dynamic instructions.

        Generation is deterministic in ``(seed, length)``: a fresh RNG is
        used for every call.  The three paper workloads run their
        transactions in the compiled generator
        (:mod:`repro.workloads.ckernel`) when it can; every other
        workload, and every input outside its contract, runs
        :meth:`emit_transaction` here.  Both routes give byte-identical
        traces.
        """
        if length <= 0:
            raise ConfigError("trace length must be positive")
        rng = random.Random(self.seed)
        self.setup(rng)
        # Deferred: ckernel imports the workload subclasses.
        from repro.workloads import ckernel

        trace = ckernel.generate(self, rng, length)
        if trace is not None:
            return trace
        builder = TraceBuilder(name=self.name)
        em = Emitter(builder)
        while len(builder) < length:
            self.emit_transaction(em, rng)
        trace = builder.build()
        if len(trace) > length:
            trace = trace.slice(0, length)
            trace.name = self.name
        return trace
