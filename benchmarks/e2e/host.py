"""Host-speed reference for the end-to-end benchmark.

The benchmark runs on shared virtual machines whose vCPUs slow down by
up to ~60% for minutes at a time when neighbouring machines are busy.
Process CPU time slows with them, so it cannot separate the program's
cost from the host's.  Each timed sample is therefore bracketed by a
fixed pure-Python loop run on both vCPUs at once, and reported scaled by
``REFERENCE_S / (mean loop time around it)``: seconds on the reference
host when it is quiet.  On a quiet reference host the scale is about 1.

Both vCPUs are measured, for serial samples too: on the reference host
a loop on one process tracked the program's speed worse than the mean
of two (see README.md).
"""

import os
import struct
import time

#: Iterations of the reference loop (about 0.2 s on the reference host).
LOOP = 3_000_000

#: Copies run at once: the vCPUs of the reference host.
COPIES = 2

#: Mean loop time of the copies on the reference host (a 2-vCPU x86-64
#: virtual machine, Python 3.11) in a quiet period.
REFERENCE_S = 0.2


def _loop_seconds():
    started = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.perf_counter() - started


def reference_seconds():
    """Mean loop time of ``COPIES`` forked copies run at once."""
    children = []
    for _ in range(COPIES):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            os.write(write_end, struct.pack("d", _loop_seconds()))
            os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    times = []
    for pid, read_end in children:
        data = os.read(read_end, 8)
        os.close(read_end)
        os.waitpid(pid, 0)
        times.append(struct.unpack("d", data)[0])
    return sum(times) / len(times)


def scale(before, after):
    """Factor to reference-host seconds for a sample between two loops."""
    return REFERENCE_S / ((before + after) / 2)
