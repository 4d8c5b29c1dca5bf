"""A low-priority probe of the CPU's speed during a measurement.

The machine is shared with other tenants. The same work can take 20–30%
more CPU time when their load slows the host core, and that load drifts
over seconds to minutes, so CPU times of identical passes scatter. A
:class:`SpeedProbe` is a forked process that runs a fixed pure-Python loop
at nice 19 on the same CPU as the measured process. It gets about 1.5% of
that CPU, in short slices spread over the whole measurement, so it samples
the core's speed at the same moments as the measured work. ``stop`` returns
the loop's speed in units per CPU second; scaling a measured CPU time by
``speed / REFERENCE_SPEED`` gives the CPU time at the reference speed.

Call :func:`pin_to_one_cpu` first, so that the probe, which inherits the
affinity, shares the measured process's CPU.
"""
from __future__ import annotations

import ctypes
import os
import signal
import time

# probe units per CPU second; near the typical speed of the 2-vCPU VM
# described in README.md, so reference seconds read close to CPU seconds there
REFERENCE_SPEED = 17_000.0
_BATCH = 4  # units between checks for the stop signal, about 0.2 ms


def _unit() -> int:
    counts = {}
    for i in range(300):
        counts[i & 63] = counts.get(i & 63, 0) + i
    return len(set(range(0, 400, 3)) & set(range(0, 400, 5)))


def pin_to_one_cpu() -> None:
    """Bind this process, and every process it forks later, to one CPU."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or affinity is not ours to set
        pass


def die_with_parent() -> None:
    """Ask Linux to end this process when its parent ends (no-op elsewhere)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def _probe(write_end: int) -> None:
    code = 1
    try:
        die_with_parent()
        os.nice(19)
        stop = []
        signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        units, cpu0 = 0, time.process_time()
        while not stop:
            for _ in range(_BATCH):
                _unit()
            units += _BATCH
        os.write(write_end, f"{units} {time.process_time() - cpu0!r}".encode())
        code = 0
    finally:
        os._exit(code)


class SpeedProbe:
    """Starts the probe process; :meth:`stop` ends it and returns its speed."""

    def __init__(self):
        read_end, write_end = os.pipe()
        # SIGTERM stays blocked until the probe has its handler, so an early
        # stop cannot kill it before it reports
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            self._pid = os.fork()
            if self._pid == 0:
                os.close(read_end)
                _probe(write_end)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)
        os.close(write_end)
        self._read_end = read_end

    def stop(self) -> float:
        os.kill(self._pid, signal.SIGTERM)
        with os.fdopen(self._read_end, "rb") as fh:
            data = fh.read()
        os.waitpid(self._pid, 0)
        self._pid = None
        if not data:
            raise RuntimeError("the speed probe ended without a result")
        units, cpu = data.split()
        if int(units) == 0 or float(cpu) <= 0.0:
            raise RuntimeError("the speed probe got no CPU time")
        return int(units) / float(cpu)

    def close(self) -> None:
        """End the probe, if it still runs, and wait for it; for exit paths."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            os.close(self._read_end)
            self._pid = None
