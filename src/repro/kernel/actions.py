"""Actions a coroutine thread body can yield to the kernel.

Attacker code in this reproduction is written as a Python generator
that yields one :class:`Action` per logical step — a userspace
instruction sequence (load, flush, rdtsc-timed load, synthetic
instruction) or a syscall (nanosleep, pause, prctl, timer setup).  The
kernel executes the action against the machine state, charges its cost
to the simulated clock, and ``send``s the result back into the
generator.  This keeps attack code readable top-to-bottom, exactly like
the C it models, while the simulator stays event-driven underneath.

A channel that sweeps a whole set of lines — a Prime+Probe prime or
probe, a Flush+Reload reload or flush, an LLC staller — yields one
:class:`Batch` (:class:`Loads`, :class:`TimedLoads`, :class:`Flushes`)
over a tuple of addresses it builds once.  A batch behaves exactly
like yielding the single action once per address, in order: each
address is charged to the clock on its own, an interrupt may land
between two addresses but never inside one (the body resumes the batch
at the next address), one ``timed_load`` jitter is drawn per address,
and the body counts one executed action per address.  When the last
address has run, the list of per-address results is sent back into the
generator in one go.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.cpu.isa import Instruction


class Action:
    """Marker base class for everything a body may yield."""


# ----------------------------------------------------------------------
# Userspace work (executed inline, costs charged to the running task)
# ----------------------------------------------------------------------
@dataclass
class Compute(Action):
    """Burn ``ns`` of CPU time (serialized ALU work, loop overhead)."""

    ns: float


@dataclass
class Load(Action):
    """Data load; result is the access latency in cycles."""

    addr: int


@dataclass
class TimedLoad(Action):
    """rdtscp-fenced timed load; result is the *measured* latency in
    cycles (true latency + timer overhead + measurement jitter)."""

    addr: int


@dataclass
class Store(Action):
    """Data store (no result)."""

    addr: int


@dataclass
class Flush(Action):
    """clflush: evict the line from the whole hierarchy (no result)."""

    addr: int


@dataclass
class Batch(Action):
    """Base class of the per-address batches below."""

    addrs: Tuple[int, ...]


@dataclass
class Loads(Batch):
    """:class:`Load` of each address in turn; result is the list of
    latencies in cycles."""


@dataclass
class TimedLoads(Batch):
    """:class:`TimedLoad` of each address in turn; result is the list
    of measured latencies in cycles."""


@dataclass
class Flushes(Batch):
    """:class:`Flush` of each address in turn; result is a list of
    ``None``, one per address."""


@dataclass
class ExecInst(Action):
    """Execute one synthetic instruction in the attacker's own address
    space (BTB gadget priming/probing, iTLB eviction-set fetches).
    Result is the instruction's cost in ns."""

    inst: Instruction


@dataclass
class GetTime(Action):
    """Read the clock (rdtsc); result is current time in ns."""


# ----------------------------------------------------------------------
# Syscalls (block or reconfigure; kernel handles at the yield point)
# ----------------------------------------------------------------------
@dataclass
class Nanosleep(Action):
    """Block for ``ns`` nanoseconds (one-shot hrtimer; Method 1)."""

    ns: float


@dataclass
class Pause(Action):
    """Block until a signal (timer expiry) wakes the task (Method 2)."""


@dataclass
class SetTimerSlack(Action):
    """prctl(PR_SET_TIMERSLACK, ns) — unprivileged."""

    ns: float


@dataclass
class TimerCreate(Action):
    """timer_create + timer_settime: a periodic timer firing every
    ``interval_ns`` starting ``first_after_ns`` from now, delivering a
    signal that wakes the task from Pause (Method 2)."""

    interval_ns: float
    first_after_ns: Optional[float] = None


@dataclass
class TimerCancel(Action):
    """Disarm this task's periodic timer."""


@dataclass
class SignalTask(Action):
    """Send a wake-up signal to another task (kill/tgkill): if the
    target is blocked in Pause, it wakes through the normal Scenario 2
    path (placement + preemption check).  No result."""

    target_pid: int


@dataclass
class Exit(Action):
    """Terminate the task."""


#: Result type sent back into generators (latency, timestamp, or None).
ActionResult = Any
