"""Events a thread body yields to the runtime.

A thread body is a generator; each yielded event describes one atomic
chunk of activity.  :class:`Touch` carries *virtual* cache-line numbers;
:class:`Compute` carries an instruction count; the remaining events are
the synchronisation vocabulary of Active Threads (mutexes, semaphores,
barriers, condition variables, join, yield, and timed sleep -- the last
used by the `tasks` benchmark's wake/touch/block cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.machine.address import Region
    from repro.threads.sync import Barrier, Condition, Mutex, Semaphore


class Event:
    """Marker base class for thread events."""

    __slots__ = ()


@dataclass(frozen=True)
class Touch(Event):
    """Read or write a batch of data lines (virtual line numbers)."""

    lines: np.ndarray
    write: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "lines", np.asarray(self.lines, dtype=np.int64)
        )


@dataclass(frozen=True)
class Compute(Event):
    """Execute ``instructions`` non-memory instructions."""

    instructions: int

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise ValueError("instruction count must be non-negative")


@dataclass(frozen=True)
class Acquire(Event):
    """Acquire a mutex (blocks if held)."""

    mutex: "Mutex"


@dataclass(frozen=True)
class Release(Event):
    """Release a held mutex."""

    mutex: "Mutex"


@dataclass(frozen=True)
class SemWait(Event):
    """Semaphore P operation (blocks at zero)."""

    semaphore: "Semaphore"


@dataclass(frozen=True)
class SemPost(Event):
    """Semaphore V operation."""

    semaphore: "Semaphore"


@dataclass(frozen=True)
class BarrierWait(Event):
    """Wait at a barrier until all parties arrive."""

    barrier: "Barrier"


@dataclass(frozen=True)
class CondWait(Event):
    """Release ``mutex``, wait on ``condition``, reacquire before resuming."""

    condition: "Condition"
    mutex: "Mutex"


@dataclass(frozen=True)
class CondSignal(Event):
    """Wake one waiter of a condition variable."""

    condition: "Condition"


@dataclass(frozen=True)
class CondBroadcast(Event):
    """Wake all waiters of a condition variable."""

    condition: "Condition"


@dataclass(frozen=True)
class Join(Event):
    """Block until thread ``tid`` finishes (no-op if it already has)."""

    tid: int


@dataclass(frozen=True)
class Yield(Event):
    """Voluntarily end the scheduling interval; stay runnable."""


@dataclass(frozen=True)
class Sleep(Event):
    """Block for ``cycles`` simulated cycles, then become runnable."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError("sleep duration must be positive")


def touch_region(
    region: "Region",
    write: bool = False,
    start_line: int = 0,
    count: Optional[int] = None,
) -> Touch:
    """A :class:`Touch` sweeping (part of) a region, line by line."""
    if count is None:
        count = region.num_lines - start_line
    return Touch(lines=region.line_slice(start_line, count), write=write)
