"""Active Threads: the user-level thread runtime (paper section 5, [32][33]).

Threads are "units of (possibly parallel) execution with independent
lifetimes and separate stacks that share the address space"; they block on
the usual synchronisation objects (mutexes, semaphores, barriers,
condition variables) and are scheduled by a pluggable policy.

In this reproduction a thread body is a Python generator that *yields*
:mod:`repro.threads.events` describing its memory and synchronisation
activity; the :class:`repro.threads.runtime.Runtime` interprets those
events against the simulated machine.  This is the Python-feasible
equivalent of Shade forwarding the instruction stream to the paper's cache
simulator -- and the only way to study cache locality from CPython, whose
GIL and lack of placement control make real threads useless for the
purpose (see DESIGN.md).
"""

from repro.threads.errors import DeadlockError, SyncError, ThreadError
from repro.threads.events import (
    Acquire,
    BarrierWait,
    Compute,
    CondBroadcast,
    CondSignal,
    CondWait,
    Join,
    Release,
    SemPost,
    SemWait,
    Sleep,
    Touch,
    Yield,
    touch_region,
)
from repro.threads.runtime import Runtime
from repro.threads.sync import Barrier, Condition, Mutex, Semaphore
from repro.threads.thread import ActiveThread, ThreadState

__all__ = [
    "Acquire",
    "ActiveThread",
    "Barrier",
    "BarrierWait",
    "Compute",
    "CondBroadcast",
    "CondSignal",
    "CondWait",
    "Condition",
    "DeadlockError",
    "Join",
    "Mutex",
    "Release",
    "Runtime",
    "SemPost",
    "SemWait",
    "Semaphore",
    "Sleep",
    "SyncError",
    "ThreadError",
    "ThreadState",
    "Touch",
    "Yield",
    "touch_region",
]
