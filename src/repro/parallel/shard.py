"""Shards: the unit of deterministic work partitioning.

A shard names a module-level callable by dotted path and carries the
keyword arguments to call it with.  Everything in a shard must pickle
(names and plain values, never closures or live objects), which is what
lets the same shard execute identically inline (``jobs=1``), in a
forked worker, or in a spawned one -- the worker re-resolves the
callable from the path and calls it with the shard's parameters, so a
shard's result is a pure function of ``(fn, params)``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class Shard:
    """One independent cell of a fan-out.

    ``index`` is the shard's position in the *serial* iteration order;
    the merge sorts completed shards by it, which is what makes the
    parallel output bit-identical to the serial run.  ``key`` is a
    stable human-readable id (``faults/merge/lff``) used in progress
    lines and failure reports.
    """

    index: int
    key: str
    #: dotted path of a module-level callable: ``package.module:name``
    fn: str
    #: keyword arguments for the callable; every value must pickle
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class ShardOutcome:
    """What one shard's execution (including retries) produced."""

    shard: Shard
    status: str  # "ok" | "failed"
    value: Any = None
    error: str = ""
    #: executions performed (1 on a clean first run, 0 on a cache hit)
    attempts: int = 1
    #: attempts lost to a worker process dying (vs the shard raising)
    worker_crashes: int = 0
    #: per-attempt audit trail: one entry per *failed* attempt (the
    #: error message), in attempt order -- crash-recovery reports can
    #: show exactly what each retry saw instead of only the final error
    history: Tuple[str, ...] = ()
    #: True when the value came from the result cache without executing
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class ShardError(Exception):
    """Raised when shards failed and partial-results mode is off."""

    def __init__(self, message: str, outcomes: Sequence[ShardOutcome]):
        super().__init__(message)
        #: every outcome of the run, failed shards included
        self.outcomes = list(outcomes)

    @property
    def failed(self) -> Sequence[ShardOutcome]:
        return [o for o in self.outcomes if not o.ok]


def resolve_callable(path: str) -> Callable[..., Any]:
    """Resolve ``package.module:name`` to the callable it names."""
    module_name, sep, attr = path.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"shard callable {path!r} must be 'package.module:name'"
        )
    module = importlib.import_module(module_name)
    target: Any = module
    for part in attr.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise TypeError(f"shard callable {path!r} resolved to non-callable")
    return target  # type: ignore[no-any-return]


def execute_shard(shard: Shard) -> Any:
    """Run one shard to completion in the current process."""
    fn = resolve_callable(shard.fn)
    return fn(**dict(shard.params))
