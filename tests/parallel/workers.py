"""Worker callables for the parallel-engine tests.

Shards name their callables by dotted path, so everything the tests fan
out must be a module-level function in an importable module -- a closure
defined inside a test body has no name a worker process could resolve.

The ``*_once`` helpers coordinate across processes through a flag file
(passed in as a shard parameter): the first call finds no file, records
the attempt, and fails; the retry finds the file and succeeds.
"""

import os
from pathlib import Path

#: deliberately not callable, for resolve_callable's TypeError path
NOT_CALLABLE = 42


def square(x: int) -> int:
    return x * x


def raise_once(flag: str, value: int) -> int:
    """Raise on the first call (per flag file), succeed on the retry."""
    path = Path(flag)
    if not path.exists():
        path.write_text("attempt 1")
        raise RuntimeError("injected first-attempt failure")
    return value


def die_once(flag: str, value: int) -> int:
    """Kill the worker *process* on the first call (no exception, no
    cleanup -- the pool breaks), succeed on the retry.  Never run this
    with ``jobs=1``: inline execution would kill the caller."""
    path = Path(flag)
    if not path.exists():
        path.write_text("attempt 1")
        os._exit(17)
    return value


def always_raise() -> None:
    raise ValueError("boom")


def count_calls(counter: str, value: int) -> int:
    """Append one byte to ``counter`` per execution, then return.

    The cache tests read the file's size to prove a warm re-run
    executed zero cells (append mode is atomic enough across the
    processes these tests spawn).
    """
    with open(counter, "a") as fh:
        fh.write("x")
    return value
