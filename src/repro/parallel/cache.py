"""The content-addressed shard-result cache.

A shard's result is a pure function of ``(callable path, params)`` --
that is the contract the whole parallel engine rests on -- so a result
can be *addressed by content*: the fingerprint of a shard is

    sha256(callable path || canonical(params) || code version)

and a result stored under that fingerprint is valid until any of the
three change.  ``canonical`` is a deterministic recursive encoding
(sorted dict keys, dataclasses by field name, sets sorted), so two
shards with equal parameters fingerprint identically regardless of
construction order.  The code version is conservative: a hash of every
``.py`` file under the installed ``repro`` package, so *any* source
change invalidates the whole cache rather than risking a stale result
(docs/PARALLEL.md discusses the trade-off).

This is what makes campaigns resumable: a killed run re-executes only
the cells whose results never made it to disk, and a warm re-run of an
unchanged campaign executes zero cells (asserted by the cache tests
and the warm-cache campaign test in ``tests/parallel/test_golden.py``).

Failure semantics: the cache *never* turns a run into a failure.  An
unreadable or corrupt entry is a miss; an unwritable store is dropped
(the result is still returned to the caller).  Only ok results are
cached -- failures must re-execute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from typing import Any, Iterator, Optional, Tuple

from repro.parallel.shard import Shard

_CODE_VERSION_CACHE: Optional[str] = None


def _canonical_parts(value: Any) -> Iterator[str]:
    """Yield a deterministic token stream for ``value``.

    Every container is emitted with explicit delimiters and sorted
    where the source order is not meaningful, so equal values always
    produce equal streams and different shapes cannot collide.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        yield f"{type(value).__name__}:{value!r};"
    elif isinstance(value, float):
        # repr round-trips floats exactly in py>=3.1
        yield f"float:{value!r};"
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        yield f"dc:{type(value).__qualname__}("
        for f in dataclasses.fields(value):
            yield f"{f.name}="
            for part in _canonical_parts(getattr(value, f.name)):
                yield part
        yield ");"
    elif isinstance(value, (list, tuple)):
        yield f"{type(value).__name__}["
        for item in value:
            for part in _canonical_parts(item):
                yield part
        yield "];"
    elif isinstance(value, (set, frozenset)):
        yield "set["
        for token in sorted(
            "".join(_canonical_parts(item)) for item in value
        ):
            yield token
        yield "];"
    elif isinstance(value, dict):
        yield "dict{"
        entries = sorted(
            (
                "".join(_canonical_parts(key)),
                "".join(_canonical_parts(val)),
            )
            for key, val in value.items()
        )
        for key_token, val_token in entries:
            yield key_token
            yield "->"
            yield val_token
        yield "};"
    else:
        # last resort for opaque-but-picklable values: the pickle bytes.
        # Stable for a fixed code version (which the fingerprint already
        # includes), which is the only validity window the cache claims.
        blob = pickle.dumps(value, protocol=4)
        yield f"pickle:{type(value).__qualname__}:"
        yield hashlib.sha256(blob).hexdigest()
        yield ";"


def canonical_params(shard: Shard) -> str:
    """The canonical encoding of a shard's parameter mapping."""
    return "".join(_canonical_parts(dict(shard.params)))


def code_version(package_root: Optional[str] = None) -> str:
    """Hash of every ``.py`` source file under the ``repro`` package.

    Deliberately coarse: a shard's result can depend on any module the
    callable transitively imports, so the only *safe* invalidation unit
    is the whole tree.  The walk is a few milliseconds and the digest is
    memoized per process.
    """
    global _CODE_VERSION_CACHE
    if package_root is None:
        if _CODE_VERSION_CACHE is not None:
            return _CODE_VERSION_CACHE
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    else:
        root = package_root
    digest = hashlib.sha256()
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as fh:
                digest.update(fh.read())
    result = digest.hexdigest()
    if package_root is None:
        _CODE_VERSION_CACHE = result
    return result


def shard_fingerprint(shard: Shard, version: Optional[str] = None) -> str:
    """The shard's content address: hash(fn path, params, code version)."""
    if version is None:
        version = code_version()
    digest = hashlib.sha256()
    digest.update(shard.fn.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_params(shard).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(version.encode("utf-8"))
    return digest.hexdigest()


class ResultCache:
    """Disk-persisted map from shard fingerprint to shard value.

    Entries live at ``<root>/<fp[:2]>/<fp>.pkl`` (two-level fan-out so
    big campaigns do not pile thousands of files into one directory);
    writes go through a temp file + ``os.replace`` so a killed run can
    never leave a half-written entry that later reads as a result.
    """

    def __init__(self, root: str, version: Optional[str] = None) -> None:
        self.root = root
        self.version = version if version is not None else code_version()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, fingerprint: str) -> str:
        return os.path.join(
            self.root, fingerprint[:2], fingerprint + ".pkl"
        )

    def lookup(self, shard: Shard) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        A corrupt, truncated, or unreadable entry is a miss -- the cache
        degrades to re-execution, never to failure.
        """
        path = self._path(shard_fingerprint(shard, self.version))
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            value = entry["value"]
        except (OSError, pickle.UnpicklingError, KeyError, EOFError,
                AttributeError, ImportError, IndexError):
            self.misses += 1
            return (False, None)
        self.hits += 1
        return (True, value)

    def store(self, shard: Shard, value: Any) -> None:
        """Persist one ok result; failures to write are swallowed."""
        path = self._path(shard_fingerprint(shard, self.version))
        entry = {"key": shard.key, "fn": shard.fn, "value": value}
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(
                        entry, fh, protocol=pickle.HIGHEST_PROTOCOL
                    )
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, TypeError):
            return
        self.stores += 1
