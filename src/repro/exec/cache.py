"""Content-addressed on-disk cache for experiment work units.

A unit's cache key is a SHA-256 over a *canonical fingerprint* of its
(function, payload) pair plus the package version, so

* re-running the same sweep point returns the stored result instantly,
* changing any configuration field produces a different key, and
* bumping :data:`repro.__version__` invalidates every entry at once.

Fingerprints are computed structurally (dataclass fields, dict items,
array bytes) rather than from ``repr`` or ``hash``, so they are stable
across processes and interpreter runs regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import pickle
import warnings
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISSING = object()


def stable_fingerprint(value: Any) -> str:
    """A deterministic, process-independent text fingerprint of a value.

    Supports the payload vocabulary of the execution engine: primitives,
    enums, dataclasses, mappings, sequences, numpy arrays/scalars, and
    plain objects (fingerprinted by class plus ``__dict__``).  Raises
    ``TypeError`` for values with no stable representation (e.g. open
    file handles) instead of silently keying on a memory address.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return f"{type(value).__name__}:{value!r}"
    if isinstance(value, float):
        return f"float:{value!r}"
    if isinstance(value, enum.Enum):
        return f"enum:{type(value).__name__}.{value.name}"
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"ndarray:{value.dtype}:{value.shape}:{digest}"
    if isinstance(value, np.generic):
        return f"npscalar:{value.dtype}:{value.item()!r}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{field.name}={stable_fingerprint(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, dict):
        items = sorted(
            (stable_fingerprint(key), stable_fingerprint(item))
            for key, item in value.items()
        )
        return "dict{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (tuple, list, frozenset, set)):
        parts = [stable_fingerprint(item) for item in value]
        if isinstance(value, (frozenset, set)):
            parts = sorted(parts)
        return f"{type(value).__name__}[" + ",".join(parts) + "]"
    if callable(value) and hasattr(value, "__qualname__"):
        return f"callable:{value.__module__}.{value.__qualname__}"
    if hasattr(value, "__dict__"):
        state = sorted(
            (name, stable_fingerprint(attr))
            for name, attr in vars(value).items()
            if not name.startswith("__")
        )
        body = ",".join(f"{name}={fp}" for name, fp in state)
        return f"object:{type(value).__qualname__}({body})"
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r} for caching; "
        "use dataclass/primitive payloads"
    )


def cache_key(
    function: Callable[[Any], Any], payload: Any, *, version: str | None = None
) -> str:
    """Cache key of one work unit: hash of (function, payload, version)."""
    if version is None:
        import repro

        version = repro.__version__
    text = "|".join(
        [
            f"{function.__module__}.{function.__qualname__}",
            stable_fingerprint(payload),
            f"version={version}",
        ]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-backed result store under ``root/<key[:2]>/<key>.pkl``.

    Writes are atomic (temp file + rename) so concurrent workers and
    interrupted runs never leave a partially written entry; unreadable
    entries are treated as misses and overwritten on the next put.
    """

    def __init__(self, root: str | Path):
        self._root = Path(root)
        if self._root.exists() and not self._root.is_dir():
            raise ValueError(f"cache directory {self._root} is not a directory")

    @property
    def root(self) -> Path:
        return self._root

    def path_for(self, key: str) -> Path:
        return self._root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """The stored value, or :data:`MISSING` when absent/corrupt.

        A missing entry is a silent miss; an entry that exists but
        cannot be read back (truncated pickle, bad permissions, a class
        that no longer unpickles) is reported with a
        :class:`RuntimeWarning` and treated as a miss — the next
        :meth:`put` overwrites it — so a damaged cache degrades to
        recomputation instead of failing the run.
        """
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return MISSING
        except Exception as error:  # noqa: BLE001 - any damage means a miss
            warnings.warn(
                f"discarding unreadable cache entry {path}: "
                f"{type(error).__name__}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
            return MISSING

    def put(self, key: str, value: Any) -> Path:
        """Store a value; returns the entry's path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_suffix(f".tmp.{id(self)}")
        with temporary.open("wb") as handle:
            pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
        temporary.replace(path)
        return path

    def __len__(self) -> int:
        if not self._root.exists():
            return 0
        return sum(1 for _ in self._root.glob("*/*.pkl"))
