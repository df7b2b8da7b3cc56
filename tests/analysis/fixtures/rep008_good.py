"""REP008 fixture: every guarded write provably under the mutex.

``_bump_locked`` carries no annotation: the must-entry analysis proves
every caller holds the mutex.  ``_clear_locked`` shifts the proof to
its callers with ``# requires-lock:`` and they comply.
"""

import threading


class SafeTally:
    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.count = 0  # guarded-by: _mutex

    def bump(self) -> None:
        with self._mutex:
            self.count += 1

    def double_bump(self) -> None:
        with self._mutex:
            self._bump_locked()
            self._bump_locked()

    def _bump_locked(self) -> None:
        self.count += 1

    def _clear_locked(self) -> None:  # requires-lock: _mutex
        self.count = 0

    def clear(self) -> None:
        with self._mutex:
            self._clear_locked()

    def scoped_clear(self) -> None:
        with _MutexScope(self):
            self._clear_locked()


class _MutexScope:
    """A class-based context manager: holds what ``__enter__`` acquires."""

    def __init__(self, tally: SafeTally) -> None:
        self._tally = tally

    def __enter__(self) -> None:
        self._tally._mutex.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self._tally._mutex.release()
