"""REP008 fixture: guarded field written bare + unmet requires-lock call."""

import threading


class Tally:
    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.count = 0  # guarded-by: _mutex

    def bump(self) -> None:
        self.count += 1

    def _reset_locked(self) -> None:  # requires-lock: _mutex
        self.count = 0

    def reset(self) -> None:
        self._reset_locked()

    def scoped_reset(self) -> None:
        with _NoScope(self):
            self._reset_locked()


class _NoScope:
    """A context manager class whose ``__enter__`` takes no lock."""

    def __init__(self, tally: Tally) -> None:
        self._tally = tally

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None
