"""A memo that builds each value once, also under threads.

Worker threads (``--workers``) share the pair-propagator cache of
:mod:`spinchain.dynamics`. A plain dict lets two threads that miss the
same key both run the build (a 1000-step RK4); :class:`BuildOnce` runs it
once and hands the other thread the same value.
"""

from __future__ import annotations

import threading

_MISSING = object()


class BuildOnce:
    """Values by key, each built by the first caller that misses it.

    Builds run under one lock, so concurrent misses on a key wait for a
    single build. Hits take no lock. A build that raises stores nothing;
    the next caller builds again.
    """

    def __init__(self):
        self._values: dict = {}
        self._lock = threading.Lock()

    def get(self, key, build):
        """The value for ``key``, calling ``build()`` on the first miss."""
        value = self._values.get(key, _MISSING)
        if value is not _MISSING:
            return value
        with self._lock:
            value = self._values.get(key, _MISSING)
            if value is _MISSING:
                value = self._values[key] = build()
        return value
