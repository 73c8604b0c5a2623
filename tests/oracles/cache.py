"""Per-access LRU cache models: the reference the replay kernels match.

:mod:`repro.machines.kernels` replays whole streams with batch
reuse-distance algorithms, carrying cache state as a resident array.
These classes state the same model one key at a time: an ``OrderedDict``
per set, ``move_to_end`` on a hit, ``popitem(last=False)`` to evict the
LRU entry.  Keys map to set ``key & (nsets - 1)``; :meth:`resident` lists
the content grouped by ascending set, LRU first within each set, which is
the kernels' resident format.

``accesses`` counts the stream before run collapsing, matching what
per-access :meth:`access` calls would count.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.machines.kernels import collapse_runs


class SetAssocCache:
    """``nsets`` power-of-two sets of ``assoc`` LRU ways."""

    def __init__(self, nsets: int, assoc: int):
        if nsets <= 0 or nsets & (nsets - 1):
            raise ValueError("nsets must be a positive power of two")
        if assoc <= 0:
            raise ValueError("assoc must be positive")
        self.nsets = nsets
        self.assoc = assoc
        self.misses = 0
        self.accesses = 0
        self.evictions = 0
        self.flush()

    @property
    def capacity(self) -> int:
        return self.nsets * self.assoc

    def flush(self) -> None:
        self._sets = [OrderedDict() for _ in range(self.nsets)]

    def __contains__(self, key: int) -> bool:
        return key in self._sets[key & (self.nsets - 1)]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def access(self, key: int) -> bool:
        """Touch one key; returns True on hit."""
        self.accesses += 1
        s = self._sets[key & (self.nsets - 1)]
        if key in s:
            s.move_to_end(key)
            return True
        self.misses += 1
        s[key] = None
        if len(s) > self.assoc:
            s.popitem(last=False)
            self.evictions += 1
        return False

    def access_stream(self, keys: np.ndarray, *, collapse: bool = True) -> int:
        """Replay a reference stream; returns the number of misses added."""
        keys = np.asarray(keys, dtype=np.int64)
        stream = collapse_runs(keys) if collapse else keys
        self.accesses += keys.shape[0]
        sets, mask, assoc = self._sets, self.nsets - 1, self.assoc
        misses = evictions = 0
        for key in stream.tolist():
            s = sets[key & mask]
            if key in s:
                s.move_to_end(key)
            else:
                misses += 1
                s[key] = None
                if len(s) > assoc:
                    s.popitem(last=False)
                    evictions += 1
        self.misses += misses
        self.evictions += evictions
        return misses

    def invalidate(self, keys: np.ndarray) -> int:
        """Remove keys (directory invalidation); returns how many were present."""
        return self.invalidate_present(keys).shape[0]

    def invalidate_present(self, keys: np.ndarray) -> np.ndarray:
        """Remove ``keys``; return the distinct ones that were present."""
        sets, mask = self._sets, self.nsets - 1
        removed = []
        for key in np.unique(np.asarray(keys, dtype=np.int64)).tolist():
            s = sets[key & mask]
            if key in s:
                del s[key]
                removed.append(key)
        return np.array(removed, dtype=np.int64)

    def resident(self) -> np.ndarray:
        """Cached keys grouped by set, LRU first within each set."""
        return np.array([k for s in self._sets for k in s], dtype=np.int64)


class LRUCache(SetAssocCache):
    """Fully-associative LRU cache of ``capacity`` entries (one set)."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        super().__init__(1, capacity)

    def access_stream(self, keys: np.ndarray, *, collapse: bool = True) -> int:
        """Replay a reference stream; returns the number of misses added.

        The same loop as :meth:`SetAssocCache.access_stream` without the
        per-key set lookup, so the benchmarks time a plain LRU loop.
        """
        keys = np.asarray(keys, dtype=np.int64)
        stream = collapse_runs(keys) if collapse else keys
        self.accesses += keys.shape[0]
        entries, capacity = self._sets[0], self.assoc
        move, pop = entries.move_to_end, entries.popitem
        misses = evictions = 0
        for key in stream.tolist():
            if key in entries:
                move(key)
            else:
                misses += 1
                entries[key] = None
                if len(entries) > capacity:
                    pop(last=False)
                    evictions += 1
        self.misses += misses
        self.evictions += evictions
        return misses
