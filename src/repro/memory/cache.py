"""Set-associative cache with true LRU replacement and write-back lines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import CacheConfig


@dataclass
class CacheStats:
    """Access counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    fills: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.fills = 0


class Cache:
    """A set-associative, write-back, write-allocate cache.

    Each set is an ordered list of (tag, dirty) pairs, most recent last.
    ``probe`` checks residency without side effects; ``access`` performs a
    lookup with LRU update; ``fill`` installs a line, returning the victim
    tag if a dirty line was evicted.
    """

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.config = config
        self.stats = CacheStats()
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._n_sets = config.n_sets
        self._index_mask = self._n_sets - 1
        self._index_bits = self._n_sets.bit_length() - 1
        # set index -> list of [tag, dirty] entries, LRU first.
        self._sets: List[List[List[int]]] = [[] for _ in range(self._n_sets)]

    def line_of(self, addr: int) -> int:
        """The line-aligned address containing ``addr``."""
        return addr >> self._offset_bits << self._offset_bits

    def _split(self, addr: int) -> Tuple[int, int]:
        line = addr >> self._offset_bits
        return line & self._index_mask, line >> self._index_bits

    def probe(self, addr: int) -> bool:
        """Is the line containing ``addr`` resident?  No LRU update."""
        index, tag = self._split(addr)
        return any(entry[0] == tag for entry in self._sets[index])

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; return True on hit.  Misses do NOT fill."""
        stats = self.stats
        stats.accesses += 1
        line = addr >> self._offset_bits
        tag = line >> self._index_bits
        ways = self._sets[line & self._index_mask]
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                ways.append(ways.pop(i))
                if is_write:
                    entry[1] = 1
                stats.hits += 1
                return True
        stats.misses += 1
        return False

    def fill(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Install the line containing ``addr``.

        Returns the line address of an evicted *dirty* victim (which the
        hierarchy turns into writeback traffic), or ``None``.
        """
        self.stats.fills += 1
        index, tag = self._split(addr)
        ways = self._sets[index]
        for i, entry in enumerate(ways):
            if entry[0] == tag:  # already present (e.g. racing fills)
                ways.append(ways.pop(i))
                if dirty:
                    entry[1] = 1
                return None
        victim_line = None
        if len(ways) >= self.config.assoc:
            victim = ways.pop(0)
            if victim[1]:
                self.stats.writebacks += 1
                n_index_bits = self._index_bits
                victim_line = (
                    (victim[0] << n_index_bits | index) << self._offset_bits
                )
        ways.append([tag, 1 if dirty else 0])
        return victim_line

    def invalidate_all(self) -> None:
        """Flush the cache."""
        self._sets = [[] for _ in range(self._n_sets)]

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)
