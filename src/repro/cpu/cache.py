"""Shared last-level cache model (paper Table II: 8 MB, 8-way, 64 B lines).

A plain set-associative write-back, write-allocate cache with LRU
replacement.  The LLC filters the CPU's access stream into the DRAM row
activations that drive every QPRAC result; hit latency and miss traffic
are what matter, so no coherence or inclusion machinery is modelled.

:class:`SetAssociativeCache` is the per-access model the event engine's
cores drive; :func:`filter_stream` runs a whole access stream through
the same cache at once, decision for decision, for the epoch engine.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import ConfigError


def _num_sets(size_bytes: int, ways: int, line_size: int) -> int:
    """Validate a cache geometry and return its number of sets."""
    if size_bytes <= 0 or ways <= 0 or line_size <= 0:
        raise ConfigError("cache geometry values must be positive")
    if size_bytes % (ways * line_size) != 0:
        raise ConfigError(
            "cache size must be divisible by ways * line_size"
        )
    num_sets = size_bytes // (ways * line_size)
    if num_sets & (num_sets - 1):
        raise ConfigError("number of sets must be a power of two")
    if line_size & (line_size - 1):
        raise ConfigError("line size must be a power of two")
    return num_sets


class SetAssociativeCache:
    """LRU set-associative cache keyed by line address."""

    def __init__(self, size_bytes: int, ways: int, line_size: int) -> None:
        self.num_sets = _num_sets(size_bytes, ways, line_size)
        self.ways = ways
        self.line_size = line_size
        self._offset_bits = line_size.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._set_bits = self.num_sets.bit_length() - 1
        # One OrderedDict per set: {tag: dirty}; LRU = insertion order.
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr >> self._offset_bits
        return line & self._set_mask, line >> self._set_bits

    def access(self, addr: int, is_write: bool) -> tuple[bool, int | None]:
        """Access one address.

        Returns ``(hit, writeback_addr)``; ``writeback_addr`` is the
        physical address of a dirty victim that must be written to DRAM,
        or None.
        """
        line = addr >> self._offset_bits
        set_index = line & self._set_mask
        tag = line >> self._set_bits
        ways = self._sets[set_index]
        if tag in ways:
            self.hits += 1
            ways.move_to_end(tag)
            if is_write:
                ways[tag] = True
            return True, None
        self.misses += 1
        writeback = None
        if len(ways) >= self.ways:
            victim_tag, dirty = ways.popitem(last=False)
            if dirty:
                self.writebacks += 1
                victim_line = (victim_tag << self._set_bits) | set_index
                writeback = victim_line << self._offset_bits
        ways[tag] = is_write
        return False, writeback

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def occupancy(self) -> int:
        """Number of resident lines (tests use this)."""
        return sum(len(ways) for ways in self._sets)


def filter_stream(addrs, writes, size_bytes: int, ways: int,
                  line_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Run a whole access stream through a cold LRU cache at once.

    Decision-identical to one :meth:`SetAssociativeCache.access` call
    per ``(addr, is_write)`` pair, in order, on a fresh cache of the
    same geometry.  Returns ``(miss_mask, writeback_addrs)``:
    ``miss_mask[i]`` is True when access ``i`` misses, and
    ``writeback_addrs[i]`` is the address of the dirty victim that miss
    writes back, or -1.

    LRU state is per set, so the work splits by set.  A set whose
    distinct lines over the whole stream number ``ways`` or fewer never
    evicts: an access to it misses exactly when it is its line's first
    access, and never writes back.  That closed form covers every such
    set at once; only the accesses to sets that overflow replay through
    a per-set LRU, in stream order.  The cost therefore tracks the share
    of accesses that land in overflowing sets, not the stream length.
    """
    num_sets = _num_sets(size_bytes, ways, line_size)
    set_mask = num_sets - 1
    offset_bits = line_size.bit_length() - 1
    lines = np.asarray(addrs, dtype=np.int64) >> offset_bits
    writes = np.asarray(writes, dtype=bool)
    distinct, first = np.unique(lines, return_index=True)
    miss = np.zeros(len(lines), dtype=bool)
    miss[first] = True
    writeback = np.full(len(lines), -1, dtype=np.int64)
    overflow = np.bincount(distinct & set_mask, minlength=num_sets) > ways
    if not overflow.any():
        return miss, writeback

    hot = np.flatnonzero(overflow[lines & set_mask])
    # One LRU per overflowing set: {line: dirty}, LRU = insertion order
    # (the line is a unique key within its set, so no tag split).
    sets = {s: OrderedDict() for s in np.flatnonzero(overflow).tolist()}
    hot_miss = [True] * len(hot)
    victim_at: list[int] = []
    victim_line: list[int] = []
    for k, (line, is_write) in enumerate(
        zip(lines[hot].tolist(), writes[hot].tolist())
    ):
        resident = sets[line & set_mask]
        if line in resident:
            hot_miss[k] = False
            resident.move_to_end(line)
            if is_write:
                resident[line] = True
            continue
        if len(resident) >= ways:
            victim, dirty = resident.popitem(last=False)
            if dirty:
                victim_at.append(k)
                victim_line.append(victim)
        resident[line] = is_write
    miss[hot] = hot_miss
    if victim_at:
        writeback[hot[victim_at]] = (
            np.asarray(victim_line, dtype=np.int64) << offset_bits
        )
    return miss, writeback
