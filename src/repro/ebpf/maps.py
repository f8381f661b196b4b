"""eBPF maps: hash, array, LPM trie and prog array.

Keys and values are fixed-size byte strings, as in real eBPF. The LinuxFP
design deliberately avoids using maps for *kernel state* (state is reached
through helpers), so no synthesized fast path owns a data map; maps remain
for the dispatch machinery (prog arrays for atomic fast-path swaps and
tail-call chains) and for the Polycube baseline, which keeps its own
map-based state.

Every rejected fast-path update is counted in ``update_errors``, so
overload is visible rather than silent.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.netsim.addresses import IPv4Addr, PrefixTable
from repro.testing import faults


class MapError(ValueError):
    """Raised for invalid map operations."""


class BpfMap:
    """Base class: fixed key/value sizes, bounded entry count."""

    map_type = "generic"
    #: Whether the generic byte-oriented map helpers (``map_read`` /
    #: ``map_update``) may touch this map.
    #: Prog arrays and classifier handles hold control-plane objects, not
    #: byte values — the verifier rejects generic access to them statically.
    byte_addressable = True

    def __init__(self, name: str, key_size: int, value_size: int, max_entries: int) -> None:
        if key_size <= 0 or value_size <= 0 or max_entries <= 0:
            raise MapError("map dimensions must be positive")
        self.name = name
        self.key_size = key_size
        self.value_size = value_size
        self.max_entries = max_entries
        #: Rejected updates (full map, bad key shape, injected fault) —
        #: every fast-path update failure is counted, never silent.
        self.update_errors = 0

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise MapError(f"{self.name}: key must be {self.key_size} bytes, got {len(key)}")

    def _check_value(self, value: bytes) -> None:
        if len(value) != self.value_size:
            raise MapError(f"{self.name}: value must be {self.value_size} bytes, got {len(value)}")

    def lookup(self, key: bytes) -> Optional[bytes]:
        raise NotImplementedError

    def update(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError


class HashMap(BpfMap):
    map_type = "hash"

    def __init__(self, name: str, key_size: int, value_size: int, max_entries: int = 1024) -> None:
        super().__init__(name, key_size, value_size, max_entries)
        self._data: Dict[bytes, bytes] = {}

    def lookup(self, key: bytes) -> Optional[bytes]:
        self._check_key(key)
        return self._data.get(key)

    def update(self, key: bytes, value: bytes) -> None:
        faults.fire("map_update", self.name)
        self._check_key(key)
        self._check_value(value)
        if key not in self._data and len(self._data) >= self.max_entries:
            raise MapError(f"{self.name}: map full ({self.max_entries})")  # -E2BIG
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)


class ArrayMap(BpfMap):
    map_type = "array"

    def __init__(self, name: str, value_size: int, max_entries: int) -> None:
        super().__init__(name, 4, value_size, max_entries)
        self._slots: List[bytes] = [b"\x00" * value_size for _ in range(max_entries)]

    def _index(self, key: bytes) -> int:
        self._check_key(key)
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            raise MapError(f"{self.name}: index {index} out of range")
        return index

    def lookup(self, key: bytes) -> Optional[bytes]:
        # Real BPF array lookup with an out-of-range index returns NULL,
        # not an error — only *writes* reject with -E2BIG.
        self._check_key(key)
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            return None
        return self._slots[index]

    def update(self, key: bytes, value: bytes) -> None:
        faults.fire("map_update", self.name)
        self._check_value(value)
        self._slots[self._index(key)] = value


class LpmTrieMap(BpfMap):
    """Longest-prefix-match trie keyed like ``BPF_MAP_TYPE_LPM_TRIE``:
    key = u32 little-endian prefix length + big-endian address bytes."""

    map_type = "lpm_trie"

    def __init__(self, name: str, value_size: int, max_entries: int = 1024) -> None:
        super().__init__(name, 8, value_size, max_entries)
        self._table: PrefixTable[bytes] = PrefixTable()

    @staticmethod
    def make_key(prefix_len: int, addr: IPv4Addr) -> bytes:
        return prefix_len.to_bytes(4, "little") + addr.to_bytes()

    def _parse_key(self, key: bytes):
        self._check_key(key)
        prefix_len = int.from_bytes(key[:4], "little")
        if prefix_len > 32:
            raise MapError(f"{self.name}: bad prefix length {prefix_len}")
        addr = int.from_bytes(key[4:8], "big")
        return prefix_len, addr

    def update(self, key: bytes, value: bytes) -> None:
        faults.fire("map_update", self.name)
        self._check_value(value)
        length, addr = self._parse_key(key)
        if self._table.get(length, addr) is None and len(self._table) >= self.max_entries:
            raise MapError(f"{self.name}: map full")
        self._table.set(length, addr, value)

    def lookup(self, key: bytes) -> Optional[bytes]:
        """Lookup uses the address portion; returns the longest match."""
        __, addr = self._parse_key(key)
        return self._table.longest(addr)

    def delete(self, key: bytes) -> None:
        self._table.pop(*self._parse_key(key))


class ProgArray(BpfMap):
    """Program array for tail calls and atomic fast-path swapping.

    Values are program objects (the loader's handle), not bytes.
    """

    map_type = "prog_array"
    byte_addressable = False

    def __init__(self, name: str, max_entries: int = 16) -> None:
        super().__init__(name, 4, 8, max_entries)
        self._progs: Dict[int, object] = {}

    def set_prog(self, index: int, prog: object) -> None:
        # Clearing a slot (``clear``) never fails, matching real prog-array
        # delete semantics; only installs are a fault site.
        faults.fire("prog_array", self.name)
        if not 0 <= index < self.max_entries:
            raise MapError(f"{self.name}: index {index} out of range")
        self._progs[index] = prog

    def get_prog(self, index: int) -> Optional[object]:
        return self._progs.get(index)

    def clear(self, index: int) -> None:
        self._progs.pop(index, None)

    def lookup(self, key: bytes) -> Optional[bytes]:
        raise MapError("prog arrays are not directly readable")

    def update(self, key: bytes, value: bytes) -> None:
        raise MapError("use set_prog() for prog arrays")
