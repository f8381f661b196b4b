"""eBPF maps: hash, LRU hash, array, LPM trie, prog array, and devmap.

Keys and values are fixed-size byte strings, as in real eBPF. The LinuxFP
design deliberately avoids using maps for *kernel state* (state is reached
through helpers); maps remain for the dispatch machinery (prog arrays for
atomic fast-path swaps and tail-call chains, devmaps for redirects), for
custom FPM state, and for the Polycube baseline, which keeps its own
map-based state.

Maps carry a ``schema`` (type + key/value size + ``schema_version``) that
the deployer uses to decide whether accumulated state can migrate into a
redeployed program's maps, and pressure counters (``update_errors``,
``evictions``) so overload is visible as a metric rather than silent.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.netsim.addresses import IPv4Addr
from repro.netsim.cpu import current_cpu
from repro.testing import faults


class MapError(ValueError):
    """Raised for invalid map operations."""


class BpfMap:
    """Base class: fixed key/value sizes, bounded entry count."""

    map_type = "generic"
    #: Whether the generic byte-oriented map helpers (``map_lookup`` /
    #: ``map_read`` / ``map_update`` / ``map_delete``) may touch this map.
    #: Prog arrays and classifier handles hold control-plane objects, not
    #: byte values — the verifier rejects generic access to them statically.
    byte_addressable = True
    #: Per-CPU flavours keep one value slot per logical CPU: fast-path
    #: access is uncontended (no cross-CPU cacheline bounce is charged),
    #: and the control plane aggregates on read.
    percpu = False

    def __init__(
        self,
        name: str,
        key_size: int,
        value_size: int,
        max_entries: int,
        schema_version: int = 1,
    ) -> None:
        if key_size <= 0 or value_size <= 0 or max_entries <= 0:
            raise MapError("map dimensions must be positive")
        self.name = name
        self.key_size = key_size
        self.value_size = value_size
        self.max_entries = max_entries
        #: Bumped by an operator when the *meaning* of the bytes changes even
        #: though the sizes did not; the deployer refuses to migrate state
        #: across differing versions.
        self.schema_version = schema_version
        #: Set by the deployer while the map's state is being migrated into a
        #: successor program's map: writes are refused so the snapshot cannot
        #: tear mid-copy.
        self.frozen = False
        #: Rejected updates (full map, bad key shape, injected fault) —
        #: every fast-path update failure is counted, never silent.
        self.update_errors = 0
        #: Entries displaced to make room (LRU maps only, but kept on the
        #: base class so metrics can walk any map uniformly).
        self.evictions = 0

    def schema(self) -> Tuple[str, int, int, int]:
        """The compatibility tuple the deployer matches for live migration."""
        return (self.map_type, self.key_size, self.value_size, self.schema_version)

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise MapError(f"{self.name}: key must be {self.key_size} bytes, got {len(key)}")

    def _check_value(self, value: bytes) -> None:
        if len(value) != self.value_size:
            raise MapError(f"{self.name}: value must be {self.value_size} bytes, got {len(value)}")

    def _check_frozen(self) -> None:
        if self.frozen:
            raise MapError(f"{self.name}: frozen for state migration")

    def lookup(self, key: bytes) -> Optional[bytes]:
        raise NotImplementedError

    def update(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        raise NotImplementedError

    def items(self) -> List[Tuple[bytes, bytes]]:
        """(key, value) pairs for state migration; [] for stateless maps."""
        return []

    def clone_empty(self) -> "BpfMap":
        """A fresh map with the same schema and no entries (a new program's
        map before the deployer migrates state into it)."""
        raise NotImplementedError


class HashMap(BpfMap):
    map_type = "hash"

    def __init__(
        self,
        name: str,
        key_size: int,
        value_size: int,
        max_entries: int = 1024,
        schema_version: int = 1,
    ) -> None:
        super().__init__(name, key_size, value_size, max_entries, schema_version)
        self._data: Dict[bytes, bytes] = {}

    def lookup(self, key: bytes) -> Optional[bytes]:
        self._check_key(key)
        return self._data.get(key)

    def update(self, key: bytes, value: bytes) -> None:
        faults.fire("map_update", self.name)
        self._check_frozen()
        self._check_key(key)
        self._check_value(value)
        if key not in self._data and len(self._data) >= self.max_entries:
            self._make_room(key)
        self._data[key] = value

    def _make_room(self, key: bytes) -> None:
        """Plain hash maps reject inserts at capacity (``-E2BIG``)."""
        raise MapError(f"{self.name}: map full ({self.max_entries})")

    def delete(self, key: bytes) -> None:
        self._check_frozen()
        self._check_key(key)
        self._data.pop(key, None)

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> List[bytes]:
        return list(self._data)

    def items(self) -> List[Tuple[bytes, bytes]]:
        return list(self._data.items())

    def clone_empty(self) -> "HashMap":
        return type(self)(
            self.name, self.key_size, self.value_size, self.max_entries, self.schema_version
        )


class LruHashMap(HashMap):
    """``BPF_MAP_TYPE_LRU_HASH``: inserting into a full map evicts the
    least-recently-used entry instead of failing.

    Recency follows the kernel's semantics closely enough for the
    simulation: lookups and updates both refresh an entry. This is the map
    type the synthesizer picks for *flow-keyed* state — flow arrival is
    unbounded, so a plain hash map would wedge at ``max_entries`` and every
    later flow's update would fail forever; an LRU map degrades instead
    (old flows age out, the hot set stays resident) and the displacement is
    counted in :attr:`~BpfMap.evictions`.
    """

    map_type = "lru_hash"

    def __init__(
        self,
        name: str,
        key_size: int,
        value_size: int,
        max_entries: int = 1024,
        schema_version: int = 1,
    ) -> None:
        super().__init__(name, key_size, value_size, max_entries, schema_version)
        self._data: "OrderedDict[bytes, bytes]" = OrderedDict()

    @classmethod
    def from_hash(cls, source: HashMap) -> "LruHashMap":
        """Upgrade a plain hash map in place-of: same schema sizes and
        contents, LRU insert semantics (the synthesizer's choice for
        flow-keyed custom state)."""
        lru = cls(
            source.name, source.key_size, source.value_size, source.max_entries,
            source.schema_version,
        )
        for key, value in source.items():
            lru._data[key] = value
        return lru

    def lookup(self, key: bytes) -> Optional[bytes]:
        self._check_key(key)
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def update(self, key: bytes, value: bytes) -> None:
        super().update(key, value)
        self._data.move_to_end(key)

    def _make_room(self, key: bytes) -> None:
        self._data.popitem(last=False)  # evict the least recently used
        self.evictions += 1


class PercpuHashMap(BpfMap):
    """``BPF_MAP_TYPE_PERCPU_HASH``: one value slot per logical CPU.

    Fast-path access (inside a :meth:`~repro.netsim.cpu.CpuSet.on` context)
    touches only the executing CPU's slot, so concurrent flows on different
    CPUs never contend. From the control plane (no CPU context):

    - ``lookup`` *aggregates on read*: the per-CPU values are summed as
      big-endian unsigned integers of ``value_size`` bytes (the counter
      convention of the custom-FPM templates, ``read_flow_counter``), which
      is what ``bpf_map_lookup_elem`` + a userspace per-CPU sum does for
      counter maps;
    - ``update`` writes the value to CPU 0's slot and clears the key on all
      other CPUs, so a subsequent aggregate read returns exactly the value
      written;
    - ``delete`` removes the key from every CPU.

    ``max_entries`` bounds *distinct keys* across all CPUs, matching the
    kernel's accounting for per-CPU hash maps.
    """

    map_type = "percpu_hash"
    percpu = True

    def __init__(
        self,
        name: str,
        key_size: int,
        value_size: int,
        max_entries: int = 1024,
        schema_version: int = 1,
        num_cpus: int = 1,
    ) -> None:
        super().__init__(name, key_size, value_size, max_entries, schema_version)
        if num_cpus < 1:
            raise MapError("per-CPU map needs at least one CPU")
        self.num_cpus = num_cpus
        self._cpu_data: List[Dict[bytes, bytes]] = [self._empty_slot() for _ in range(num_cpus)]

    def _empty_slot(self) -> Dict[bytes, bytes]:
        return {}

    @classmethod
    def from_hash(cls, source: HashMap, num_cpus: int) -> "PercpuHashMap":
        """Upgrade a plain hash map: same schema sizes, accumulated contents
        land on CPU 0 (so aggregate reads preserve every value)."""
        out = cls(
            source.name, source.key_size, source.value_size, source.max_entries,
            source.schema_version, num_cpus=num_cpus,
        )
        for key, value in source.items():
            out._cpu_data[0][key] = value
        return out

    # --- capacity (distinct keys across the union of CPU slots) ---

    def _known_keys(self) -> set:
        keys: set = set()
        for slot in self._cpu_data:
            keys.update(slot)
        return keys

    def __len__(self) -> int:
        return len(self._known_keys())

    def keys(self) -> List[bytes]:
        return sorted(self._known_keys())

    def _make_room(self, cpu: int, key: bytes) -> None:
        raise MapError(f"{self.name}: map full ({self.max_entries})")

    # --- data path ---

    def _this_cpu(self) -> Optional[int]:
        cpu = current_cpu()
        if cpu is None:
            return None
        # A kernel may run with fewer CPUs than a neighbour that is
        # currently mid-softirq; clamp rather than crash.
        return cpu % self.num_cpus

    def lookup(self, key: bytes) -> Optional[bytes]:
        self._check_key(key)
        cpu = self._this_cpu()
        if cpu is not None:
            return self._cpu_data[cpu].get(key)
        return self._aggregate(key)

    def update(self, key: bytes, value: bytes) -> None:
        faults.fire("map_update", self.name)
        self._check_frozen()
        self._check_key(key)
        self._check_value(value)
        cpu = self._this_cpu()
        if cpu is not None:
            slot = self._cpu_data[cpu]
            if key not in self._known_keys() and len(self) >= self.max_entries:
                self._make_room(cpu, key)
            slot[key] = value
            self._touch(cpu, key)
            return
        # Control plane: the written value becomes the aggregate.
        if key not in self._known_keys() and len(self) >= self.max_entries:
            self._make_room(0, key)
        for cpu_index, slot in enumerate(self._cpu_data):
            if cpu_index == 0:
                slot[key] = value
                self._touch(0, key)
            else:
                slot.pop(key, None)

    def delete(self, key: bytes) -> None:
        # Kernel percpu-hash delete removes the whole entry (all CPUs);
        # there is no per-CPU partial delete.
        self._check_frozen()
        self._check_key(key)
        for slot in self._cpu_data:
            slot.pop(key, None)

    def _touch(self, cpu: int, key: bytes) -> None:
        """Recency hook for the LRU subclass; plain maps do nothing."""

    # --- control plane / migration ---

    def _aggregate(self, key: bytes) -> Optional[bytes]:
        total = 0
        found = False
        for slot in self._cpu_data:
            value = slot.get(key)
            if value is not None:
                found = True
                total += int.from_bytes(value, "big")
        if not found:
            return None
        mask = (1 << (8 * self.value_size)) - 1
        return (total & mask).to_bytes(self.value_size, "big")

    def items(self) -> List[Tuple[bytes, bytes]]:
        """(key, aggregated value) pairs — the control-plane view."""
        out = []
        for key in self.keys():
            value = self._aggregate(key)
            if value is not None:
                out.append((key, value))
        return out

    def percpu_items(self) -> List[Tuple[bytes, List[Optional[bytes]]]]:
        """(key, per-CPU slot values) — exact state for live migration."""
        return [
            (key, [slot.get(key) for slot in self._cpu_data])
            for key in self.keys()
        ]

    def update_cpu(self, cpu: int, key: bytes, value: bytes) -> None:
        """Write one CPU's slot directly (deployer migration path)."""
        self._check_frozen()
        self._check_key(key)
        self._check_value(value)
        if key not in self._known_keys() and len(self) >= self.max_entries:
            self._make_room(cpu % self.num_cpus, key)
        self._cpu_data[cpu % self.num_cpus][key] = value
        self._touch(cpu % self.num_cpus, key)

    def lookup_cpu(self, cpu: int, key: bytes) -> Optional[bytes]:
        """Read one CPU's slot directly (tests / migration verification)."""
        self._check_key(key)
        return self._cpu_data[cpu % self.num_cpus].get(key)

    def drain_cpu(self, dead: int, target: int) -> int:
        """CPU hotplug: rehome the ``dead`` CPU's slot values onto ``target``.

        A value moves only when the target CPU has no value for that key;
        otherwise it stays where it is — control-plane reads aggregate
        across *all* slots, so totals are preserved either way, and moving
        would clobber live state. (The kernel has no analogue: per-CPU map
        slots simply persist across hotplug. We move what we safely can so
        single-CPU probes from the new owner see the flow's state.)
        Returns values moved.
        """
        self._check_frozen()
        dead %= self.num_cpus
        target %= self.num_cpus
        if dead == target:
            return 0
        dead_slot = self._cpu_data[dead]
        target_slot = self._cpu_data[target]
        moved = 0
        for key in list(dead_slot):
            if key in target_slot or not self._slot_has_room(target_slot):
                continue
            target_slot[key] = dead_slot.pop(key)
            self._touch(target, key)
            moved += 1
        return moved

    def _slot_has_room(self, slot: Dict[bytes, bytes]) -> bool:
        """Whether a drain move may add a key to ``slot`` (distinct-key
        capacity is global for plain per-CPU hashes, so a move never grows
        it; the LRU subclass enforces its per-CPU shard budget instead)."""
        return True

    def clone_empty(self) -> "PercpuHashMap":
        return type(self)(
            self.name, self.key_size, self.value_size, self.max_entries,
            self.schema_version, num_cpus=self.num_cpus,
        )


class PercpuLruHashMap(PercpuHashMap):
    """``BPF_MAP_TYPE_LRU_PERCPU_HASH``: per-CPU slots with per-CPU LRU
    lists — each CPU evicts from its own shard of the entry budget
    (``max_entries // num_cpus``), like the kernel's per-CPU LRU free
    lists. The synthesizer's choice for flow-keyed custom state on
    multi-core kernels.
    """

    map_type = "percpu_lru_hash"

    def _empty_slot(self) -> "OrderedDict[bytes, bytes]":
        return OrderedDict()

    @property
    def shard_budget(self) -> int:
        return max(1, self.max_entries // self.num_cpus)

    def update(self, key: bytes, value: bytes) -> None:
        faults.fire("map_update", self.name)
        self._check_frozen()
        self._check_key(key)
        self._check_value(value)
        cpu = self._this_cpu()
        if cpu is not None:
            slot = self._cpu_data[cpu]
            if key not in slot and len(slot) >= self.shard_budget:
                self._make_room(cpu, key)
            slot[key] = value
            self._touch(cpu, key)
            return
        for cpu_index, slot in enumerate(self._cpu_data):
            if cpu_index == 0:
                if key not in slot and len(slot) >= self.shard_budget:
                    self._make_room(0, key)
                slot[key] = value
                self._touch(0, key)
            else:
                slot.pop(key, None)

    def update_cpu(self, cpu: int, key: bytes, value: bytes) -> None:
        self._check_frozen()
        self._check_key(key)
        self._check_value(value)
        slot = self._cpu_data[cpu % self.num_cpus]
        if key not in slot and len(slot) >= self.shard_budget:
            self._make_room(cpu % self.num_cpus, key)
        slot[key] = value
        self._touch(cpu % self.num_cpus, key)

    def lookup(self, key: bytes) -> Optional[bytes]:
        value = super().lookup(key)
        cpu = self._this_cpu()
        if value is not None and cpu is not None:
            self._touch(cpu, key)
        return value

    def _make_room(self, cpu: int, key: bytes) -> None:
        slot = self._cpu_data[cpu]
        if slot:
            slot.popitem(last=False)  # evict this CPU's least recently used
            self.evictions += 1

    def _touch(self, cpu: int, key: bytes) -> None:
        slot = self._cpu_data[cpu]
        if key in slot:
            slot.move_to_end(key)

    def _slot_has_room(self, slot: Dict[bytes, bytes]) -> bool:
        # Never evict the target CPU's live entries to make room for a
        # hotplug drain; stranded values still aggregate correctly.
        return len(slot) < self.shard_budget

    @classmethod
    def from_lru(cls, source: LruHashMap, num_cpus: int) -> "PercpuLruHashMap":
        """Upgrade a (single-core) LRU hash map: contents land on CPU 0."""
        out = cls(
            source.name, source.key_size, source.value_size, source.max_entries,
            source.schema_version, num_cpus=num_cpus,
        )
        for key, value in source.items():
            out.update_cpu(0, key, value)
        return out


class PercpuArrayMap(BpfMap):
    """``BPF_MAP_TYPE_PERCPU_ARRAY``: fixed slots, one value per CPU each.

    Same access rules as :class:`PercpuHashMap`: in-context access hits the
    executing CPU's copy; control-plane reads aggregate (big-endian sum);
    control-plane writes set CPU 0 and zero the rest.
    """

    map_type = "percpu_array"
    percpu = True

    def __init__(
        self,
        name: str,
        value_size: int,
        max_entries: int,
        schema_version: int = 1,
        num_cpus: int = 1,
    ) -> None:
        super().__init__(name, 4, value_size, max_entries, schema_version)
        if num_cpus < 1:
            raise MapError("per-CPU map needs at least one CPU")
        self.num_cpus = num_cpus
        self._zero = b"\x00" * value_size
        self._cpu_slots: List[List[bytes]] = [
            [self._zero] * max_entries for _ in range(num_cpus)
        ]

    def _index(self, key: bytes) -> int:
        self._check_key(key)
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            raise MapError(f"{self.name}: index {index} out of range")
        return index

    def _this_cpu(self) -> Optional[int]:
        cpu = current_cpu()
        return None if cpu is None else cpu % self.num_cpus

    def lookup(self, key: bytes) -> Optional[bytes]:
        self._check_key(key)
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            return None  # array OOB read is NULL, not an error
        cpu = self._this_cpu()
        if cpu is not None:
            return self._cpu_slots[cpu][index]
        total = sum(int.from_bytes(slots[index], "big") for slots in self._cpu_slots)
        mask = (1 << (8 * self.value_size)) - 1
        return (total & mask).to_bytes(self.value_size, "big")

    def update(self, key: bytes, value: bytes) -> None:
        faults.fire("map_update", self.name)
        self._check_frozen()
        self._check_value(value)
        index = self._index(key)
        cpu = self._this_cpu()
        if cpu is not None:
            self._cpu_slots[cpu][index] = value
            return
        for cpu_index, slots in enumerate(self._cpu_slots):
            slots[index] = value if cpu_index == 0 else self._zero

    def delete(self, key: bytes) -> None:
        self._check_frozen()
        index = self._index(key)
        for slots in self._cpu_slots:
            slots[index] = self._zero

    def items(self) -> List[Tuple[bytes, bytes]]:
        out = []
        mask = (1 << (8 * self.value_size)) - 1
        for index in range(self.max_entries):
            total = sum(int.from_bytes(slots[index], "big") for slots in self._cpu_slots)
            if total:
                out.append((index.to_bytes(4, "little"), (total & mask).to_bytes(self.value_size, "big")))
        return out

    def percpu_items(self) -> List[Tuple[bytes, List[Optional[bytes]]]]:
        out: List[Tuple[bytes, List[Optional[bytes]]]] = []
        for index in range(self.max_entries):
            values = [slots[index] for slots in self._cpu_slots]
            if any(v != self._zero for v in values):
                out.append((index.to_bytes(4, "little"), list(values)))
        return out

    def update_cpu(self, cpu: int, key: bytes, value: bytes) -> None:
        self._check_frozen()
        self._check_value(value)
        self._cpu_slots[cpu % self.num_cpus][self._index(key)] = value

    def lookup_cpu(self, cpu: int, key: bytes) -> Optional[bytes]:
        return self._cpu_slots[cpu % self.num_cpus][self._index(key)]

    def drain_cpu(self, dead: int, target: int) -> int:
        """CPU hotplug: move the dead CPU's non-zero slots onto ``target``
        where the target's slot is still zero (aggregate reads preserve the
        totals either way). Returns values moved."""
        self._check_frozen()
        dead %= self.num_cpus
        target %= self.num_cpus
        if dead == target:
            return 0
        dead_slots = self._cpu_slots[dead]
        target_slots = self._cpu_slots[target]
        moved = 0
        for index in range(self.max_entries):
            if dead_slots[index] == self._zero or target_slots[index] != self._zero:
                continue
            target_slots[index] = dead_slots[index]
            dead_slots[index] = self._zero
            moved += 1
        return moved

    def clone_empty(self) -> "PercpuArrayMap":
        return PercpuArrayMap(
            self.name, self.value_size, self.max_entries, self.schema_version,
            num_cpus=self.num_cpus,
        )


class ArrayMap(BpfMap):
    map_type = "array"

    def __init__(self, name: str, value_size: int, max_entries: int, schema_version: int = 1) -> None:
        super().__init__(name, 4, value_size, max_entries, schema_version)
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
        self._check_frozen()
        self._check_value(value)
        self._slots[self._index(key)] = value

    def delete(self, key: bytes) -> None:
        self._check_frozen()
        self._slots[self._index(key)] = b"\x00" * self.value_size

    def items(self) -> List[Tuple[bytes, bytes]]:
        return [
            (i.to_bytes(4, "little"), value)
            for i, value in enumerate(self._slots)
            if value != b"\x00" * self.value_size
        ]

    def clone_empty(self) -> "ArrayMap":
        return ArrayMap(self.name, self.value_size, self.max_entries, self.schema_version)


class LpmTrieMap(BpfMap):
    """Longest-prefix-match trie keyed like ``BPF_MAP_TYPE_LPM_TRIE``:
    key = u32 little-endian prefix length + big-endian address bytes."""

    map_type = "lpm_trie"

    def __init__(self, name: str, value_size: int, max_entries: int = 1024, schema_version: int = 1) -> None:
        super().__init__(name, 8, value_size, max_entries, schema_version)
        self._by_len: Dict[int, Dict[int, bytes]] = {}
        self._count = 0

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

    @staticmethod
    def _mask(length: int) -> int:
        return 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF

    def update(self, key: bytes, value: bytes) -> None:
        faults.fire("map_update", self.name)
        self._check_frozen()
        self._check_value(value)
        length, addr = self._parse_key(key)
        bucket = self._by_len.setdefault(length, {})
        masked = addr & self._mask(length)
        if masked not in bucket:
            if self._count >= self.max_entries:
                raise MapError(f"{self.name}: map full")
            self._count += 1
        bucket[masked] = value

    def lookup(self, key: bytes) -> Optional[bytes]:
        """Lookup uses the address portion; returns the longest match."""
        __, addr = self._parse_key(key)
        for length in sorted(self._by_len, reverse=True):
            masked = addr & self._mask(length)
            value = self._by_len[length].get(masked)
            if value is not None:
                return value
        return None

    def delete(self, key: bytes) -> None:
        self._check_frozen()
        length, addr = self._parse_key(key)
        bucket = self._by_len.get(length)
        if bucket is not None and bucket.pop(addr & self._mask(length), None) is not None:
            self._count -= 1

    def items(self) -> List[Tuple[bytes, bytes]]:
        return [
            (length.to_bytes(4, "little") + masked.to_bytes(4, "big"), value)
            for length in sorted(self._by_len)
            for masked, value in sorted(self._by_len[length].items())
        ]

    def clone_empty(self) -> "LpmTrieMap":
        return LpmTrieMap(self.name, self.value_size, self.max_entries, self.schema_version)


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

    def delete(self, key: bytes) -> None:
        self._check_key(key)
        self.clear(int.from_bytes(key, "little"))


class DevMap(BpfMap):
    """Redirect map: slot index → ifindex."""

    map_type = "devmap"

    def __init__(self, name: str, max_entries: int = 64) -> None:
        super().__init__(name, 4, 4, max_entries)
        self._slots: Dict[int, int] = {}

    def set_dev(self, index: int, ifindex: int) -> None:
        if not 0 <= index < self.max_entries:
            raise MapError(f"{self.name}: index {index} out of range")
        self._slots[index] = ifindex

    def get_dev(self, index: int) -> Optional[int]:
        return self._slots.get(index)

    def lookup(self, key: bytes) -> Optional[bytes]:
        self._check_key(key)
        ifindex = self._slots.get(int.from_bytes(key, "little"))
        return None if ifindex is None else ifindex.to_bytes(4, "little")

    def update(self, key: bytes, value: bytes) -> None:
        self._check_key(key)
        self._check_value(value)
        self.set_dev(int.from_bytes(key, "little"), int.from_bytes(value, "little"))

    def delete(self, key: bytes) -> None:
        self._check_key(key)
        self._slots.pop(int.from_bytes(key, "little"), None)
