"""The VM's memory model: regions and fat pointers.

eBPF programs manipulate *typed pointers* (packet, stack, map values, ctx);
the real verifier tracks their provenance statically. Our VM carries the
provenance at runtime in :class:`Pointer` values and enforces bounds on
every access — out-of-bounds access aborts the program, which the hook
layer converts into a packet drop (``XDP_ABORTED`` semantics).

Compiled code keeps pointers as integer offsets, so a run builds a
:class:`Pointer` only for the hook's packet argument, for a helper's
pointer argument and for a spill into a ``Region``-resident stack slot;
much of this module runs only under the interpreter.
"""

from __future__ import annotations

from typing import Union

MASK64 = (1 << 64) - 1


class MemoryError_(Exception):
    """Raised on out-of-bounds or misdirected memory access."""


class Region:
    """A bounded byte region.

    Stack regions (``allow_pointers=True``) additionally support *pointer
    spilling*: storing a fat pointer into an 8-byte slot and loading it back,
    mirroring how the real eBPF verifier tracks spilled pointers. Scalar
    writes overlapping a spilled pointer invalidate it. That bookkeeping
    serves the interpreter, and the JIT's Region-resident slots: compiled
    code keeps every other stack slot in a Python local.
    """

    def __init__(self, kind: str, data: bytearray, allow_pointers: bool = False) -> None:
        self.kind = kind
        self.data = data
        self.allow_pointers = allow_pointers
        self._spilled: dict = {}  # offset -> Pointer

    def __len__(self) -> int:
        return len(self.data)

    def store_word(self, offset: int, size: int, value: "Word") -> None:
        """Store a scalar or (8-byte, stack-only) pointer word."""
        if isinstance(value, Pointer):
            if not self.allow_pointers or size != 8:
                raise MemoryError_(f"{self.kind}: cannot spill pointer here")
            if offset < 0 or offset + 8 > len(self.data):
                raise MemoryError_(f"{self.kind}: spill at {offset} out of bounds")
            self._invalidate(offset, 8)
            self._spilled[offset] = value
            self.data[offset : offset + 8] = b"\x00" * 8
            return
        self._invalidate(offset, size)
        self.store(offset, size, value)

    def load_word(self, offset: int, size: int) -> "Word":
        """Load a scalar, or a previously spilled pointer (exact 8-byte slot)."""
        if size == 8 and offset in self._spilled:
            return self._spilled[offset]
        return self.load(offset, size)

    def _invalidate(self, offset: int, size: int) -> None:
        if not self._spilled:
            return
        for spill_off in [o for o in self._spilled if o < offset + size and offset < o + 8]:
            del self._spilled[spill_off]

    def load(self, offset: int, size: int) -> int:
        if offset < 0 or offset + size > len(self.data):
            raise MemoryError_(f"{self.kind}: load [{offset}:{offset + size}] out of bounds (len {len(self.data)})")
        return int.from_bytes(self.data[offset : offset + size], "big")

    def store(self, offset: int, size: int, value: int) -> None:
        if offset < 0 or offset + size > len(self.data):
            raise MemoryError_(f"{self.kind}: store [{offset}:{offset + size}] out of bounds (len {len(self.data)})")
        self.data[offset : offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "big")

    def read_bytes(self, offset: int, size: int) -> bytes:
        if offset < 0 or offset + size > len(self.data):
            raise MemoryError_(f"{self.kind}: read [{offset}:{offset + size}] out of bounds")
        return bytes(self.data[offset : offset + size])

    def write_bytes(self, offset: int, payload: bytes) -> None:
        if offset < 0 or offset + len(payload) > len(self.data):
            raise MemoryError_(f"{self.kind}: write [{offset}:{offset + len(payload)}] out of bounds")
        self.data[offset : offset + len(payload)] = payload


class Pointer:
    """A region-tagged pointer; arithmetic only adjusts the offset.

    A plain slotted class, because every program run builds at least one
    (the hook's packet argument) and nothing compares, hashes or mutates a
    pointer: :meth:`advanced` returns a new one."""

    __slots__ = ("region", "offset")

    def __init__(self, region: Region, offset: int) -> None:
        self.region = region
        self.offset = offset

    def advanced(self, delta: int) -> "Pointer":
        return Pointer(self.region, self.offset + delta)

    def load(self, off: int, size: int) -> "Word":
        return self.region.load_word(self.offset + off, size)

    def store(self, off: int, size: int, value: "Word") -> None:
        self.region.store_word(self.offset + off, size, value)

    def __repr__(self) -> str:
        return f"Pointer({self.region.kind}+{self.offset})"


Word = Union[int, Pointer]
