"""Receive-side scaling: Toeplitz hashing and the RSS indirection table.

Models the hardware half of ``Documentation/networking/scaling.rst``: the
NIC computes a Toeplitz hash over the packet's 4-tuple (source address,
destination address, source port, destination port, in network byte order),
masks the low-order seven bits, and uses them as an index into a 128-entry
indirection table whose entries store RX queue numbers.

The kernel half (RPS-style flow steering onto CPUs) lives in
:mod:`repro.kernel.softirq`; it uses the *symmetric* variant below so both
directions of a flow steer to the same CPU (an IDS-style symmetric-RSS
configuration, per scaling.rst).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional

#: The Microsoft RSS verification-suite key (the de-facto standard default).
TOEPLITZ_KEY = bytes(
    (
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    )
)

INDIRECTION_TABLE_SIZE = 128  # "the most common hardware implementation"

# Frame offsets for option-less IPv4 over untagged Ethernet.
_ETH_P_IP = 0x0800
_IPPROTO_TCP = 6
_IPPROTO_UDP = 17


@lru_cache(maxsize=65536)
def toeplitz_hash(data: bytes, key: bytes = TOEPLITZ_KEY) -> int:
    """The 32-bit Toeplitz hash of ``data`` under ``key``.

    For each set bit of the input (MSB first), XOR in the 32-bit window of
    the key starting at that bit position. Matches the Microsoft RSS
    verification suite (e.g. src 66.9.149.187:2794 → dst 161.142.100.80:1766
    hashes to 0x51ccc178 with ports, 0x323e8fc2 without).
    """
    need = len(data) + 4
    reps = (need + len(key) - 1) // len(key)
    key_int = int.from_bytes((key * reps)[:need], "big")
    total_bits = need * 8
    result = 0
    for i, byte in enumerate(data):
        if not byte:
            continue
        base = i * 8
        for bit in range(8):
            if byte & (0x80 >> bit):
                result ^= (key_int >> (total_bits - 32 - base - bit)) & 0xFFFFFFFF
    return result


def rss_input(frame: bytes) -> Optional[bytes]:
    """The NIC's hash input for a frame: src ip | dst ip | sport | dport.

    Returns None for frames RSS cannot classify (non-IPv4, IP options,
    fragments, non-TCP/UDP) — hardware falls back to a 2-tuple or a single
    queue; we fall back to hashing the addressing bytes (:func:`l2_input`).
    """
    if len(frame) < 38:
        return None
    if frame[12] != 0x08 or frame[13] != 0x00:
        return None
    if frame[14] != 0x45:
        return None  # options shift the L4 offsets
    if ((frame[20] << 8) | frame[21]) & 0x3FFF:
        return None  # fragments lack L4 headers past the first
    proto = frame[23]
    if proto != _IPPROTO_TCP and proto != _IPPROTO_UDP:
        return None
    return bytes(frame[26:34]) + bytes(frame[34:38])


def l2_input(frame: bytes) -> bytes:
    """Fallback hash input: destination + source MAC."""
    return bytes(frame[0:12]) if len(frame) >= 12 else bytes(frame)


def symmetric_flow_hash(src: int, dst: int, proto: int, sport: int, dport: int) -> int:
    """A direction-insensitive flow hash for RPS steering.

    Canonicalizes the (addr, port) endpoint pair by sorting before hashing,
    so a flow and its reply traffic produce the same value — both directions
    of a connection are processed on one CPU.
    """
    a = (src & 0xFFFFFFFF, sport & 0xFFFF)
    b = (dst & 0xFFFFFFFF, dport & 0xFFFF)
    lo, hi = (a, b) if a <= b else (b, a)
    data = (
        lo[0].to_bytes(4, "big") + hi[0].to_bytes(4, "big")
        + lo[1].to_bytes(2, "big") + hi[1].to_bytes(2, "big")
        + bytes((proto & 0xFF,))
    )
    return toeplitz_hash(data)


class IndirectionTable:
    """The 128-entry RSS indirection table of one NIC.

    Entries hold RX queue numbers; the default population spreads queues
    round-robin, which is how drivers initialize the table (``ethtool -x``).
    """

    def __init__(self, num_queues: int, size: int = INDIRECTION_TABLE_SIZE) -> None:
        if num_queues < 1 or size < 1:
            raise ValueError("indirection table needs >= 1 queue and entry")
        self.num_queues = num_queues
        self.table: List[int] = [i % num_queues for i in range(size)]

    def set_entry(self, index: int, queue: int) -> None:
        """Repoint one entry (``ethtool -X weight``-style reconfiguration)."""
        if not 0 <= queue < self.num_queues:
            raise ValueError(f"queue {queue} out of range")
        self.table[index % len(self.table)] = queue

    def retarget(self, dead_queues, live_queues) -> int:
        """Repoint every entry on a dead queue round-robin over the live
        ones (the ``ethtool -X`` an operator — or the hotplug path — issues
        when a queue's CPU goes away). Returns entries repointed."""
        dead = set(dead_queues)
        live = [q for q in live_queues if q not in dead]
        if not live:
            raise ValueError("indirection retarget needs at least one live queue")
        moved = 0
        for index, queue in enumerate(self.table):
            if queue in dead:
                self.table[index] = live[moved % len(live)]
                moved += 1
        return moved

    def reset(self) -> None:
        """Restore the default round-robin spread over every queue."""
        self.table = [i % self.num_queues for i in range(len(self.table))]

    def queue_for(self, hash32: int) -> int:
        """Mask the low-order bits of the hash and read the entry."""
        return self.table[hash32 & (len(self.table) - 1)]

    def queue_for_frame(self, frame: bytes) -> int:
        tuple_input = rss_input(frame)
        data = tuple_input if tuple_input is not None else l2_input(frame)
        return self.queue_for(toeplitz_hash(data))
