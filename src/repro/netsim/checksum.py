"""Internet checksum (RFC 1071) helpers."""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement internet checksum of ``data``.

    Accepts any bytes-like object (zero-copy parsing hands memoryviews in).
    The data, zero-padded to even length, is one big-endian integer ``n``.
    Since 2**16 == 1 (mod 0xFFFF), ``n % 0xFFFF`` is the end-around-carry
    sum of its 16-bit words modulo 0xFFFF, and that sum is 0 only when
    every word is 0: otherwise a remainder of 0 stands for 0xFFFF.
    """
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    n = int.from_bytes(data, "big")
    total = n % 0xFFFF
    if total == 0 and n:
        total = 0xFFFF
    return ~total & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (checksum field included) sums to zero."""
    return internet_checksum(data) == 0
