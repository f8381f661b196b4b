"""MAC and IPv4 address types used throughout the simulator.

Addresses are small immutable value objects wrapping an integer, in one
slot: every frame's headers build several, so they are built without a
``__dict__`` and, from wire fields or bytes, without a range check. They
are hashable (usable as FIB/FDB keys), render in the conventional textual
forms, and convert to/from wire bytes. :class:`PrefixTable` is the one
longest-prefix-match table: the FIB, the LPM-trie map and ipset store their
prefixes in it.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import total_ordering
from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar, Union

V = TypeVar("V")


class AddressError(ValueError):
    """Raised for malformed address or prefix input."""


@total_ordering
class _Value:
    """An immutable value object wrapping one integer, ``value``.

    Behaves as a frozen, ordered dataclass of that one field would, built
    by hand so that the instance has a slot and no ``__dict__``: instances
    compare and order by value within one type (NotImplemented across
    types, so ``<`` raises ``TypeError`` and ``==`` is False), hash as
    ``hash((value,))``, and refuse assignment and deletion.
    """

    __slots__ = ("value",)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, (self.value,)

    def __hash__(self) -> int:
        return hash((self.value,))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value < other.value
        return NotImplemented

    @classmethod
    def of_field(cls, value: int):
        """The address of a field as wide as the type (a header field, or
        ``from_bytes``' bytes), which is in range by its width, so the
        constructor's range check is skipped."""
        addr = _new(cls)
        _set_value(addr, value)
        return addr


_new = object.__new__
#: stores ``value`` past the refusing ``__setattr__``
_set_value = _Value.value.__set__


class MacAddr(_Value):
    """A 48-bit Ethernet MAC address."""

    __slots__ = ()

    BROADCAST_VALUE = 0xFFFFFFFFFFFF

    def __init__(self, value: int) -> None:
        if not 0 <= value <= self.BROADCAST_VALUE:
            raise AddressError(f"MAC value out of range: {value:#x}")
        _set_value(self, value)

    @classmethod
    def parse(cls, text: str) -> "MacAddr":
        """Parse ``aa:bb:cc:dd:ee:ff`` notation."""
        parts = text.split(":")
        if len(parts) != 6:
            raise AddressError(f"bad MAC address: {text!r}")
        try:
            octets = [int(p, 16) for p in parts]
        except ValueError:
            raise AddressError(f"bad MAC address: {text!r}") from None
        if any(not 0 <= o <= 0xFF for o in octets):
            raise AddressError(f"bad MAC address: {text!r}")
        value = 0
        for octet in octets:
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MacAddr":
        if len(data) != 6:
            raise AddressError(f"MAC needs 6 bytes, got {len(data)}")
        return cls.of_field(int.from_bytes(data, "big"))

    @classmethod
    def broadcast(cls) -> "MacAddr":
        return cls(cls.BROADCAST_VALUE)

    @classmethod
    def from_index(cls, index: int, oui: int = 0x02_00_00) -> "MacAddr":
        """Deterministically derive a locally-administered MAC from an index."""
        if not 0 <= index <= 0xFFFFFF:
            raise AddressError(f"MAC index out of range: {index}")
        return cls((oui << 24) | index)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        return self.value == self.BROADCAST_VALUE

    @property
    def is_multicast(self) -> bool:
        """True when the I/G bit of the first octet is set (includes broadcast)."""
        return bool((self.value >> 40) & 0x01)

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.to_bytes())

    def __repr__(self) -> str:
        return f"MacAddr({str(self)!r})"


class IPv4Addr(_Value):
    """A 32-bit IPv4 address."""

    __slots__ = ()

    def __init__(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise AddressError(f"IPv4 value out of range: {value:#x}")
        _set_value(self, value)

    @classmethod
    def parse(cls, text: str) -> "IPv4Addr":
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"bad IPv4 address: {text!r}")
        try:
            octets = [int(p, 10) for p in parts]
        except ValueError:
            raise AddressError(f"bad IPv4 address: {text!r}") from None
        if any(not 0 <= o <= 255 for o in octets):
            raise AddressError(f"bad IPv4 address: {text!r}")
        return cls((octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3])

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Addr":
        if len(data) != 4:
            raise AddressError(f"IPv4 needs 4 bytes, got {len(data)}")
        return cls.of_field(int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    @property
    def is_broadcast(self) -> bool:
        return self.value == 0xFFFFFFFF

    @property
    def is_multicast(self) -> bool:
        return 0xE0000000 <= self.value <= 0xEFFFFFFF

    @property
    def is_loopback(self) -> bool:
        return (self.value >> 24) == 127

    def __str__(self) -> str:
        return ".".join(str(b) for b in self.to_bytes())

    def __repr__(self) -> str:
        return f"IPv4Addr({str(self)!r})"


#: the addresses of 48- and 32-bit header fields, bound once for the codecs
mac_of_field = MacAddr.of_field
ipv4_of_field = IPv4Addr.of_field


AddrLike = Union[str, int, IPv4Addr]


def ipv4(value: AddrLike) -> IPv4Addr:
    """Coerce a string, int, or IPv4Addr into an IPv4Addr."""
    if isinstance(value, IPv4Addr):
        return value
    if isinstance(value, int):
        return IPv4Addr(value)
    return IPv4Addr.parse(value)


def mac(value: Union[str, int, MacAddr]) -> MacAddr:
    """Coerce a string, int, or MacAddr into a MacAddr."""
    if isinstance(value, MacAddr):
        return value
    if isinstance(value, int):
        return MacAddr(value)
    return MacAddr.parse(value)


@dataclass(frozen=True, order=True)
class IPv4Prefix:
    """An IPv4 network prefix (CIDR), normalized to its network address."""

    address: IPv4Addr
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"bad prefix length: {self.length}")
        masked = self.address.value & self.mask_value()
        if masked != self.address.value:
            object.__setattr__(self, "address", IPv4Addr(masked))

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        """Parse ``a.b.c.d/len``; a bare address parses as a /32."""
        if "/" in text:
            addr_text, __, len_text = text.partition("/")
            try:
                length = int(len_text)
            except ValueError:
                raise AddressError(f"bad prefix: {text!r}") from None
        else:
            addr_text, length = text, 32
        return cls(IPv4Addr.parse(addr_text), length)

    def mask_value(self) -> int:
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @property
    def netmask(self) -> IPv4Addr:
        return IPv4Addr(self.mask_value())

    @property
    def broadcast(self) -> IPv4Addr:
        return IPv4Addr(self.address.value | (~self.mask_value() & 0xFFFFFFFF))

    def contains(self, addr: AddrLike) -> bool:
        return (ipv4(addr).value & self.mask_value()) == self.address.value

    def overlaps(self, other: "IPv4Prefix") -> bool:
        shorter = self if self.length <= other.length else other
        longer = other if shorter is self else self
        return shorter.contains(longer.address)

    def hosts(self) -> Iterator[IPv4Addr]:
        """Iterate usable host addresses (excludes network/broadcast for len<31)."""
        first = self.address.value
        last = self.broadcast.value
        if self.length < 31:
            first += 1
            last -= 1
        for value in range(first, last + 1):
            yield IPv4Addr(value)

    def host(self, index: int) -> IPv4Addr:
        """The index-th host address (1-based within the subnet)."""
        value = self.address.value + index
        if value > self.broadcast.value:
            raise AddressError(f"host index {index} outside {self}")
        return IPv4Addr(value)

    def __str__(self) -> str:
        return f"{self.address}/{self.length}"

    def __repr__(self) -> str:
        return f"IPv4Prefix({str(self)!r})"


def prefix(value: Union[str, IPv4Prefix]) -> IPv4Prefix:
    """Coerce a string or IPv4Prefix into an IPv4Prefix."""
    if isinstance(value, IPv4Prefix):
        return value
    return IPv4Prefix.parse(value)


#: the netmask of each prefix length 0–32
_MASKS = tuple((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF for length in range(33))


class PrefixTable(Generic[V]):
    """Longest-prefix match over IPv4 prefixes, as the kernel FIB,
    ``BPF_MAP_TYPE_LPM_TRIE`` and ipset ``hash:net`` answer it.

    One dict per prefix length (0–32) maps each network, masked to that
    length, to its value; None means "no entry". :meth:`longest` probes the
    lengths present, longest first, in an order rebuilt only when a length
    first appears or empties.
    """

    __slots__ = ("_by_len", "_probe")

    def __init__(self) -> None:
        self._by_len: Dict[int, Dict[int, V]] = {}
        #: ``(mask, networks)`` of each length present, longest first
        self._probe: Tuple[Tuple[int, Dict[int, V]], ...] = ()

    def longest(self, addr: int) -> Optional[V]:
        """The value of the longest stored prefix that holds ``addr``."""
        for mask, networks in self._probe:
            value = networks.get(addr & mask)
            if value is not None:
                return value
        return None

    def get(self, length: int, network: int) -> Optional[V]:
        networks = self._by_len.get(length)
        return None if networks is None else networks.get(network & _MASKS[length])

    def set(self, length: int, network: int, value: V) -> None:
        networks = self._by_len.get(length)
        if networks is None:
            networks = self._by_len[length] = {}
            self._reprobe()
        networks[network & _MASKS[length]] = value

    def pop(self, length: int, network: int) -> Optional[V]:
        """Remove one prefix; returns its value, or None when absent."""
        networks = self._by_len.get(length)
        if networks is None:
            return None
        value = networks.pop(network & _MASKS[length], None)
        if not networks:
            del self._by_len[length]
            self._reprobe()
        return value

    def items(self) -> Iterator[Tuple[int, int, V]]:
        """``(length, network, value)`` of every stored prefix."""
        for length, networks in self._by_len.items():
            for network, value in networks.items():
                yield length, network, value

    def __len__(self) -> int:
        return sum(len(networks) for networks in self._by_len.values())

    def _reprobe(self) -> None:
        self._probe = tuple(
            (_MASKS[length], self._by_len[length]) for length in sorted(self._by_len, reverse=True)
        )


@dataclass(frozen=True, order=True)
class IfAddr:
    """An interface address: a host address *plus* its prefix length.

    Unlike :class:`IPv4Prefix` this is NOT normalized — ``10.0.0.1/24``
    keeps the host part (the interface's own address) while ``network``
    yields the covering ``10.0.0.0/24`` prefix.
    """

    address: IPv4Addr
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"bad prefix length: {self.length}")

    @classmethod
    def parse(cls, text: str) -> "IfAddr":
        if "/" in text:
            addr_text, __, len_text = text.partition("/")
            try:
                length = int(len_text)
            except ValueError:
                raise AddressError(f"bad interface address: {text!r}") from None
        else:
            addr_text, length = text, 32
        return cls(IPv4Addr.parse(addr_text), length)

    @property
    def network(self) -> IPv4Prefix:
        return IPv4Prefix(self.address, self.length)

    @property
    def broadcast(self) -> IPv4Addr:
        return self.network.broadcast

    def __str__(self) -> str:
        return f"{self.address}/{self.length}"


def ifaddr(value: Union[str, "IfAddr"]) -> "IfAddr":
    """Coerce a string or IfAddr into an IfAddr."""
    if isinstance(value, IfAddr):
        return value
    return IfAddr.parse(value)
