"""ipset: named sets of addresses/networks matched in O(1)-ish time.

The paper's virtual-gateway experiment aggregates a 100-address blacklist
into one ipset-backed rule, turning iptables' linear scan into a single hash
lookup (Fig 8, Table IV). We support the two types that experiment needs:
``hash:ip`` (exact addresses) and ``hash:net`` (prefixes; an address matches
when a stored prefix holds it). Both keep their members in a
:class:`~repro.netsim.addresses.PrefixTable`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.netsim.addresses import AddrLike, IPv4Addr, IPv4Prefix, PrefixTable, ipv4

SET_TYPES = ("hash:ip", "hash:net")

#: The most addresses one ``hash:ip`` add or del may expand a prefix into:
#: the simulator's stand-in for Linux's ``IPSET_MAX_RANGE``.
MAX_RANGE = 1 << 16


class IpsetError(ValueError):
    """Raised for invalid ipset operations."""


class IpSet:
    """One named set."""

    def __init__(self, name: str, set_type: str = "hash:ip") -> None:
        if set_type not in SET_TYPES:
            raise IpsetError(f"unsupported set type {set_type!r}")
        self.name = name
        self.set_type = set_type
        # the members of either type; a hash:ip set holds only /32s
        self._members: PrefixTable[bool] = PrefixTable()

    def _keys(self, entry: AddrLike, prefixlen: int) -> Iterable[Tuple[int, int]]:
        """The ``(length, network)`` members an add or del of this entry
        touches: the prefix itself in a ``hash:net`` set, and every address
        it holds in a ``hash:ip`` set, as Linux expands a range."""
        network = IPv4Prefix(ipv4(entry), prefixlen).address.value
        if self.set_type == "hash:net":
            return ((prefixlen, network),)
        size = 1 << (32 - prefixlen)
        if size > MAX_RANGE:
            raise IpsetError(f"hash:ip range /{prefixlen} holds more than {MAX_RANGE} addresses")
        return ((32, address) for address in range(network, network + size))

    def add(self, entry: AddrLike, prefixlen: int = 32) -> None:
        for length, network in self._keys(entry, prefixlen):
            self._members.set(length, network, True)

    def remove(self, entry: AddrLike, prefixlen: int = 32) -> None:
        for length, network in self._keys(entry, prefixlen):
            self._members.pop(length, network)

    def test(self, addr: AddrLike) -> bool:
        return self._members.longest(ipv4(addr).value) is not None

    def entries(self) -> List[Tuple[IPv4Addr, int]]:
        return [(IPv4Addr(network), length) for length, network, __ in sorted(self._members.items())]

    def __len__(self) -> int:
        return len(self._members)


class IpsetRegistry:
    """All sets on a kernel, by name."""

    def __init__(self) -> None:
        self._sets: Dict[str, IpSet] = {}

    def create(self, name: str, set_type: str = "hash:ip") -> IpSet:
        if name in self._sets:
            raise IpsetError(f"set {name!r} exists")
        ipset = IpSet(name, set_type)
        self._sets[name] = ipset
        return ipset

    def destroy(self, name: str) -> None:
        if name not in self._sets:
            raise IpsetError(f"no set {name!r}")
        del self._sets[name]

    def get(self, name: str) -> Optional[IpSet]:
        return self._sets.get(name)

    def require(self, name: str) -> IpSet:
        ipset = self._sets.get(name)
        if ipset is None:
            raise IpsetError(f"no set {name!r}")
        return ipset

    def names(self) -> List[str]:
        return sorted(self._sets)
