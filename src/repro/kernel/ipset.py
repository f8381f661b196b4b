"""ipset: named sets of addresses/networks matched in O(1)-ish time.

The paper's virtual-gateway experiment aggregates a 100-address blacklist
into one ipset-backed rule, turning iptables' linear scan into a single hash
lookup (Fig 8, Table IV). We support the two types that experiment needs:
``hash:ip`` (exact addresses) and ``hash:net`` (prefixes; an address matches
when a stored prefix holds it). Both keep their members in a
:class:`~repro.netsim.addresses.PrefixTable`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.netsim.addresses import AddrLike, IPv4Addr, IPv4Prefix, PrefixTable, ipv4

SET_TYPES = ("hash:ip", "hash:net")


class IpsetError(ValueError):
    """Raised for invalid ipset operations."""


class IpSet:
    """One named set."""

    def __init__(self, name: str, set_type: str = "hash:ip", registry: "Optional[IpsetRegistry]" = None) -> None:
        if set_type not in SET_TYPES:
            raise IpsetError(f"unsupported set type {set_type!r}")
        self.name = name
        self.set_type = set_type
        self._registry = registry
        # the members of either type; a hash:ip set holds only /32s
        self._members: PrefixTable[bool] = PrefixTable()

    def _bump(self) -> None:
        if self._registry is not None:
            self._registry.gen += 1

    def add(self, entry: AddrLike, prefixlen: int = 32) -> None:
        if self.set_type == "hash:ip" and prefixlen != 32:
            raise IpsetError("hash:ip sets hold /32 addresses only")
        prefix = IPv4Prefix(ipv4(entry), prefixlen)
        if self._members.get(prefixlen, prefix.address.value) is None:
            self._members.set(prefixlen, prefix.address.value, True)
            self._bump()

    def remove(self, entry: AddrLike, prefixlen: int = 32) -> None:
        prefix = IPv4Prefix(ipv4(entry), prefixlen)
        if self._members.pop(prefixlen, prefix.address.value) is not None:
            self._bump()

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
        # Generation tag for the flow cache: bumped whenever any set's
        # membership (or the set of sets) changes.
        self.gen = 0

    def create(self, name: str, set_type: str = "hash:ip") -> IpSet:
        if name in self._sets:
            raise IpsetError(f"set {name!r} exists")
        ipset = IpSet(name, set_type, registry=self)
        self._sets[name] = ipset
        self.gen += 1
        return ipset

    def destroy(self, name: str) -> None:
        if name not in self._sets:
            raise IpsetError(f"no set {name!r}")
        del self._sets[name]
        self.gen += 1

    def get(self, name: str) -> Optional[IpSet]:
        return self._sets.get(name)

    def require(self, name: str) -> IpSet:
        ipset = self._sets.get(name)
        if ipset is None:
            raise IpsetError(f"no set {name!r}")
        return ipset

    def names(self) -> List[str]:
        return sorted(self._sets)
