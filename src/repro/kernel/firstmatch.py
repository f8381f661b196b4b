"""The first-match index every packet classifier in the tree uses.

It is the Lakshman–Stiliadis bitvector scheme: bit i of every vector
stands for rule i. Each dimension maps a packet field to the set of rules
it satisfies:

- src and dst: one ``{network: bits}`` table per distinct prefix mask,
  plus the bitset of the rules that leave the address wildcarded;
- protocol: one ``{proto: bits}`` table, plus the wildcard bitset.

The AND of the three vectors holds the candidate rules, and the lowest
set bit is the earliest rule in rule order. A rule that matches more than
these three fields (ports, interfaces, an ipset, conntrack state) stays a
candidate, and its owner decides it while walking :func:`set_bits`.

Users: the netfilter chains (``CompiledChain`` in
:mod:`repro.kernel.netfilter`, behind ``bpf_ipt_lookup`` and the slow
path) and the Polycube and VPP baselines' ``BitvectorClassifier``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.netsim.addresses import IPv4Prefix

# one rule's (src, dst, proto); None is a wildcard
RuleFields = Tuple[Optional[IPv4Prefix], Optional[IPv4Prefix], Optional[int]]
PrefixTables = Tuple[Tuple[int, Dict[int, int]], ...]


def _prefix_tables(prefixes: Iterable[Optional[IPv4Prefix]]) -> Tuple[PrefixTables, int]:
    """``((mask, {network: bits}), ...)`` and the wildcard bitset."""
    tables: Dict[int, Dict[int, int]] = {}
    wild = 0
    for i, prefix in enumerate(prefixes):
        if prefix is None:
            wild |= 1 << i
        else:
            table = tables.setdefault(prefix.mask_value(), {})
            network = prefix.address.value
            table[network] = table.get(network, 0) | 1 << i
    return tuple(tables.items()), wild


class FirstMatchIndex:
    """Rules' src prefix, dst prefix and protocol, as bitvector tables."""

    __slots__ = ("_src", "_src_wild", "_dst", "_dst_wild", "_proto", "_proto_wild")

    def __init__(self, rules: Iterable[RuleFields]) -> None:
        rules = list(rules)
        self._src, self._src_wild = _prefix_tables(src for src, __, __ in rules)
        self._dst, self._dst_wild = _prefix_tables(dst for __, dst, __ in rules)
        self._proto: Dict[int, int] = {}
        self._proto_wild = 0
        for i, (__, __, proto) in enumerate(rules):
            if proto is None:
                self._proto_wild |= 1 << i
            else:
                self._proto[proto] = self._proto.get(proto, 0) | 1 << i

    def candidates(self, src: int, dst: int, proto: int) -> int:
        """The bitset of the rules whose src, dst and protocol all match."""
        vector = self._src_wild
        for mask, table in self._src:
            vector |= table.get(src & mask, 0)
        if not vector:
            return 0
        dst_vector = self._dst_wild
        for mask, table in self._dst:
            dst_vector |= table.get(dst & mask, 0)
        return vector & dst_vector & (self._proto.get(proto, 0) | self._proto_wild)


def set_bits(vector: int) -> Iterator[int]:
    """The indices of ``vector``'s set bits, lowest (the first rule) first."""
    while vector:
        low = vector & -vector
        yield low.bit_length() - 1
        vector ^= low
