"""Polycube's bitvector packet classifier (Lakshman–Stiliadis style).

Polycube's iptables replacement compiles the ruleset into per-dimension
match tables whose results are intersected as bitvectors, making
classification cost nearly independent of rule count: the flat Polycube
curve in the paper's Fig 8. The tables are the tree's one
:class:`~repro.kernel.firstmatch.FirstMatchIndex` over src, dst and
protocol, which netfilter's chains use too; dport is checked on the
candidates in rule order. The simulated cost is the platform's own:
``pcn_classify`` charges a flat base plus a small per-rule share, and VPP
charges its ACL per rule.

The compiled classifier lives in a :class:`ClassifierMap` (a custom BpfMap
subclass) owned by Polycube's control plane — precisely the duplicated
state LinuxFP's helper-based design avoids. VPP's ACL uses the same
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.ebpf.maps import BpfMap
from repro.kernel.firstmatch import FirstMatchIndex, set_bits
from repro.netsim.addresses import IPv4Prefix
from repro.netsim.packet import Packet, PacketError

ACCEPT = 0
DROP = 1


@dataclass
class ClassifierRule:
    action: int  # ACCEPT | DROP
    src: Optional[IPv4Prefix] = None
    dst: Optional[IPv4Prefix] = None
    proto: Optional[int] = None
    dport: Optional[int] = None


class BitvectorClassifier:
    """Compiled ruleset: the first-match index, then dport in rule order.
    A frame that no rule matches is accepted."""

    def __init__(self, rules: List[ClassifierRule]) -> None:
        self.rules = list(rules)
        self._index = FirstMatchIndex((rule.src, rule.dst, rule.proto) for rule in self.rules)

    def classify_fields(
        self, src: int, dst: int, proto: int, dport: Optional[int]
    ) -> Tuple[int, Optional[int]]:
        """Returns (action, matched_rule_index)."""
        for i in set_bits(self._index.candidates(src, dst, proto)):
            rule = self.rules[i]
            if rule.dport is None or rule.dport == dport:
                return rule.action, i
        return ACCEPT, None

    def classify_frame(self, frame: bytes) -> int:
        try:
            pkt = Packet.from_bytes(frame)
        except PacketError:
            return ACCEPT
        if pkt.ip is None:
            return ACCEPT
        dport = getattr(pkt.l4, "dport", None)
        action, __ = self.classify_fields(pkt.ip.src.value, pkt.ip.dst.value, pkt.ip.proto, dport)
        return action

    def __len__(self) -> int:
        return len(self.rules)


class ClassifierMap(BpfMap):
    """The eBPF-visible handle to a compiled classifier.

    Polycube embeds classification logic in its generated datapath; we model
    it as an opaque map consulted by the ``pcn_classify`` helper, with cost
    ``polycube_classifier + rules × polycube_classifier_per_rule``.
    """

    map_type = "pcn_classifier"
    byte_addressable = False  # consulted via pcn_classify, never byte-read

    def __init__(self, name: str) -> None:
        super().__init__(name, key_size=4, value_size=4, max_entries=1)
        self.classifier = BitvectorClassifier([])

    def recompile(self, rules: List[ClassifierRule]) -> None:
        self.classifier = BitvectorClassifier(rules)

    def lookup(self, key: bytes) -> Optional[bytes]:
        raise NotImplementedError("classifier maps are consulted via pcn_classify")

    def update(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError("classifier maps are compiled by the control plane")
