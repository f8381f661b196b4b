"""Network simulation substrate: addresses, packets, NICs, time and cost model.

This package provides the low-level building blocks shared by the simulated
Linux kernel (:mod:`repro.kernel`), the eBPF runtime (:mod:`repro.ebpf`) and
the measurement harness (:mod:`repro.measure`):

- :mod:`repro.netsim.addresses` — MAC/IPv4 address and prefix types, and
  the one longest-prefix-match table.
- :mod:`repro.netsim.packet` — byte-accurate Ethernet/VLAN/ARP/IPv4/TCP/UDP/
  ICMP headers with pack/parse round-tripping.
- :mod:`repro.netsim.skbuff` — the ``sk_buff``-like packet descriptor.
- :mod:`repro.netsim.nic` — simulated NICs, queues, and wires between hosts.
- :mod:`repro.netsim.clock` / :mod:`repro.netsim.cost` — the simulated
  femtosecond clock and the calibrated per-operation cost model that all
  throughput/latency results derive from.
- :mod:`repro.netsim.profiler` — call-frame recording for flame graphs.
"""

from repro.netsim.addresses import MacAddr, IPv4Addr, IPv4Prefix
from repro.netsim.clock import Clock
from repro.netsim.cost import CostModel
from repro.netsim.packet import (
    ARP,
    ICMP,
    IPv4,
    TCP,
    UDP,
    Ethernet,
    Packet,
    VlanTag,
)
from repro.netsim.skbuff import SKBuff
from repro.netsim.nic import NIC, Wire
from repro.netsim.profiler import Profiler

__all__ = [
    "MacAddr",
    "IPv4Addr",
    "IPv4Prefix",
    "Clock",
    "CostModel",
    "Ethernet",
    "VlanTag",
    "ARP",
    "IPv4",
    "TCP",
    "UDP",
    "ICMP",
    "Packet",
    "SKBuff",
    "NIC",
    "Wire",
    "Profiler",
]
