"""The drop-reason registry: ``SKB_DROP_REASON`` for the simulated stack.

Every discard site in the pipeline names a registered reason when it throws
a packet away (``Stack.drop``), exactly like the kernel's ``kfree_skb``
drop-reason infrastructure. The registry is the single source of truth:
``Stack.drop`` refuses unregistered names at runtime, and the fpmtool
self-check (:func:`self_check`) statically greps the discard sites so a new
``drop("...")`` call without a registration — or a registered reason whose
site was deleted — fails CI.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional


class UnknownDropReason(KeyError):
    """A discard site named a reason the registry does not know."""


@dataclass(frozen=True)
class DropReason:
    name: str
    subsys: str  # the layer that discards: xdp, tc, l2, bridge, ip, netfilter, …
    description: str


_REGISTRY: Dict[str, DropReason] = {}


def register_drop_reason(name: str, subsys: str, description: str) -> DropReason:
    if name in _REGISTRY:
        raise ValueError(f"drop reason {name!r} already registered")
    reason = DropReason(name=name, subsys=subsys, description=description)
    _REGISTRY[name] = reason
    return reason


def drop_reason(name: str) -> DropReason:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownDropReason(
            f"unregistered drop reason {name!r}; add it to repro.observability.drop_reasons"
        ) from None


def all_reasons() -> List[DropReason]:
    return list(_REGISTRY.values())


def reason_names() -> List[str]:
    return list(_REGISTRY)


# --------------------------------------------------------------- the catalog

# driver / XDP hook
register_drop_reason("xdp_drop", "xdp", "attached XDP program returned XDP_DROP")
register_drop_reason("xdp_aborted", "xdp", "XDP program aborted (memory fault or bad verdict)")

# TC hooks
register_drop_reason("tc_shot", "tc", "TC ingress program returned TC_ACT_SHOT")
register_drop_reason("tc_aborted", "tc", "TC ingress program aborted; treated as SHOT")
register_drop_reason("tc_egress_shot", "tc", "TC egress program returned TC_ACT_SHOT")

# softirq dispatch
register_drop_reason(
    "backlog_overflow",
    "softirq",
    "per-CPU backlog queue at net.core.netdev_max_backlog; frame discarded at enqueue",
)

# L2
register_drop_reason("malformed", "l2", "frame failed to parse as ethernet/IPv4")
register_drop_reason("unknown_ethertype", "l2", "no handler for the frame's ethertype")
register_drop_reason("dev_link_down", "l2", "device transmit with no carrier (peer down or link flap)")

# bridging
register_drop_reason("bridge_port_disabled", "bridge", "ingress port missing or STP-disabled")
register_drop_reason("bridge_stp_blocked", "bridge", "STP holds the ingress port out of forwarding")
register_drop_reason("bridge_vlan_filtered", "bridge", "frame's VLAN not allowed on the ingress port")
register_drop_reason("bridge_egress_filtered", "bridge", "egress port blocked or VLAN-filtered")
register_drop_reason("bridge_flood_empty", "bridge", "FDB miss flooded to zero eligible ports")
register_drop_reason("bridge_same_port", "bridge", "FDB points back out the ingress port")

# IP receive / forward
register_drop_reason("not_forwarding", "ip", "ip_forward sysctl disabled for a transit packet")
register_drop_reason("martian_source", "ip", "rp_filter: loopback/multicast/broadcast source on the forward path")
register_drop_reason("ttl_exceeded", "ip", "TTL reached zero while forwarding")
register_drop_reason("no_route", "ip", "FIB lookup failed on the forward path")
register_drop_reason("no_route_out", "ip", "FIB lookup failed for locally-generated output")

# netfilter
register_drop_reason("nf_input", "netfilter", "filter/INPUT verdict DROP")
register_drop_reason("nf_forward", "netfilter", "filter/FORWARD verdict DROP")
register_drop_reason("nf_output", "netfilter", "filter/OUTPUT verdict DROP")
register_drop_reason("conntrack_full", "netfilter", "conntrack table at nf_conntrack_max and early-drop found no victim")

# neighbor resolution
register_drop_reason("neigh_queue_full", "neigh", "ARP resolution queue overflowed")

# fragmentation
register_drop_reason("frag_needed_df", "frag", "packet exceeds egress MTU and cannot fragment")
register_drop_reason("frag_timeout", "frag", "reassembly queue expired before completing")

# vxlan
register_drop_reason("vxlan_malformed", "vxlan", "VXLAN header truncated or VNI flag missing")
register_drop_reason("vxlan_no_vni", "vxlan", "no (up) vxlan device for the received VNI")
register_drop_reason("vxlan_no_remote", "vxlan", "vtep FDB miss: no remote for the frame's dst MAC")

# ipvs
register_drop_reason("ipvs_no_dest", "ipvs", "virtual service has no usable real server")

# local delivery
register_drop_reason("no_socket", "local", "no listening socket for a local packet")


# ------------------------------------------------------------- static check

#: Files whose ``drop("...")`` call sites the self-check audits.
DROP_SITE_GLOBS = (
    "kernel/*.py",
    "ebpf/hooks.py",
)

_SITE_RE = re.compile(r'\bdrop\(\s*["\']([a-z0-9_]+)["\']')


def scan_drop_sites(src_root: Optional[str] = None) -> Dict[str, List[str]]:
    """Grep the pipeline sources for ``drop("reason")`` call sites.

    Returns reason name -> list of ``file:line`` locations.
    """
    root = Path(src_root) if src_root is not None else Path(__file__).resolve().parent.parent
    sites: Dict[str, List[str]] = {}
    for pattern in DROP_SITE_GLOBS:
        for path in sorted(root.glob(pattern)):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                for match in _SITE_RE.finditer(line):
                    sites.setdefault(match.group(1), []).append(f"{path.name}:{lineno}")
    return sites


def self_check(src_root: Optional[str] = None, extra_known: Iterable[str] = ()) -> List[str]:
    """Registry completeness audit; returns problem descriptions (empty = ok).

    Two-way check: every grep-discovered discard site must name a registered
    reason, and every registered reason must still have at least one site.
    """
    problems: List[str] = []
    sites = scan_drop_sites(src_root)
    known = set(extra_known)
    for name, locations in sorted(sites.items()):
        if name not in _REGISTRY:
            problems.append(
                f"unregistered drop reason {name!r} used at {', '.join(locations)}"
            )
    for name in _REGISTRY:
        if name not in sites and name not in known:
            problems.append(f"registered drop reason {name!r} has no discard site")
    return problems
