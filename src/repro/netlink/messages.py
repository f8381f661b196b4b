"""Netlink message types, flags, multicast groups, and binary encoding.

This mirrors the rtnetlink/nfnetlink families the LinuxFP controller listens
to. Message payloads are schema-encoded TLV attribute sets
(:mod:`repro.netlink.codec`); every message round-trips through bytes, which
is what travels over :class:`repro.netlink.bus.NetlinkBus`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List
from repro.netlink.codec import AttrSchema, CodecError, schema

# --- message types (values chosen to mirror rtnetlink where it has them) ---
NLMSG_ERROR = 0x2
NLMSG_DONE = 0x3

RTM_NEWLINK = 16
RTM_DELLINK = 17
RTM_GETLINK = 18
RTM_SETLINK = 19
RTM_NEWADDR = 20
RTM_DELADDR = 21
RTM_GETADDR = 22
RTM_NEWROUTE = 24
RTM_DELROUTE = 25
RTM_GETROUTE = 26
RTM_NEWNEIGH = 28
RTM_DELNEIGH = 29
RTM_GETNEIGH = 30
# bridge FDB entries (real rtnetlink reuses RTM_*NEIGH with AF_BRIDGE; we
# give them their own type ids for clarity)
RTM_NEWFDB = 40
RTM_DELFDB = 41
RTM_GETFDB = 42
# netfilter extensions (nfnetlink subsystem in real Linux)
NFT_NEWRULE = 64
NFT_DELRULE = 65
NFT_GETRULE = 66
NFT_SETPOLICY = 67
IPSET_NEWSET = 72
IPSET_DELSET = 73
IPSET_GETSET = 74
IPSET_ADDENTRY = 75
IPSET_DELENTRY = 76
# ipvs (genetlink IPVS family in real Linux)
IPVS_NEWSERVICE = 80
IPVS_DELSERVICE = 81
IPVS_GETSERVICE = 82
IPVS_NEWDEST = 83
IPVS_DELDEST = 84
# sysctl change notification (real Linux exposes sysctl via procfs; we carry
# the notification on the bus so the controller has one event source —
# documented divergence, see DESIGN.md)
SYSCTL_SET = 96
SYSCTL_GET = 97
# CPU hotplug notifications (real Linux announces these through the cpuhp
# state machine + udev, not netlink; carried on the bus so the controller
# keeps a single event source — same documented divergence as sysctl)
CPU_OFFLINE = 104
CPU_ONLINE = 105

# --- flags ---
NLM_F_REQUEST = 0x01
NLM_F_MULTI = 0x02
NLM_F_ACK = 0x04
NLM_F_DUMP = 0x300
NLM_F_CREATE = 0x400
NLM_F_EXCL = 0x200
NLM_F_REPLACE = 0x100

# --- multicast groups ---
RTNLGRP_LINK = "link"
RTNLGRP_IPV4_IFADDR = "ifaddr"
RTNLGRP_IPV4_ROUTE = "route"
RTNLGRP_NEIGH = "neigh"
RTNLGRP_FDB = "fdb"
NFNLGRP_IPTABLES = "iptables"
NFNLGRP_IPSET = "ipset"
GRP_IPVS = "ipvs"
GRP_SYSCTL = "sysctl"
GRP_CPU = "cpu"

ALL_GROUPS = (
    RTNLGRP_LINK,
    RTNLGRP_IPV4_IFADDR,
    RTNLGRP_IPV4_ROUTE,
    RTNLGRP_NEIGH,
    RTNLGRP_FDB,
    NFNLGRP_IPTABLES,
    NFNLGRP_IPSET,
    GRP_IPVS,
    GRP_SYSCTL,
    GRP_CPU,
)

# --- attribute schemas per family ---

LINKINFO_BRIDGE = schema(
    "linkinfo_bridge",
    stp_state=(1, "u8"),
    vlan_filtering=(2, "u8"),
    ageing_time=(3, "u32"),
)

LINKINFO_VXLAN = schema(
    "linkinfo_vxlan",
    vni=(1, "u32"),
    local=(2, "ip4"),
    port=(3, "u16"),
    underlay_ifindex=(4, "u32"),
)

LINKINFO_VETH = schema(
    "linkinfo_veth",
    peer_ifindex=(1, "u32"),
)

LINK_SCHEMA = schema(
    "link",
    ifindex=(1, "u32"),
    ifname=(2, "string"),
    kind=(3, "string"),
    operstate=(4, "u8"),  # 1 = up, 0 = down
    address=(5, "mac"),
    master=(6, "u32"),  # bridge ifindex when enslaved
    mtu=(7, "u32"),
    num_queues=(8, "u32"),
    bridge=(9, "nested", LINKINFO_BRIDGE),
    vxlan=(10, "nested", LINKINFO_VXLAN),
    veth=(11, "nested", LINKINFO_VETH),
    netns=(12, "string"),
)

ADDR_SCHEMA = schema(
    "addr",
    ifindex=(1, "u32"),
    address=(2, "ip4"),
    prefixlen=(3, "u8"),
)

ROUTE_SCHEMA = schema(
    "route",
    dst=(1, "ip4"),
    dst_len=(2, "u8"),
    gateway=(3, "ip4"),
    oif=(4, "u32"),
    table=(5, "u32"),
    scope=(6, "u8"),  # 0 = universe (via gateway), 253 = link (connected)
    metric=(7, "u32"),
    replace=(9, "flag"),  # NLM_F_REPLACE-style request
)

NEIGH_SCHEMA = schema(
    "neigh",
    ifindex=(1, "u32"),
    dst=(2, "ip4"),
    lladdr=(3, "mac"),
    state=(4, "u16"),
)

FDB_SCHEMA = schema(
    "fdb",
    ifindex=(1, "u32"),  # bridge port ifindex
    master=(2, "u32"),  # bridge ifindex
    lladdr=(3, "mac"),
    vlan=(4, "u16"),
    state=(5, "u16"),
    dst=(6, "ip4"),  # remote vtep IP for vxlan fdb entries (NDA_DST)
)

RULE_SCHEMA = schema(
    "nft_rule",
    table=(1, "string"),
    chain=(2, "string"),
    handle=(3, "u32"),
    src=(4, "ip4"),
    src_len=(5, "u8"),
    dst=(6, "ip4"),
    dst_len=(7, "u8"),
    proto=(8, "u8"),
    sport=(9, "u16"),
    dport=(10, "u16"),
    in_iface=(11, "string"),
    out_iface=(12, "string"),
    target=(13, "string"),  # ACCEPT | DROP | RETURN
    match_set=(14, "string"),  # ipset name
    set_dir=(15, "string"),  # src | dst
    policy=(16, "string"),
    ct_state=(17, "string"),  # NEW | ESTABLISHED (stateful match)
)

IPSET_ENTRY = schema(
    "ipset_entry",
    ip=(1, "ip4"),
    prefixlen=(2, "u8"),
)

IPSET_SCHEMA = schema(
    "ipset",
    name=(1, "string"),
    set_type=(2, "string"),  # hash:ip | hash:net
    entries=(3, "list", IPSET_ENTRY),
)

IPVS_SCHEMA = schema(
    "ipvs",
    vip=(1, "ip4"),
    vport=(2, "u16"),
    proto=(3, "u8"),
    scheduler=(4, "string"),
    rs=(5, "ip4"),
    rport=(6, "u16"),
    weight=(7, "u32"),
)

SYSCTL_SCHEMA = schema(
    "sysctl",
    name=(1, "string"),
    value=(2, "string"),
)

CPU_SCHEMA = schema(
    "cpu",
    cpu=(1, "u32"),
    num_online=(2, "u32"),
)

ERROR_SCHEMA = schema(
    "error",
    code=(1, "s32"),
    message=(2, "string"),
)

DONE_SCHEMA = schema("done")

SCHEMA_BY_TYPE: Dict[int, AttrSchema] = {
    NLMSG_ERROR: ERROR_SCHEMA,
    NLMSG_DONE: DONE_SCHEMA,
    RTM_NEWLINK: LINK_SCHEMA,
    RTM_DELLINK: LINK_SCHEMA,
    RTM_GETLINK: LINK_SCHEMA,
    RTM_SETLINK: LINK_SCHEMA,
    RTM_NEWADDR: ADDR_SCHEMA,
    RTM_DELADDR: ADDR_SCHEMA,
    RTM_GETADDR: ADDR_SCHEMA,
    RTM_NEWROUTE: ROUTE_SCHEMA,
    RTM_DELROUTE: ROUTE_SCHEMA,
    RTM_GETROUTE: ROUTE_SCHEMA,
    RTM_NEWNEIGH: NEIGH_SCHEMA,
    RTM_DELNEIGH: NEIGH_SCHEMA,
    RTM_GETNEIGH: NEIGH_SCHEMA,
    RTM_NEWFDB: FDB_SCHEMA,
    RTM_DELFDB: FDB_SCHEMA,
    RTM_GETFDB: FDB_SCHEMA,
    NFT_NEWRULE: RULE_SCHEMA,
    NFT_DELRULE: RULE_SCHEMA,
    NFT_GETRULE: RULE_SCHEMA,
    NFT_SETPOLICY: RULE_SCHEMA,
    IPSET_NEWSET: IPSET_SCHEMA,
    IPSET_DELSET: IPSET_SCHEMA,
    IPSET_GETSET: IPSET_SCHEMA,
    IPSET_ADDENTRY: IPSET_SCHEMA,
    IPSET_DELENTRY: IPSET_SCHEMA,
    IPVS_NEWSERVICE: IPVS_SCHEMA,
    IPVS_DELSERVICE: IPVS_SCHEMA,
    IPVS_GETSERVICE: IPVS_SCHEMA,
    IPVS_NEWDEST: IPVS_SCHEMA,
    IPVS_DELDEST: IPVS_SCHEMA,
    SYSCTL_SET: SYSCTL_SCHEMA,
    SYSCTL_GET: SYSCTL_SCHEMA,
    CPU_OFFLINE: CPU_SCHEMA,
    CPU_ONLINE: CPU_SCHEMA,
}

TYPE_NAMES = {
    value: name
    for name, value in globals().items()
    if name.startswith(("RTM_", "NFT_", "IPSET_", "IPVS_", "SYSCTL_", "CPU_", "NLMSG_")) and isinstance(value, int)
}

NLMSG_HDR = struct.Struct("<IHHII")  # length, type, flags, seq, pid


class NetlinkError(Exception):
    """An NLMSG_ERROR reply, raised on the requesting side."""

    def __init__(self, code: int, message: str = "") -> None:
        super().__init__(f"netlink error {code}: {message}")
        self.code = code
        self.message = message


@dataclass
class NetlinkMsg:
    """One netlink message: header fields plus a typed attribute dict."""

    msg_type: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    flags: int = NLM_F_REQUEST
    seq: int = 0
    pid: int = 0

    def to_bytes(self) -> bytes:
        msg_schema = SCHEMA_BY_TYPE.get(self.msg_type)
        if msg_schema is None:
            raise CodecError(f"no schema for message type {self.msg_type}")
        payload = msg_schema.encode(self.attrs)
        return NLMSG_HDR.pack(NLMSG_HDR.size + len(payload), self.msg_type, self.flags, self.seq, self.pid) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "NetlinkMsg":
        msgs = cls.parse_stream(data)
        if len(msgs) != 1:
            raise CodecError(f"expected exactly one message, got {len(msgs)}")
        return msgs[0]

    @classmethod
    def parse_stream(cls, data: bytes) -> List["NetlinkMsg"]:
        """Parse a byte stream possibly containing several messages."""
        msgs: List[NetlinkMsg] = []
        offset = 0
        while offset < len(data):
            if len(data) - offset < NLMSG_HDR.size:
                raise CodecError("truncated netlink header")
            length, msg_type, flags, seq, pid = NLMSG_HDR.unpack_from(data, offset)
            if length < NLMSG_HDR.size or offset + length > len(data):
                raise CodecError(f"bad netlink message length {length}")
            msg_schema = SCHEMA_BY_TYPE.get(msg_type)
            if msg_schema is None:
                raise CodecError(f"unknown message type {msg_type}")
            payload = data[offset + NLMSG_HDR.size : offset + length]
            msgs.append(cls(msg_type, msg_schema.decode(payload), flags, seq, pid))
            offset += length
        return msgs

    @property
    def type_name(self) -> str:
        return TYPE_NAMES.get(self.msg_type, str(self.msg_type))

    def is_error(self) -> bool:
        return self.msg_type == NLMSG_ERROR

    def raise_for_error(self) -> "NetlinkMsg":
        if self.is_error() and self.attrs.get("code", 0) != 0:
            raise NetlinkError(self.attrs.get("code", -1), self.attrs.get("message", ""))
        return self

    def __repr__(self) -> str:
        return f"NetlinkMsg({self.type_name}, {self.attrs})"


def error_msg(code: int, message: str = "", seq: int = 0) -> NetlinkMsg:
    return NetlinkMsg(NLMSG_ERROR, {"code": code, "message": message}, flags=0, seq=seq)


def ack_msg(seq: int = 0) -> NetlinkMsg:
    return NetlinkMsg(NLMSG_ERROR, {"code": 0, "message": ""}, flags=0, seq=seq)


def done_msg(seq: int = 0) -> NetlinkMsg:
    return NetlinkMsg(NLMSG_DONE, {}, flags=NLM_F_MULTI, seq=seq)
