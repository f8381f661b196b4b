"""The kernel helper registry.

Helpers are the LinuxFP state-unification mechanism: instead of mirroring
kernel state into maps, fast paths call into the kernel's own tables.
``bpf_fib_lookup`` exists in mainline Linux; ``bpf_fdb_lookup`` and
``bpf_ipt_lookup`` are the ~260 LoC of new helpers the paper adds (§V).

Each helper charges its calibrated cost to the kernel clock, receives the
VM's :class:`~repro.ebpf.vm.Env` plus up to five argument words, and returns
one word.

Return conventions (documented per helper) use 0 for success-with-output or
"handled", and small positive codes for "let the slow path handle it" — the
composition rule the paper's Table I encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.ebpf.maps import BpfMap, MapError
from repro.ebpf.memory import MemoryError_, Pointer
from repro.kernel.interfaces import BridgeDevice, DeviceError
from repro.kernel.netfilter import ACCEPT, DROP, FORWARD, HELPER, INPUT, OUTPUT
from repro.netsim.addresses import IPv4Addr, MacAddr
from repro.netsim.packet import Packet, PacketError, ipv4_fields
from repro.netsim.skbuff import SKBuff
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover
    from repro.ebpf.vm import Env

HelperFn = Callable[["Env", List[object]], int]

# fib_lookup / conntrack output buffer sizes
FIB_OUT_SIZE = 16  # oif u32 | smac 6 | dmac 6
CT_OUT_SIZE = 8  # dnat ip u32 | dnat port u16 | pad u16

# fib_lookup return codes (subset of BPF_FIB_LKUP_RET_*)
FIB_LKUP_RET_SUCCESS = 0
FIB_LKUP_RET_NOT_FWDED = 1  # no route: slow path decides
FIB_LKUP_RET_NO_NEIGH = 2  # route but unresolved neighbor: slow path ARPs

# ipt_lookup verdicts
IPT_ACCEPT = 0
IPT_DROP = 1
IPT_UNSUPPORTED = 2  # rule features beyond the fast path: go slow

# ipt_lookup chain ids
_IPT_CHAINS = {0: INPUT, 1: FORWARD, 2: OUTPUT}


class HelperError(Exception):
    """Raised when a helper is called with invalid arguments."""


def _as_int(value: object, what: str) -> int:
    if not isinstance(value, int):
        raise HelperError(f"{what}: expected scalar, got {value!r}")
    return value


def _as_ptr(value: object, what: str) -> Pointer:
    if not isinstance(value, Pointer):
        raise HelperError(f"{what}: expected pointer, got {value!r}")
    return value


def _as_map(value: object, what: str) -> BpfMap:
    if not isinstance(value, BpfMap):
        raise HelperError(f"{what}: expected map reference, got {value!r}")
    return value


# --------------------------------------------------------------- map helpers

def bpf_map_read(env: "Env", args: List[object]) -> int:
    """(map, key_ptr, out_ptr) → 1 and copy value to out, or 0 on miss."""
    bpf_map = _as_map(args[0], "map_read")
    env.kernel.costs_charge("ebpf_lpm_lookup" if bpf_map.map_type == "lpm_trie" else "ebpf_map_lookup")
    key_ptr = _as_ptr(args[1], "map_read key")
    out_ptr = _as_ptr(args[2], "map_read out")
    key = key_ptr.region.read_bytes(key_ptr.offset, bpf_map.key_size)
    try:
        value = bpf_map.lookup(key)
    except (MapError, NotImplementedError):
        value = None  # bad key shape / non-readable map type: a miss
    if value is None:
        return 0
    out_ptr.region.write_bytes(out_ptr.offset, value)
    return 1


def bpf_map_update_elem(env: "Env", args: List[object]) -> int:
    """(map, key_ptr, value_ptr) → 0 on success, 1 on a rejected update.

    A full map, a malformed key (bad LPM prefix length, out-of-range array
    index) or a control-plane-only map type is an *error code*, not a
    program abort — the verifier cannot see map contents, so the runtime
    must keep these failure modes total for verified programs.
    """
    env.kernel.costs_charge("ebpf_map_update")
    bpf_map = _as_map(args[0], "map_update")
    key_ptr = _as_ptr(args[1], "map_update key")
    value_ptr = _as_ptr(args[2], "map_update value")
    key = key_ptr.region.read_bytes(key_ptr.offset, bpf_map.key_size)
    value = value_ptr.region.read_bytes(value_ptr.offset, bpf_map.value_size)
    try:
        bpf_map.update(key, value)
    except (MapError, NotImplementedError, faults.InjectedFault):
        # Totality: a full map, an injected fault, or a bad key is an error
        # *code* for the program (it typically falls back to PASS), never an
        # exception escaping the hook. The failure stays visible through the
        # map's pressure counter.
        bpf_map.update_errors += 1
        return 1
    return 0


# ----------------------------------------------------------- kernel helpers

def bpf_fib_lookup(env: "Env", args: List[object]) -> int:
    """(dst_ip, out_ptr) → FIB_LKUP_RET_*.

    On SUCCESS writes 16 bytes to out: oif u32 | src mac 6B | dst mac 6B —
    the rewrite data mainline's ``bpf_fib_lookup`` produces by consulting the
    kernel FIB *and* neighbor table.
    """
    kernel = env.kernel
    kernel.costs_charge("helper_fib_lookup")
    dst = IPv4Addr(_as_int(args[0], "fib dst") & 0xFFFFFFFF)
    out = _as_ptr(args[1], "fib out")
    # Locally-addressed packets are not forwarded (mainline returns
    # BPF_FIB_LKUP_RET_NOT_FWDED for local/host routes).
    if kernel.devices.is_local(dst):
        return FIB_LKUP_RET_NOT_FWDED
    route = kernel.fib.lookup(dst)
    if route is None:
        return FIB_LKUP_RET_NOT_FWDED
    oif = route.oif
    mac = kernel.neighbors.resolved(oif, route.gateway or dst)
    if mac is None:
        return FIB_LKUP_RET_NO_NEIGH
    out_dev = kernel.devices.by_index(oif)
    payload = ((oif << 96) | (out_dev.mac.value << 48) | mac.value).to_bytes(FIB_OUT_SIZE, "big")
    out.region.write_bytes(out.offset, payload)
    return FIB_LKUP_RET_SUCCESS


def bpf_fdb_lookup(env: "Env", args: List[object]) -> int:
    """(bridge_ifindex, ingress_ifindex, vlan, mac48, is_src) → egress ifindex.

    The paper's new bridge helper. Returns the learned egress port ifindex,
    or 0 when the slow path must take over: FDB miss (flooding), aged entry,
    entry pointing at a non-forwarding (STP) port, the bridge's own MAC
    (local delivery), or — for ``is_src=1`` checks — a source MAC that still
    needs learning/refresh, or an ingress port that may not forward.
    """
    kernel = env.kernel
    kernel.costs_charge("helper_fdb_lookup")
    bridge_ifindex = _as_int(args[0], "fdb bridge")
    ingress_ifindex = _as_int(args[1], "fdb ingress")
    vlan = _as_int(args[2], "fdb vlan")
    mac = MacAddr(_as_int(args[3], "fdb mac") & ((1 << 48) - 1))
    is_src = bool(_as_int(args[4], "fdb is_src"))
    try:
        bridge_dev = kernel.devices.by_index(bridge_ifindex)
    except DeviceError:
        return 0
    if not isinstance(bridge_dev, BridgeDevice):
        return 0
    bridge = bridge_dev.bridge

    ingress_port = bridge.ports.get(ingress_ifindex)
    if ingress_port is None or (bridge.stp_enabled and not ingress_port.forwarding):
        return 0
    if bridge.vlan_filtering and vlan not in ingress_port.allowed_vlans and vlan != ingress_port.pvid:
        return 0

    entry = bridge.fdb.get((mac, vlan))
    if entry is None:
        return 0
    if not entry.is_local and not entry.is_static:
        if kernel.clock.now_ns - entry.updated_ns > bridge.ageing_time_ns:
            return 0  # aged: slow path re-learns

    if is_src:
        # Fresh source entry on the right port: no learning work needed.
        return entry.port_ifindex if entry.port_ifindex == ingress_ifindex else 0

    if entry.is_local:
        return 0  # to the bridge itself: local delivery in the slow path
    egress_port = bridge.ports.get(entry.port_ifindex)
    if egress_port is None or not egress_port.forwarding:
        return 0
    if bridge.vlan_filtering and not bridge.egress_allowed(egress_port, vlan):
        return 0
    if entry.port_ifindex == ingress_ifindex:
        return 0  # hairpin: let the slow path decide (it drops)
    return entry.port_ifindex


def bpf_ipt_lookup(env: "Env", args: List[object]) -> int:
    """(chain_id, pkt_ptr, pkt_len, in_ifindex, out_ifindex) → IPT_*.

    The paper's new iptables helper: evaluates the filter chain against the
    packet using the kernel's own rule list and the slow path's first-match
    scan (:meth:`~repro.kernel.netfilter.Netfilter.scan`), ipset-aggregated
    rules included. The fast path inherits iptables' linear scaling (Fig 8):
    the scan is charged per rule visited.

    The scan reads src, dst and protocol straight from the frame's header
    (:func:`~repro.netsim.packet.ipv4_fields`). The frame is parsed in full
    only when that reader declines it or when a candidate rule matches more
    than those three fields; ``Netfilter.helper_parses`` counts such lookups.
    """
    kernel = env.kernel
    kernel.costs_charge("helper_ipt_base")
    chain_name = _IPT_CHAINS.get(_as_int(args[0], "ipt chain"))
    if chain_name is None:
        return IPT_UNSUPPORTED
    pkt_ptr = _as_ptr(args[1], "ipt pkt")
    pkt_len = _as_int(args[2], "ipt len")
    try:
        frame = pkt_ptr.region.read_bytes(pkt_ptr.offset, pkt_len)
    except MemoryError_:
        return IPT_UNSUPPORTED
    netfilter = kernel.netfilter
    pkt = None
    fields = ipv4_fields(frame)
    if fields is None:
        netfilter.helper_parses[chain_name] += 1
        try:
            pkt = Packet.from_bytes(frame)
        except PacketError:
            return IPT_UNSUPPORTED
        if pkt.ip is None:
            return IPT_ACCEPT
        fields = (pkt.ip.src.value, pkt.ip.dst.value, pkt.ip.proto)

    def skb_of() -> SKBuff:
        if pkt is not None:
            return SKBuff(pkt=pkt)
        netfilter.helper_parses[chain_name] += 1
        return SKBuff(pkt=Packet.from_bytes(frame))

    def name_of(ifindex: int):
        if ifindex == 0:
            return None
        try:
            return kernel.devices.by_index(ifindex).name
        except DeviceError:
            return None

    in_name = name_of(_as_int(args[3], "ipt in"))
    out_name = name_of(_as_int(args[4], "ipt out"))
    rule, scanned, ipset_scanned = netfilter.scan(chain_name, HELPER, fields, skb_of, in_name, out_name)
    if scanned:
        costs = kernel.costs
        kernel.charge_ns(scanned * costs.helper_ipt_per_rule + ipset_scanned * costs.helper_ipset_lookup)
    if rule is None:
        return IPT_ACCEPT if netfilter.chain(chain_name).policy == ACCEPT else IPT_DROP
    if rule.ct_state is not None:
        # the scan stopped at a stateful rule: it needs conntrack context
        # the helper does not carry (the paper's helper matches addresses
        # and protocol only), so the slow path tracks and evaluates it
        return IPT_UNSUPPORTED
    if rule.target == ACCEPT:
        return IPT_ACCEPT
    if rule.target == DROP:
        return IPT_DROP
    return IPT_UNSUPPORTED  # RETURN: the slow path falls through to the policy


def bpf_conntrack_lookup(env: "Env", args: List[object]) -> int:
    """(src_ip, dst_ip, proto, ports(sport<<16|dport), out_ptr) → 1 hit / 0.

    Supports the prototype ipvs FPM: a hit writes the pinned DNAT target
    (ip u32 | port u16 | pad) into out.
    """
    kernel = env.kernel
    kernel.costs_charge("helper_conntrack")
    from repro.kernel.conntrack import ConnTuple

    ports = _as_int(args[3], "ct ports")
    tup = ConnTuple(
        IPv4Addr(_as_int(args[0], "ct src") & 0xFFFFFFFF),
        IPv4Addr(_as_int(args[1], "ct dst") & 0xFFFFFFFF),
        _as_int(args[2], "ct proto"),
        (ports >> 16) & 0xFFFF,
        ports & 0xFFFF,
    )
    entry = kernel.conntrack.lookup(tup)
    if entry is None or entry.dnat_to is None:
        return 0
    out = _as_ptr(args[4], "ct out")
    ip, port = entry.dnat_to
    out.region.write_bytes(out.offset, ip.to_bytes() + port.to_bytes(2, "big") + b"\x00\x00")
    entry.packets += 1
    return 1


def bpf_redirect(env: "Env", args: List[object]) -> int:
    """(ifindex, flags) → the hook's REDIRECT verdict; records the target."""
    env.redirect_ifindex = _as_int(args[0], "redirect ifindex")
    return env.redirect_verdict


def pcn_classify(env: "Env", args: List[object]) -> int:
    """(classifier_map, pkt_ptr, pkt_len) → 0 ACCEPT / 1 DROP.

    The Polycube baseline's bitvector classifier step. Cost is nearly flat
    in rule count (the platform's answer to iptables' linear scan, Fig 8).
    """
    kernel = env.kernel
    classifier_map = _as_map(args[0], "pcn_classify")
    classifier = getattr(classifier_map, "classifier", None)
    if classifier is None:
        raise HelperError("pcn_classify needs a ClassifierMap")
    kernel.charge_ns(
        kernel.costs.polycube_classifier + len(classifier) * kernel.costs.polycube_classifier_per_rule
    )
    pkt_ptr = _as_ptr(args[1], "pcn_classify pkt")
    pkt_len = _as_int(args[2], "pcn_classify len")
    return classifier.classify_frame(pkt_ptr.region.read_bytes(pkt_ptr.offset, pkt_len))


def bpf_trace_printk(env: "Env", args: List[object]) -> int:
    """(a, b, c) → 0; records a trace tuple for debugging/tests."""
    env.trace.append(tuple(_as_int(a, "trace") if isinstance(a, int) else repr(a) for a in args[:3]))
    return 0


# ------------------------------------------------------------ signatures

U64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class ArgSpec:
    """One declared helper argument, as the static verifier checks it.

    ``kind`` is ``scalar`` / ``map`` / ``ptr`` / ``any`` (``any`` accepts
    anything, including uninitialized — only ``trace_printk`` uses it).
    For ``map`` arguments, ``map_types`` restricts the accepted
    ``map_type`` strings and ``byte_addressable`` additionally requires the
    map's keys/values to be readable as raw bytes (prog arrays and
    classifier handles are not). For ``ptr`` arguments the pointed-to size
    is a fixed byte count (``size``), the key/value size of the map passed
    in argument ``map_from`` (``size="map_key"``/``"map_value"``), or the
    value of another argument (``size_from``, 0-based); ``writes`` marks
    output buffers the helper fills.
    """

    kind: str
    map_types: Tuple[str, ...] = ()
    byte_addressable: bool = False
    size: Optional[Union[int, str]] = None
    size_from: Optional[int] = None
    map_from: int = 0
    writes: bool = False


@dataclass(frozen=True)
class HelperSig:
    """A helper's declared signature: argument specs plus return range.

    ``ret`` is an inclusive u64 ``(lo, hi)`` interval. It must be a sound
    over-approximation of every value the helper can return, since the
    verifier prunes branches with it. Every helper returns a scalar.
    """

    name: str
    args: Tuple[ArgSpec, ...]
    ret: Tuple[int, int] = (0, U64_MAX)


_SCALAR = ArgSpec("scalar")
_BYTE_MAP = ArgSpec("map", byte_addressable=True)
_KEY_PTR = ArgSpec("ptr", size="map_key")

HELPER_SIGS: Dict[int, HelperSig] = {
    2: HelperSig("map_read", (_BYTE_MAP, _KEY_PTR, ArgSpec("ptr", size="map_value", writes=True)), ret=(0, 1)),
    3: HelperSig("map_update", (_BYTE_MAP, _KEY_PTR, ArgSpec("ptr", size="map_value")), ret=(0, 1)),
    6: HelperSig("fib_lookup", (_SCALAR, ArgSpec("ptr", size=FIB_OUT_SIZE, writes=True)), ret=(0, 2)),
    7: HelperSig("fdb_lookup", (_SCALAR,) * 5),
    8: HelperSig("ipt_lookup", (_SCALAR, ArgSpec("ptr", size_from=2), _SCALAR, _SCALAR, _SCALAR), ret=(0, 2)),
    9: HelperSig("conntrack_lookup", (_SCALAR,) * 4 + (ArgSpec("ptr", size=CT_OUT_SIZE, writes=True),), ret=(0, 1)),
    10: HelperSig("redirect", (_SCALAR, _SCALAR)),
    12: HelperSig("trace_printk", (ArgSpec("any"),) * 3, ret=(0, 0)),
    13: HelperSig("pcn_classify", (ArgSpec("map", map_types=("pcn_classifier",)), ArgSpec("ptr", size_from=2), _SCALAR)),
}


# ------------------------------------------------------------------ registry

HELPERS: Dict[int, Tuple[str, HelperFn]] = {
    2: ("map_read", bpf_map_read),
    3: ("map_update", bpf_map_update_elem),
    6: ("fib_lookup", bpf_fib_lookup),
    7: ("fdb_lookup", bpf_fdb_lookup),
    8: ("ipt_lookup", bpf_ipt_lookup),
    9: ("conntrack_lookup", bpf_conntrack_lookup),
    10: ("redirect", bpf_redirect),
    12: ("trace_printk", bpf_trace_printk),
    13: ("pcn_classify", pcn_classify),
}


HELPER_IDS: Dict[str, int] = {name: hid for hid, (name, __) in HELPERS.items()}

# Helpers present in mainline Linux vs the ones the paper adds; the LinuxFP
# Capability Manager consults this split (§V "Helper Functions"). Every
# registered helper belongs to exactly one of these sets (a unit-tested
# invariant); ``BASELINE_HELPERS`` holds the Polycube-baseline machinery that
# models platform code rather than a kernel helper.
MAINLINE_HELPERS = {"map_read", "map_update", "fib_lookup", "redirect", "trace_printk"}
LINUXFP_HELPERS = {"fdb_lookup", "ipt_lookup", "conntrack_lookup"}
BASELINE_HELPERS = {"pcn_classify"}
