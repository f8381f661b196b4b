"""Linux-style software bridging: FDB, learning, flooding, VLAN, STP.

The split between fast and slow path follows Table I of the paper exactly:
FDB lookup and L2 forwarding are simple per-packet work (acceleratable);
learning refresh, aging, FDB-miss flooding, and STP BPDU processing stay in
this slow path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.netsim.addresses import MacAddr
from repro.netsim.packet import Packet
from repro.netsim.skbuff import SKBuff

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.interfaces import BridgeDevice, NetDevice

# STP port states
STP_DISABLED = 0
STP_BLOCKING = 1
STP_LEARNING = 3
STP_FORWARDING = 4

STP_MULTICAST = MacAddr.parse("01:80:c2:00:00:00")

DEFAULT_AGEING_NS = 300 * 1_000_000_000  # 300s, the Linux default
DEFAULT_PRIORITY = 0x8000


class BridgeError(ValueError):
    """Raised for invalid bridge operations."""


@dataclass
class BridgePort:
    device: "NetDevice"
    state: int = STP_FORWARDING
    pvid: int = 1
    allowed_vlans: Set[int] = field(default_factory=lambda: {1})
    path_cost: int = 100
    # best BPDU heard on this port: (root_id, cost, sender_bridge_id)
    best_bpdu: Optional[Tuple[int, int, int]] = None

    @property
    def forwarding(self) -> bool:
        return self.state == STP_FORWARDING

    @property
    def learning(self) -> bool:
        return self.state in (STP_LEARNING, STP_FORWARDING)


@dataclass
class FdbEntry:
    mac: MacAddr
    vlan: int
    port_ifindex: int
    updated_ns: int = 0
    is_local: bool = False  # the bridge/port's own MAC
    is_static: bool = False  # installed by management, exempt from aging


class Bridge:
    """Bridge state and slow-path frame handling for one bridge device."""

    def __init__(self, device: "BridgeDevice") -> None:
        self.device = device
        self.ports: Dict[int, BridgePort] = {}
        self.fdb: Dict[Tuple[MacAddr, int], FdbEntry] = {}
        self.stp_enabled = False
        self.vlan_filtering = False
        self.ageing_time_ns = DEFAULT_AGEING_NS
        self.priority = DEFAULT_PRIORITY
        # learned-root state for the simplified STP
        self.root_id = self.bridge_id
        self.root_cost = 0
        self.root_port: Optional[int] = None
        self.flood_count = 0
        self.fdb_miss_count = 0

    @property
    def kernel(self):
        return self.device.kernel

    @property
    def bridge_id(self) -> int:
        return (self.priority << 48) | self.device.mac.value

    # --- port management ---

    def add_port(self, device: "NetDevice") -> BridgePort:
        if device.ifindex in self.ports:
            raise BridgeError(f"{device.name} already enslaved")
        if device.master is not None:
            raise BridgeError(f"{device.name} already has a master")
        port = BridgePort(device=device)
        self.ports[device.ifindex] = port
        device.master = self.device.ifindex
        self.fdb[(device.mac, port.pvid)] = FdbEntry(
            mac=device.mac, vlan=port.pvid, port_ifindex=device.ifindex, is_local=True
        )
        return port

    def remove_port(self, device: "NetDevice") -> None:
        if device.ifindex not in self.ports:
            raise BridgeError(f"{device.name} is not a port of {self.device.name}")
        del self.ports[device.ifindex]
        device.master = None
        for key in [k for k, e in self.fdb.items() if e.port_ifindex == device.ifindex]:
            del self.fdb[key]

    # --- FDB ---

    def fdb_lookup(self, mac: MacAddr, vlan: int) -> Optional[FdbEntry]:
        self.kernel.costs_charge("bridge_fdb_lookup")
        entry = self.fdb.get((mac, vlan))
        if entry is None:
            return None
        if (
            not entry.is_local
            and not entry.is_static
            and self.kernel.clock.now_ns - entry.updated_ns > self.ageing_time_ns
        ):
            del self.fdb[(mac, vlan)]
            return None
        return entry

    def fdb_learn(self, mac: MacAddr, vlan: int, port_ifindex: int, static: bool = False) -> None:
        if mac.is_multicast:
            return
        self.kernel.costs_charge("bridge_fdb_learn")
        self.fdb[(mac, vlan)] = FdbEntry(
            mac=mac,
            vlan=vlan,
            port_ifindex=port_ifindex,
            updated_ns=self.kernel.clock.now_ns,
            is_static=static,
        )

    def age_fdb(self) -> int:
        """Expire dynamic entries past the ageing time; returns count removed."""
        now = self.kernel.clock.now_ns
        expired = [
            key
            for key, entry in self.fdb.items()
            if not entry.is_local and not entry.is_static and now - entry.updated_ns > self.ageing_time_ns
        ]
        for key in expired:
            del self.fdb[key]
        return len(expired)

    # --- VLAN helpers ---

    def classify_vlan(self, port: BridgePort, skb: SKBuff) -> Optional[int]:
        """The VLAN a frame belongs to, or None when it must be filtered."""
        if not self.vlan_filtering:
            return port.pvid
        self.kernel.costs_charge("bridge_vlan_filter")
        if skb.pkt.vlan is None:
            return port.pvid
        vid = skb.pkt.vlan.vid
        return vid if vid in port.allowed_vlans else None

    def egress_allowed(self, port: BridgePort, vlan: int) -> bool:
        if not self.vlan_filtering:
            return True
        return vlan in port.allowed_vlans

    # --- frame handling (called from the stack's slow path) ---

    def handle_frame(self, ingress: "NetDevice", skb: SKBuff) -> Optional[SKBuff]:
        """Process a frame arriving on an enslaved port.

        Returns the skb when it should continue up the stack (L3 processing
        on the bridge interface); returns None when the bridge consumed it
        (forwarded, flooded, or dropped).
        """
        self.kernel.costs_charge("bridge_rx")
        stack = self.kernel.stack
        port = self.ports.get(ingress.ifindex)
        if port is None or port.state == STP_DISABLED:
            stack.drop("bridge_port_disabled", ingress, skb)
            return None

        dst = skb.pkt.eth.dst
        src = skb.pkt.eth.src

        # Link-local control traffic (BPDUs) always goes to the control plane.
        if dst == STP_MULTICAST:
            self.process_bpdu(port, skb)
            stack.finish("bridge_bpdu", ingress, skb)
            return None

        if self.stp_enabled:
            self.kernel.costs_charge("bridge_stp_check")
            if not port.learning:
                stack.drop("bridge_stp_blocked", ingress, skb)
                return None

        vlan = self.classify_vlan(port, skb)
        if vlan is None:
            stack.drop("bridge_vlan_filtered", ingress, skb)
            return None

        self.fdb_learn(src, vlan, ingress.ifindex)

        if self.stp_enabled and not port.forwarding:
            # learning-only state: absorb data frames
            stack.drop("bridge_stp_blocked", ingress, skb)
            return None

        # Traffic addressed to the bridge itself continues up the stack.
        if dst == self.device.mac:
            skb.bridge_port = ingress.ifindex
            skb.ifindex = self.device.ifindex
            return skb

        if dst.is_multicast:
            self.flood(skb, vlan, exclude_ifindex=ingress.ifindex)
            # Broadcast/multicast is also delivered locally (e.g. ARP requests
            # for an IP configured on the bridge interface).
            skb.bridge_port = ingress.ifindex
            skb.ifindex = self.device.ifindex
            return skb

        entry = self.fdb_lookup(dst, vlan)
        if entry is None:
            self.fdb_miss_count += 1
            if self.flood(skb, vlan, exclude_ifindex=ingress.ifindex):
                stack.finish("bridge_flood", ingress, skb)
            else:
                stack.drop("bridge_flood_empty", ingress, skb)
            return None
        if entry.is_local:
            skb.bridge_port = ingress.ifindex
            skb.ifindex = self.device.ifindex
            return skb
        if entry.port_ifindex != ingress.ifindex:
            if self.forward(skb, vlan, entry.port_ifindex):
                stack.finish("bridge_forward", ingress, skb)
            else:
                stack.drop("bridge_egress_filtered", ingress, skb)
        else:
            # FDB says the destination lives where the frame came from
            stack.drop("bridge_same_port", ingress, skb)
        return None

    def forward(self, skb: SKBuff, vlan: int, port_ifindex: int) -> bool:
        """Forward out one port; False when egress is blocked/filtered."""
        port = self.ports.get(port_ifindex)
        if port is None or not port.forwarding or not self.egress_allowed(port, vlan):
            return False
        frame = self._egress_frame(skb, vlan, port)
        self.kernel.stack.emit_tx(port.device, frame)
        port.device.transmit(frame)
        return True

    def flood(self, skb: SKBuff, vlan: int, exclude_ifindex: Optional[int] = None) -> int:
        """Flood to all eligible ports; returns the number of transmits."""
        self.flood_count += 1
        sent = 0
        for ifindex, port in sorted(self.ports.items()):
            if ifindex == exclude_ifindex or not port.forwarding:
                continue
            if not self.egress_allowed(port, vlan):
                continue
            frame = self._egress_frame(skb, vlan, port)
            self.kernel.stack.emit_tx(port.device, frame)
            port.device.transmit(frame)
            sent += 1
        return sent

    def transmit_from_upper(self, frame: bytes) -> None:
        """IP output on the bridge interface: FDB-forward or flood."""
        skb = SKBuff(pkt=Packet.from_bytes(frame), ifindex=self.device.ifindex)
        vlan = 1
        dst = skb.pkt.eth.dst
        entry = self.fdb_lookup(dst, vlan) if not dst.is_multicast else None
        if entry is not None and not entry.is_local:
            self.forward(skb, vlan, entry.port_ifindex)
        else:
            self.flood(skb, vlan)

    def _egress_frame(self, skb: SKBuff, vlan: int, port: BridgePort) -> bytes:
        pkt = skb.pkt
        if self.vlan_filtering:
            if vlan == port.pvid:
                if pkt.vlan is not None:
                    pkt = pkt.clone()
                    pkt.vlan = None
            else:
                if pkt.vlan is None or pkt.vlan.vid != vlan:
                    from repro.netsim.packet import VlanTag

                    pkt = pkt.clone()
                    pkt.vlan = VlanTag(vid=vlan)
        return pkt.to_bytes()

    # --- simplified spanning tree ---

    def make_bpdu_payload(self) -> bytes:
        """Config BPDU: root id, root cost, sender bridge id (8+4+8 bytes)."""
        return (
            self.root_id.to_bytes(8, "big")
            + self.root_cost.to_bytes(4, "big")
            + self.bridge_id.to_bytes(8, "big")
        )

    def send_bpdus(self) -> None:
        """Emit a config BPDU on every enabled port (one STP hello round)."""
        if not self.stp_enabled:
            return
        from repro.netsim.packet import Ethernet, Packet as Pkt

        for port in self.ports.values():
            if port.state == STP_DISABLED:
                continue
            frame = Pkt(
                eth=Ethernet(dst=STP_MULTICAST, src=port.device.mac, ethertype=0x0027),
                payload=self.make_bpdu_payload(),
            ).to_bytes()
            port.device.transmit(frame)

    def process_bpdu(self, port: BridgePort, skb: SKBuff) -> None:
        if not self.stp_enabled:
            return  # STP off: BPDUs are silently absorbed, as in Linux
        payload = skb.pkt.payload
        if len(payload) < 20:
            return
        root_id = int.from_bytes(payload[0:8], "big")
        cost = int.from_bytes(payload[8:12], "big")
        sender = int.from_bytes(payload[12:20], "big")
        port.best_bpdu = (root_id, cost + port.path_cost, sender)
        self.recompute_stp()

    def recompute_stp(self) -> None:
        """Re-elect root and assign port roles from the best BPDUs heard."""
        best: Tuple[int, int, int] = (self.bridge_id, 0, self.bridge_id)
        best_port: Optional[int] = None
        for ifindex, port in sorted(self.ports.items()):
            if port.best_bpdu is None:
                continue
            root_id, cost, sender = port.best_bpdu
            if (root_id, cost, sender) < best:
                best = (root_id, cost, sender)
                best_port = ifindex
        self.root_id, self.root_cost, __ = best
        self.root_port = best_port
        for ifindex, port in self.ports.items():
            if self.root_id == self.bridge_id:
                port.state = STP_FORWARDING  # we are root: all designated
            elif ifindex == self.root_port:
                port.state = STP_FORWARDING
            elif port.best_bpdu is None:
                port.state = STP_FORWARDING  # no competing bridge: designated
            else:
                heard_root, heard_cost, heard_sender = port.best_bpdu
                our_offer = (self.root_id, self.root_cost + port.path_cost, self.bridge_id)
                their_offer = (heard_root, heard_cost, heard_sender)
                port.state = STP_FORWARDING if our_offer < their_offer else STP_BLOCKING

    def summary(self) -> Dict[str, object]:
        return {
            "name": self.device.name,
            "ports": sorted(p.device.name for p in self.ports.values()),
            "stp": self.stp_enabled,
            "vlan_filtering": self.vlan_filtering,
            "fdb_size": len(self.fdb),
        }


def stp_converge(bridges: List[Bridge], rounds: int = 4) -> None:
    """Run enough synchronous hello rounds for the topology to stabilize."""
    for __ in range(rounds):
        for bridge in bridges:
            bridge.send_bpdus()
