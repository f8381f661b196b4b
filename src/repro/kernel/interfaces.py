"""Net devices: physical NIC-backed, loopback, veth, bridge, and vxlan.

Devices carry the attachment points for eBPF programs (XDP on the driver
side, TC ingress/egress around the stack) and the addressing/enslavement
state the LinuxFP controller introspects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

from repro.netsim.addresses import IfAddr, IPv4Addr, MacAddr
from repro.netsim.nic import NIC
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel

VXLAN_PORT = 8472
ETH_HDR_LEN = 14


class DeviceError(ValueError):
    """Raised for invalid device operations."""


class NetDevice:
    """Base class for all network interfaces."""

    kind = "generic"

    def __init__(self, kernel: "Kernel", ifindex: int, name: str, mac: MacAddr, num_queues: int = 1) -> None:
        self.kernel = kernel
        self.ifindex = ifindex
        self.name = name
        self.mac = mac
        self.mtu = 1500
        self.up = False
        self.master: Optional[int] = None  # bridge ifindex when enslaved
        self.addresses: List[IfAddr] = []
        self.num_queues = num_queues
        # eBPF attachment points (repro.ebpf.hooks attach here)
        self.xdp_prog: Optional[object] = None
        self.tc_ingress_prog: Optional[object] = None
        self.tc_egress_prog: Optional[object] = None
        self.rx_packets = 0
        self.tx_packets = 0
        self.dropped = 0

    # --- addressing ---

    def add_address(self, addr: IfAddr) -> None:
        if any(a.address == addr.address for a in self.addresses):
            raise DeviceError(f"{self.name}: address {addr.address} already assigned")
        self.addresses.append(addr)
        self.kernel.devices.gen += 1

    def remove_address(self, address: IPv4Addr) -> IfAddr:
        for i, a in enumerate(self.addresses):
            if a.address == address:
                self.kernel.devices.gen += 1
                return self.addresses.pop(i)
        raise DeviceError(f"{self.name}: address {address} not assigned")

    def has_address(self, address: IPv4Addr) -> bool:
        return any(a.address == address for a in self.addresses)

    # --- datapath ---

    def transmit(self, frame: bytes) -> None:
        """Send a frame out of this interface (subclass responsibility)."""
        raise NotImplementedError

    def drop(self, reason: str) -> None:
        """Device-level discard of a frame already settled by the IP stack.

        Mirrors a driver's ``kfree_skb`` after ``dev_queue_xmit`` accepted
        the packet: the ledger outcome stays ``tx`` (the stack handed the
        frame off), but the loss is recorded under a registered drop reason
        and the device's ``dropped`` counter — never a silent discard.
        """
        self.dropped += 1
        self.kernel.stack.drop(reason, self, terminal=False)

    def carrier_flapped(self) -> bool:
        """Fault site: an armed ``link_flap`` eats this transmit."""
        return faults.decide("link_flap", self.name) is not None

    def deliver(self, frame: bytes, queue: int = 0) -> None:
        """A frame arrives at this device from 'below' (wire/peer/overlay).

        Dispatch goes through the softirq layer, which picks the CPU that
        processes the frame (queue ownership + RPS flow steering)."""
        self.rx_packets += 1
        self.kernel.softirq.rx(self, frame, queue)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, ifindex={self.ifindex})"


class PhysicalDevice(NetDevice):
    """A NIC-backed interface."""

    kind = "physical"

    def __init__(self, kernel: "Kernel", ifindex: int, name: str, mac: MacAddr, num_queues: int = 1) -> None:
        super().__init__(kernel, ifindex, name, mac, num_queues)
        self.nic = NIC(name, num_queues=num_queues)
        self.nic.attach(self._on_nic_rx)
        self.nic.attach_burst(self._on_nic_rx_burst)

    def _on_nic_rx(self, frame: bytes, queue: int) -> None:
        self.deliver(frame, queue)

    def _on_nic_rx_burst(self, batch) -> None:
        """An interrupt-coalesced batch: hand the whole burst to softirq at
        once so per-CPU backlog bounds see its full depth."""
        self.rx_packets += len(batch)
        self.kernel.softirq.rx_burst(self, batch)

    def transmit(self, frame: bytes) -> None:
        self.tx_packets += 1
        if self.carrier_flapped():
            self.drop("dev_link_down")
            return
        self.kernel.costs_charge("driver_tx")
        self.nic.transmit(frame)


class LoopbackDevice(NetDevice):
    """``lo``: frames transmitted loop straight back into the stack."""

    kind = "loopback"

    def transmit(self, frame: bytes) -> None:
        self.tx_packets += 1
        self.deliver(frame)


class VethDevice(NetDevice):
    """One end of a virtual Ethernet pair; the peer may live in another kernel."""

    kind = "veth"

    def __init__(self, kernel: "Kernel", ifindex: int, name: str, mac: MacAddr) -> None:
        super().__init__(kernel, ifindex, name, mac)
        self.peer: Optional["VethDevice"] = None

    def connect(self, peer: "VethDevice") -> None:
        if self.peer is not None or peer.peer is not None:
            raise DeviceError("veth already paired")
        self.peer = peer
        peer.peer = self

    def transmit(self, frame: bytes) -> None:
        self.tx_packets += 1
        if self.peer is None or not self.peer.up:
            self.drop("dev_link_down")
            return
        if self.carrier_flapped():
            self.drop("dev_link_down")
            return
        self.kernel.costs_charge("veth_xmit")
        self.peer.deliver(frame)


class BridgeDevice(NetDevice):
    """A software bridge. L2 forwarding state lives in ``self.bridge``."""

    kind = "bridge"

    def __init__(self, kernel: "Kernel", ifindex: int, name: str, mac: MacAddr) -> None:
        super().__init__(kernel, ifindex, name, mac)
        from repro.kernel.bridge import Bridge  # local import: cycle guard

        self.bridge = Bridge(self)

    def transmit(self, frame: bytes) -> None:
        """IP output on the bridge interface: forward down into the bridge."""
        self.tx_packets += 1
        self.bridge.transmit_from_upper(frame)


class VxlanDevice(NetDevice):
    """A VXLAN tunnel endpoint (vtep), as used by the Flannel CNI backend.

    Egress frames are matched against the vtep FDB (dst MAC → remote underlay
    IP) and encapsulated in UDP toward that node; ingress VXLAN datagrams are
    demultiplexed by VNI in :mod:`repro.kernel.stack` and re-injected here.
    """

    kind = "vxlan"

    def __init__(
        self,
        kernel: "Kernel",
        ifindex: int,
        name: str,
        mac: MacAddr,
        vni: int,
        local: IPv4Addr,
        port: int = VXLAN_PORT,
        underlay_ifindex: int = 0,
    ) -> None:
        super().__init__(kernel, ifindex, name, mac)
        self.vni = vni
        self.local = local
        self.port = port
        self.underlay_ifindex = underlay_ifindex
        # vtep FDB: dst MAC → remote underlay IP (installed via `bridge fdb`)
        self.vtep_fdb: Dict[MacAddr, IPv4Addr] = {}

    def fdb_add(self, mac: MacAddr, remote: IPv4Addr) -> None:
        self.vtep_fdb[mac] = remote

    def transmit(self, frame: bytes) -> None:
        self.tx_packets += 1
        if len(frame) < ETH_HDR_LEN:
            self.drop("malformed")
            return
        dst_mac = MacAddr.from_bytes(frame[0:6])
        remote = self.vtep_fdb.get(dst_mac)
        if remote is None:
            if dst_mac.is_multicast and self.vtep_fdb:
                # head-end replication to every known vtep
                for unique_remote in sorted(set(self.vtep_fdb.values())):
                    self.kernel.stack.vxlan_encap_out(self, frame, unique_remote)
                return
            self.drop("vxlan_no_remote")
            return
        self.kernel.stack.vxlan_encap_out(self, frame, remote)


class DeviceTable:
    """Per-kernel device registry with ifindex allocation."""

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel = kernel
        self._by_index: Dict[int, NetDevice] = {}
        self._by_name: Dict[str, NetDevice] = {}
        self._next_ifindex = 1
        self._next_mac = 1
        # Bumped on device add/remove and address changes; is_local rebuilds
        # its address set when it moves.
        self.gen = 0
        # every device's addresses (as ints), valid while gen == _local_gen
        self._local: FrozenSet[int] = frozenset()
        self._local_gen = -1

    def allocate_mac(self) -> MacAddr:
        mac = MacAddr.from_index(self._next_mac, oui=(0x02 << 16) | (self._kernel.host_id & 0xFFFF))
        self._next_mac += 1
        return mac

    def register(self, device: NetDevice) -> NetDevice:
        if device.name in self._by_name:
            raise DeviceError(f"device {device.name!r} exists")
        self._by_index[device.ifindex] = device
        self._by_name[device.name] = device
        self.gen += 1
        return device

    def next_ifindex(self) -> int:
        index = self._next_ifindex
        self._next_ifindex += 1
        return index

    def unregister(self, device: NetDevice) -> None:
        if self._by_index.pop(device.ifindex, None) is not None:
            self.gen += 1
        self._by_name.pop(device.name, None)

    def by_index(self, ifindex: int) -> NetDevice:
        try:
            return self._by_index[ifindex]
        except KeyError:
            raise DeviceError(f"no device with ifindex {ifindex}") from None

    def by_name(self, name: str) -> NetDevice:
        try:
            return self._by_name[name]
        except KeyError:
            raise DeviceError(f"no device named {name!r}") from None

    def get(self, name: str) -> Optional[NetDevice]:
        return self._by_name.get(name)

    def all(self) -> List[NetDevice]:
        return [self._by_index[i] for i in sorted(self._by_index)]

    def is_local(self, addr: IPv4Addr) -> bool:
        """Whether a device holds ``addr`` (Linux's ``local`` table), from a
        set rebuilt when :attr:`gen` moves, as every address change and
        device (un)registration makes it."""
        if self._local_gen != self.gen:
            self._local = frozenset(
                a.address.value for dev in self._by_index.values() for a in dev.addresses
            )
            self._local_gen = self.gen
        return addr.value in self._local

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_index)
