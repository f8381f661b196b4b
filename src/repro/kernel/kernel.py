"""The :class:`Kernel`: one simulated Linux host.

A Kernel owns every networking subsystem plus the netlink bus. All
configuration mutators live here and *always* emit the corresponding netlink
notification — exactly like Linux, where the kernel announces changes no
matter which tool made them. Management tools (:mod:`repro.tools`) reach
these mutators through netlink messages (:mod:`repro.kernel.rtnetlink`);
the LinuxFP controller only ever observes the netlink surface.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple, Union

from repro.fastpath.flowcache import FlowCache
from repro.kernel import rtnetlink
from repro.kernel.bridge import Bridge
from repro.kernel.conntrack import Conntrack
from repro.kernel.fib import Fib, Route, SCOPE_LINK, SCOPE_UNIVERSE
from repro.kernel.interfaces import (
    BridgeDevice,
    DeviceError,
    DeviceTable,
    LoopbackDevice,
    NetDevice,
    PhysicalDevice,
    VethDevice,
    VxlanDevice,
)
from repro.kernel.ipset import IpsetRegistry
from repro.kernel.ipvs import Ipvs
from repro.kernel.neighbor import NeighborTable, NUD_PERMANENT
from repro.kernel.netfilter import Netfilter, Rule
from repro.kernel.sockets import SocketTable
from repro.kernel.stack import Stack
from repro.kernel.sysctl import Sysctl
from repro.netlink.bus import NetlinkBus
from repro.netlink.messages import (
    GRP_IPVS,
    GRP_SYSCTL,
    NFNLGRP_IPSET,
    NFNLGRP_IPTABLES,
    RTNLGRP_FDB,
    RTNLGRP_IPV4_IFADDR,
    RTNLGRP_IPV4_ROUTE,
    RTNLGRP_LINK,
    RTNLGRP_NEIGH,
    NetlinkMsg,
)
from repro.netlink import messages as msg
from repro.netsim.addresses import (
    AddrLike,
    IfAddr,
    IPv4Prefix,
    MacAddr,
    ifaddr,
    ipv4,
    prefix as parse_prefix,
)
from repro.netsim.clock import Clock, to_fs
from repro.netsim.cost import CostModel
from repro.netsim.profiler import Profiler

_host_ids = itertools.count(1)


class Kernel:
    """One simulated host: devices, stack state, and the netlink surface."""

    #: Placeholder with nothing behind it: bench/workloads.py and bench/child.py read it.
    flow_cache = FlowCache

    def __init__(
        self,
        hostname: str = "host",
        clock: Optional[Clock] = None,
        costs: Optional[CostModel] = None,
        num_cores: int = 1,
    ) -> None:
        self.hostname = hostname
        self.host_id = next(_host_ids)
        self.clock = clock if clock is not None else Clock()
        self.costs = costs if costs is not None else CostModel()
        self.num_cores = num_cores
        from repro.netsim.cpu import CpuSet

        self.cpus = CpuSet(num_cores)
        self.profiler = Profiler(self.clock, enabled=False)
        self.bus = NetlinkBus()
        self.devices = DeviceTable(self)
        self.fib = Fib()
        self.neighbors = NeighborTable(self.clock)
        self.ipsets = IpsetRegistry()
        self.netfilter = Netfilter(self)
        self.conntrack = Conntrack(self.clock)
        self.ipvs = Ipvs(self.conntrack)
        self.sysctl = Sysctl()
        self.sockets = SocketTable(self)
        from repro.observability.monitor import Observability

        self.observability = Observability(self)
        # the profiler feeds the packet tracer (stage events) and the
        # per-stage latency histograms
        self.profiler.tracer = self.observability.tracer
        self.profiler.stage_observer = self.observability.record_stage
        self.stack = Stack(self)
        from repro.kernel.softirq import SoftirqSet

        self.softirq = SoftirqSet(self)
        from repro.ebpf.jit import JitEngine  # local import: cycle guard

        self.jit = JitEngine(self)
        # The controller's differential watchdog, installed by Controller.start().
        self.watchdog = None

        self.sysctl.add_listener(
            lambda name, value: self.bus.notify(
                GRP_SYSCTL, NetlinkMsg(msg.SYSCTL_SET, {"name": name, "value": value})
            )
        )
        self.conntrack.max_entries = int(self.sysctl.get("net.netfilter.nf_conntrack_max"))
        self.sysctl.add_listener(self._on_conntrack_sysctl)
        rtnetlink.register(self)

        lo = LoopbackDevice(self, self.devices.next_ifindex(), "lo", MacAddr(0))
        self.devices.register(lo)
        lo.up = True
        lo.add_address(IfAddr.parse("127.0.0.1/8"))

    def _on_conntrack_sysctl(self, name: str, value: str) -> None:
        if name != "net.netfilter.nf_conntrack_max":
            return
        try:
            self.conntrack.max_entries = int(value)
        except ValueError:
            pass  # non-numeric write: keep the previous limit

    # ----------------------------------------------------------- accounting

    def costs_charge(self, name: str) -> None:
        """Charge one named operation's cost, as :meth:`charge_ns` does,
        in the whole fs the cost model's table holds for it
        (``costs.fs[name]``, :mod:`repro.netsim.cost`)."""
        fs = self.costs.fs[name]
        self.clock._fs += fs
        cpus = self.cpus
        if cpus._active:
            cpus._busy_fs[cpus._active[-1]] += fs

    def charge_ns(self, ns: float) -> None:
        """Charge ``ns`` of work, converted to whole femtoseconds once, as
        :meth:`charge_fs` charges them."""
        self.charge_fs(to_fs(ns))

    def charge_fs(self, fs: int) -> None:
        """Charge ``fs`` whole femtoseconds of work: the global clock always
        advances (it orders timeouts across the simulation); the busy time
        additionally lands on whichever of this kernel's CPUs is executing,
        which is what multi-core throughput is measured from. Both get the
        same fs, added here rather than through a call on each. The eBPF
        executors charge instruction counts here, each count times
        ``costs.fs["ebpf_insn"]``."""
        self.clock._fs += fs
        cpus = self.cpus
        if cpus._active:
            cpus._busy_fs[cpus._active[-1]] += fs

    # ------------------------------------------------------------- devices

    def add_physical(self, name: str, num_queues: int = 1, mac: Optional[MacAddr] = None) -> PhysicalDevice:
        dev = PhysicalDevice(
            self, self.devices.next_ifindex(), name, mac or self.devices.allocate_mac(), num_queues
        )
        self.devices.register(dev)
        self._notify_link(dev)
        return dev

    def add_bridge(self, name: str) -> BridgeDevice:
        dev = BridgeDevice(self, self.devices.next_ifindex(), name, self.devices.allocate_mac())
        self.devices.register(dev)
        self._notify_link(dev)
        return dev

    def add_veth_pair(
        self, name: str, peer_name: str, peer_kernel: Optional["Kernel"] = None
    ) -> Tuple[VethDevice, VethDevice]:
        peer_kernel = peer_kernel or self
        dev = VethDevice(self, self.devices.next_ifindex(), name, self.devices.allocate_mac())
        peer = VethDevice(
            peer_kernel, peer_kernel.devices.next_ifindex(), peer_name, peer_kernel.devices.allocate_mac()
        )
        dev.connect(peer)
        self.devices.register(dev)
        peer_kernel.devices.register(peer)
        self._notify_link(dev)
        peer_kernel._notify_link(peer)
        return dev, peer

    def add_vxlan(
        self,
        name: str,
        vni: int,
        local: AddrLike,
        port: int = 8472,
        underlay: Optional[str] = None,
    ) -> VxlanDevice:
        underlay_ifindex = self.devices.by_name(underlay).ifindex if underlay else 0
        dev = VxlanDevice(
            self,
            self.devices.next_ifindex(),
            name,
            self.devices.allocate_mac(),
            vni=vni,
            local=ipv4(local),
            port=port,
            underlay_ifindex=underlay_ifindex,
        )
        self.devices.register(dev)
        self._notify_link(dev)
        return dev

    def del_device(self, name: str) -> None:
        dev = self.devices.by_name(name)
        if isinstance(dev, BridgeDevice):
            for port in list(dev.bridge.ports.values()):
                dev.bridge.remove_port(port.device)
        if dev.master is not None:
            self.release(name)
        for route in self.fib.remove_for_oif(dev.ifindex):
            self._notify_route(msg.RTM_DELROUTE, route)
        self.neighbors.flush_ifindex(dev.ifindex)
        if isinstance(dev, VethDevice) and dev.peer is not None:
            dev.peer.peer = None
        self.devices.unregister(dev)
        self.bus.notify(RTNLGRP_LINK, NetlinkMsg(msg.RTM_DELLINK, rtnetlink.link_attrs(dev)))

    def set_link(self, name: str, up: bool) -> NetDevice:
        dev = self.devices.by_name(name)
        if dev.up != up:
            dev.up = up
            if not up:
                for route in self.fib.remove_for_oif(dev.ifindex):
                    self._notify_route(msg.RTM_DELROUTE, route)
            self._notify_link(dev)
        return dev

    def enslave(self, port_name: str, bridge_name: str) -> None:
        port = self.devices.by_name(port_name)
        bridge_dev = self.devices.by_name(bridge_name)
        if not isinstance(bridge_dev, BridgeDevice):
            raise DeviceError(f"{bridge_name} is not a bridge")
        bridge_dev.bridge.add_port(port)
        self._notify_link(port)

    def release(self, port_name: str) -> None:
        port = self.devices.by_name(port_name)
        if port.master is None:
            raise DeviceError(f"{port_name} has no master")
        bridge_dev = self.devices.by_index(port.master)
        bridge_dev.bridge.remove_port(port)
        self._notify_link(port)

    def set_bridge_attrs(
        self,
        name: str,
        stp: Optional[bool] = None,
        vlan_filtering: Optional[bool] = None,
        ageing_time_s: Optional[int] = None,
    ) -> Bridge:
        dev = self.devices.by_name(name)
        if not isinstance(dev, BridgeDevice):
            raise DeviceError(f"{name} is not a bridge")
        if stp is not None:
            dev.bridge.stp_enabled = stp
        if vlan_filtering is not None:
            dev.bridge.vlan_filtering = vlan_filtering
        if ageing_time_s is not None:
            dev.bridge.ageing_time_ns = ageing_time_s * 1_000_000_000
        self._notify_link(dev)
        return dev.bridge

    # ----------------------------------------------------------- addressing

    def add_address(self, dev_name: str, addr: Union[str, IfAddr]) -> IfAddr:
        dev = self.devices.by_name(dev_name)
        addr = ifaddr(addr)
        dev.add_address(addr)
        self.bus.notify(
            RTNLGRP_IPV4_IFADDR,
            NetlinkMsg(msg.RTM_NEWADDR, {"ifindex": dev.ifindex, "address": addr.address, "prefixlen": addr.length}),
        )
        # Linux installs the connected (link-scope) route automatically.
        if addr.length < 32:
            self.route_add(addr.network, dev=dev_name, _quiet_exists=True)
        return addr

    def del_address(self, dev_name: str, address: AddrLike) -> None:
        dev = self.devices.by_name(dev_name)
        removed = dev.remove_address(ipv4(address))
        self.bus.notify(
            RTNLGRP_IPV4_IFADDR,
            NetlinkMsg(
                msg.RTM_DELADDR,
                {"ifindex": dev.ifindex, "address": removed.address, "prefixlen": removed.length},
            ),
        )
        if removed.length < 32:
            try:
                self.route_del(removed.network)
            except Exception:
                pass

    # -------------------------------------------------------------- routing

    def route_add(
        self,
        dst: Union[str, IPv4Prefix],
        via: Optional[AddrLike] = None,
        dev: Optional[str] = None,
        metric: int = 0,
        onlink: bool = False,
        _replace: bool = False,
        _quiet_exists: bool = False,
    ) -> Route:
        dst = parse_prefix(dst) if isinstance(dst, str) else dst
        gateway = ipv4(via) if via is not None else None
        if dev is not None:
            oif = self.devices.by_name(dev).ifindex
        elif gateway is not None:
            connected = self.fib.lookup(gateway)
            if connected is None:
                raise DeviceError(f"gateway {gateway} is unreachable")
            oif = connected.oif
        else:
            raise DeviceError("route needs a device or gateway")
        scope = SCOPE_LINK if gateway is None else SCOPE_UNIVERSE
        route = Route(prefix=dst, oif=oif, gateway=gateway, scope=scope, metric=metric)
        try:
            self.fib.add(route, replace=_replace or _quiet_exists)
        except Exception:
            if _quiet_exists:
                return route
            raise
        self._notify_route(msg.RTM_NEWROUTE, route)
        return route

    def route_replace(
        self,
        dst: Union[str, IPv4Prefix],
        via: Optional[AddrLike] = None,
        dev: Optional[str] = None,
        metric: int = 0,
        onlink: bool = False,
    ) -> Route:
        """``ip route replace``: add-or-overwrite the same-prefix same-metric
        entry."""
        return self.route_add(dst, via=via, dev=dev, metric=metric, onlink=onlink, _replace=True)

    def route_del(self, dst: Union[str, IPv4Prefix], metric: Optional[int] = None) -> Route:
        dst = parse_prefix(dst) if isinstance(dst, str) else dst
        removed = self.fib.remove(dst, metric)
        self._notify_route(msg.RTM_DELROUTE, removed)
        return removed

    # ------------------------------------------------------------ neighbors

    def neigh_add(self, dev_name: str, ip: AddrLike, lladdr: MacAddr, permanent: bool = True) -> None:
        dev = self.devices.by_name(dev_name)
        state = NUD_PERMANENT if permanent else 0x02
        self.neighbors.update(dev.ifindex, ip, lladdr, state=state)
        self.bus.notify(
            RTNLGRP_NEIGH,
            NetlinkMsg(
                msg.RTM_NEWNEIGH,
                {"ifindex": dev.ifindex, "dst": ipv4(ip), "lladdr": lladdr, "state": state},
            ),
        )

    def neigh_del(self, dev_name: str, ip: AddrLike) -> None:
        dev = self.devices.by_name(dev_name)
        self.neighbors.remove(dev.ifindex, ip)
        self.bus.notify(
            RTNLGRP_NEIGH,
            NetlinkMsg(msg.RTM_DELNEIGH, {"ifindex": dev.ifindex, "dst": ipv4(ip)}),
        )

    # ------------------------------------------------------------------ fdb

    def fdb_add(self, dev_name: str, mac: MacAddr, dst: Optional[AddrLike] = None, vlan: int = 1) -> None:
        """``bridge fdb add``: static bridge FDB entry, or a vtep entry when
        ``dev`` is a vxlan device and ``dst`` (the remote vtep IP) is given."""
        dev = self.devices.by_name(dev_name)
        if isinstance(dev, VxlanDevice) and dst is not None:
            dev.fdb_add(mac, ipv4(dst))
            master = dev.master
        elif dev.master is not None:
            bridge_dev = self.devices.by_index(dev.master)
            bridge_dev.bridge.fdb_learn(mac, vlan, dev.ifindex, static=True)
            master = dev.master
        else:
            raise DeviceError(f"{dev_name}: fdb entries need a bridge port or vxlan device")
        self.bus.notify(
            RTNLGRP_FDB,
            NetlinkMsg(
                msg.RTM_NEWFDB,
                {"ifindex": dev.ifindex, "master": master or 0, "lladdr": mac, "vlan": vlan, "state": 0},
            ),
        )

    # ------------------------------------------------------------- iptables

    def ipt_append(self, chain: str, rule: Rule) -> Rule:
        appended = self.netfilter.append_rule(chain, rule)
        self.bus.notify(NFNLGRP_IPTABLES, NetlinkMsg(msg.NFT_NEWRULE, rtnetlink.rule_attrs(chain, appended)))
        return appended

    def ipt_delete(self, chain: str, handle: int) -> Rule:
        removed = self.netfilter.delete_rule(chain, handle)
        self.bus.notify(NFNLGRP_IPTABLES, NetlinkMsg(msg.NFT_DELRULE, rtnetlink.rule_attrs(chain, removed)))
        return removed

    def ipt_policy(self, chain: str, policy: str) -> None:
        self.netfilter.set_policy(chain, policy)
        self.bus.notify(
            NFNLGRP_IPTABLES,
            NetlinkMsg(msg.NFT_SETPOLICY, {"table": "filter", "chain": chain, "policy": policy}),
        )

    def ipt_flush(self, chain: Optional[str] = None) -> None:
        self.netfilter.flush(chain)
        self.bus.notify(
            NFNLGRP_IPTABLES,
            NetlinkMsg(msg.NFT_DELRULE, {"table": "filter", "chain": chain or "*"}),
        )

    # ---------------------------------------------------------------- ipset

    def ipset_create(self, name: str, set_type: str = "hash:ip"):
        created = self.ipsets.create(name, set_type)
        self.bus.notify(NFNLGRP_IPSET, NetlinkMsg(msg.IPSET_NEWSET, {"name": name, "set_type": set_type}))
        return created

    def ipset_destroy(self, name: str) -> None:
        self.ipsets.destroy(name)
        self.bus.notify(NFNLGRP_IPSET, NetlinkMsg(msg.IPSET_DELSET, {"name": name}))

    def ipset_add(self, name: str, entry: AddrLike, prefixlen: int = 32) -> None:
        self.ipsets.require(name).add(entry, prefixlen)
        self.bus.notify(
            NFNLGRP_IPSET,
            NetlinkMsg(msg.IPSET_ADDENTRY, {"name": name, "entries": [{"ip": ipv4(entry), "prefixlen": prefixlen}]}),
        )

    def ipset_del(self, name: str, entry: AddrLike, prefixlen: int = 32) -> None:
        self.ipsets.require(name).remove(entry, prefixlen)
        self.bus.notify(
            NFNLGRP_IPSET,
            NetlinkMsg(msg.IPSET_DELENTRY, {"name": name, "entries": [{"ip": ipv4(entry), "prefixlen": prefixlen}]}),
        )

    # ----------------------------------------------------------------- ipvs

    def ipvs_add_service(self, vip: AddrLike, port: int, proto: int, scheduler: str = "rr"):
        service = self.ipvs.add_service(vip, port, proto, scheduler)
        self.bus.notify(
            GRP_IPVS,
            NetlinkMsg(msg.IPVS_NEWSERVICE, {"vip": ipv4(vip), "vport": port, "proto": proto, "scheduler": scheduler}),
        )
        return service

    def ipvs_add_dest(self, vip: AddrLike, port: int, proto: int, rs: AddrLike, rport: int, weight: int = 1):
        dest = self.ipvs.add_dest(vip, port, proto, rs, rport, weight)
        self.bus.notify(
            GRP_IPVS,
            NetlinkMsg(
                msg.IPVS_NEWDEST,
                {"vip": ipv4(vip), "vport": port, "proto": proto, "rs": ipv4(rs), "rport": rport, "weight": weight},
            ),
        )
        return dest

    # --------------------------------------------------------------- sysctl

    def sysctl_set(self, name: str, value: str) -> None:
        self.sysctl.set(name, value)  # listener emits the notification

    # ---------------------------------------------------------- CPU hotplug

    def cpu_offline(self, cpu: int) -> None:
        """Hot-unplug a data-plane CPU (the ``cpuhp`` teardown path).

        Ordering matters for conservation: the CPU's backlog is drained
        *while it is still online* (``dev_cpu_dead`` replays the dead CPU's
        queue), so no queued frame is lost; then steering and RSS
        indirection are retargeted at the surviving CPUs.
        The controller hears about it via a ``CPU_OFFLINE`` notification and
        records an incident.
        """
        self.softirq.drain_cpu(cpu)
        self.cpus.offline(cpu)  # raises on the last online CPU / mid-execution
        self._retarget_rss()
        self.bus.notify(
            msg.GRP_CPU,
            NetlinkMsg(msg.CPU_OFFLINE, {"cpu": cpu, "num_online": self.cpus.num_online}),
        )

    def cpu_online(self, cpu: int) -> None:
        """Bring a hot-unplugged CPU back: restore the default RSS spread and
        announce ``CPU_ONLINE``."""
        self.cpus.online(cpu)
        self._retarget_rss()
        self.bus.notify(
            msg.GRP_CPU,
            NetlinkMsg(msg.CPU_ONLINE, {"cpu": cpu, "num_online": self.cpus.num_online}),
        )

    def _retarget_rss(self) -> None:
        """Point every physical NIC's RSS indirection table at queues whose
        owning CPU is online (IRQ-affinity migration). With every CPU online
        this restores the default even spread."""
        for dev in self.devices.all():
            nic = getattr(dev, "nic", None)
            if nic is None or nic.num_queues <= 1:
                continue
            if self.cpus.num_online == self.cpus.num_cpus:
                nic.indirection.reset()
                continue
            dead_queues = [
                q for q in range(nic.num_queues)
                if not self.cpus.is_online(q % self.cpus.num_cpus)
            ]
            live_queues = [q for q in range(nic.num_queues) if q not in dead_queues]
            if dead_queues and live_queues:
                nic.indirection.retarget(dead_queues, live_queues)

    # ----------------------------------------------------------- primitives

    def send_ip(self, ip, l4, payload: bytes = b"") -> None:
        self.stack.send_ip(ip, l4, payload)

    def run_housekeeping(self) -> Dict[str, int]:
        """Periodic slow-path maintenance (what kernel timers do): bridge
        FDB aging, conntrack expiry, fragment-queue timeouts."""
        from repro.kernel.interfaces import BridgeDevice as _Bridge

        aged = sum(d.bridge.age_fdb() for d in self.devices.all() if isinstance(d, _Bridge))
        timed_out = self.stack.reassembler.gc()
        # fragments settled as reasm_hold when received; record the reason
        # without re-settling
        for __ in range(timed_out):
            self.stack.drop("frag_timeout", terminal=False)
        return {
            "fdb_aged": aged,
            "conntrack_expired": self.conntrack.gc(),
            "fragments_timed_out": timed_out,
        }

    def _notify_link(self, dev: NetDevice) -> None:
        self.bus.notify(RTNLGRP_LINK, NetlinkMsg(msg.RTM_NEWLINK, rtnetlink.link_attrs(dev)))

    def _notify_route(self, msg_type: int, route: Route) -> None:
        self.bus.notify(RTNLGRP_IPV4_ROUTE, NetlinkMsg(msg_type, rtnetlink.route_attrs(route)))

    def __repr__(self) -> str:
        return f"Kernel({self.hostname!r}, devices={len(self.devices)})"
