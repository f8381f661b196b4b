"""The packet pipeline: the LinuxFP *slow path*.

``Stack.receive`` mirrors the structure of the real Linux receive path —
driver → XDP hook → sk_buff allocation → TC ingress → bridge handling →
``ip_rcv`` → routing decision → forward / local deliver → neighbor output →
TC egress → driver. Stage names recorded in the profiler match the kernel
functions a flame graph of real Linux forwarding shows (paper Fig 1), and
every stage charges its calibrated cost to the simulated clock.

Packet accounting follows the kernel's ``kfree_skb`` drop-reason model:
every packet that enters the pipeline (``rx_packets`` at a driver,
``tx_local_packets`` at the socket layer) reaches exactly one terminal —
:meth:`finish` for a non-drop outcome or :meth:`drop` with a registered
reason — or sits in a neighbor queue awaiting ARP (``pending_packets``).
The conservation invariant ``rx + tx_local == settled + pending`` holds at
all times; the differential test suite enforces it under randomized
traffic.
"""

from __future__ import annotations

import struct
from collections import Counter
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.kernel.fib import Route
from repro.kernel.hooks_api import (
    TC_ACT_REDIRECT,
    TC_ACT_SHOT,
    TC_ACTION_NAMES,
    XDP_ACTION_NAMES,
    XDP_DROP,
    XDP_PASS,
    XDP_REDIRECT,
    XDP_TX,
)
from repro.kernel.interfaces import BridgeDevice, NetDevice, PhysicalDevice, VxlanDevice
from repro.netsim.addresses import IPv4Addr, MacAddr
from repro.netsim.packet import (
    ARP_REPLY,
    ARP_REQUEST,
    ETH_P_ARP,
    ETH_P_IP,
    ICMP,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    IPPROTO_ICMP,
    IPPROTO_UDP,
    IPv4,
    Packet,
    PacketError,
    UDP,
    make_arp_reply,
    make_arp_request,
)
from repro.netsim.skbuff import SKBuff
from repro.observability.drop_reasons import drop_reason

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

VXLAN_HDR = struct.Struct("!B3xI")  # flags, reserved, (vni << 8)
VXLAN_FLAG_VNI = 0x08


def _is_martian_source(addr: IPv4Addr) -> bool:
    """Sources that must never appear on the forward path (RFC 1812 §5.3.7,
    narrowed to the unambiguous cases: loopback, multicast, broadcast)."""
    return (addr.value >> 24) == 127 or addr.is_multicast or addr.is_broadcast


class Stack:
    """The receive/transmit pipeline for one kernel."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.drops: Counter = Counter()
        self.forwarded = 0
        self.delivered_local = 0
        self.xdp_actions: Counter = Counter()
        self.tc_actions: Counter = Counter()
        # --- the packet ledger ---
        self.rx_packets = 0        # frames entering at a driver
        self.tx_local_packets = 0  # locally-generated packets entering output
        self.settled = 0           # packets that reached exactly one terminal
        self.dropped = 0           # terminal settles that were drops
        self.outcomes: Counter = Counter()  # non-drop terminals by name
        # Per-CPU ledger slices, keyed by the CPU a packet was counted on
        # (-1 = host/control context, e.g. test-injected sends). Each global
        # counter above always equals the sum of its per-CPU family — the
        # multi-core conservation suite checks both levels.
        self.rx_by_cpu: Counter = Counter()
        self.tx_local_by_cpu: Counter = Counter()
        self.settled_by_cpu: Counter = Counter()
        self.dropped_by_cpu: Counter = Counter()
        # Transmit observation taps: called as tap(ifindex, frame) for every
        # slow-path transmit. The differential watchdog installs one to
        # capture the plain kernel's output for a sampled packet.
        self.tx_taps: List[Callable[[int, bytes], None]] = []
        from repro.kernel.fragments import Reassembler

        self.reassembler = Reassembler(kernel.clock)

    def emit_tx(self, dev: NetDevice, frame: bytes) -> None:
        """Report a slow-path transmit to the installed taps."""
        for tap in self.tx_taps:
            tap(dev.ifindex, frame)

    # -------------------------------------------------------- the ledger

    def drop(
        self,
        reason: str,
        dev: Optional[NetDevice] = None,
        skb: Optional[SKBuff] = None,
        terminal: bool = True,
    ) -> None:
        """Discard a packet for a *registered* reason (``kfree_skb`` style).

        Raises :class:`~repro.observability.drop_reasons.UnknownDropReason`
        for an unregistered name, so silent unaccounted discards cannot be
        introduced. ``terminal=False`` records the reason without settling —
        used when the packet already settled (e.g. fragments that settled as
        ``reasm_hold`` before their reassembly queue timed out).
        """
        info = drop_reason(reason)
        self.drops[reason] += 1
        obs = self.kernel.observability
        obs.drops.record(info, dev.name if dev is not None else None)
        if obs.tracer.recording:
            obs.tracer.event("kfree_skb", reason)
            obs.tracer.set_outcome(f"drop:{reason}")
        if terminal and self._settle(skb):
            self.dropped += 1
            self.dropped_by_cpu[self._ledger_cpu()] += 1

    def finish(
        self,
        outcome: str,
        dev: Optional[NetDevice] = None,
        skb: Optional[SKBuff] = None,
    ) -> None:
        """A packet reached a non-drop terminal (transmitted, delivered,
        consumed). Counted once per packet: re-finishing an already-settled
        skb (a fragment piece, a drained neighbor-queue entry) is a no-op
        for the ledger."""
        tracer = self.kernel.observability.tracer
        if tracer.recording:
            tracer.set_outcome(outcome)
        if self._settle(skb):
            self.outcomes[outcome] += 1

    def _ledger_cpu(self) -> int:
        """The CPU this ledger event is attributed to (-1 = host context)."""
        cpu = self.kernel.cpus.current_cpu
        return -1 if cpu is None else cpu

    def _settle(self, skb: Optional[SKBuff]) -> bool:
        if skb is not None:
            if skb.accounted:
                return False
            skb.accounted = True
        self.settled += 1
        self.settled_by_cpu[self._ledger_cpu()] += 1
        return True

    def pending_packets(self) -> int:
        """Packets queued in neighbor entries awaiting ARP resolution."""
        return sum(len(e.queued) for e in self.kernel.neighbors.entries())

    def _trace_event(self, stage: str, detail: str = "") -> None:
        tracer = self.kernel.observability.tracer
        if tracer.recording:
            tracer.event(stage, detail)

    @staticmethod
    def _begin_rx_trace(tracer, dev: NetDevice, frame: bytes):
        """Open a trace for a received frame when the armed filter matches
        it; returns the trace or None."""
        try:
            pkt = Packet.from_bytes(frame)
        except PacketError:
            pkt = None
        return tracer.begin("rx", dev.name, pkt)

    # ------------------------------------------------------------------ RX

    def account_rx(self, n: int = 1) -> None:
        """Count ``n`` frames into the rx side of the ledger on the executing
        CPU. Split out of :meth:`receive` because a frame refused at softirq
        enqueue (``backlog_overflow``) never reaches :meth:`receive`, yet
        must still enter the ledger so it can settle as a drop. Batched
        delivery (:meth:`receive_batch`) accounts a whole burst at once."""
        self.rx_packets += n
        self.rx_by_cpu[self._ledger_cpu()] += n

    def receive(self, dev: NetDevice, frame: bytes, queue: int = 0) -> None:
        """Entry point for a frame arriving on ``dev``."""
        self.account_rx()
        tracer = self.kernel.observability.tracer
        token = None
        if tracer.armed:
            token = self._begin_rx_trace(tracer, dev, frame)
        try:
            self._receive(dev, frame, queue)
        finally:
            if token is not None:
                tracer.end(token)

    def _receive(self, dev: NetDevice, frame: bytes, queue: int) -> None:
        kernel = self.kernel
        if isinstance(dev, PhysicalDevice):
            kernel.costs_charge("driver_rx")

        # --- XDP hook (driver level, raw frame, no sk_buff yet) ---
        if dev.xdp_prog is not None:
            result = dev.xdp_prog.run_xdp(kernel, dev, frame)
            self._xdp_dispatch(dev, frame, result, queue)
            return

        self.receive_after_xdp(dev, frame, queue)

    def _xdp_dispatch(self, dev: NetDevice, frame: bytes, result, queue: int) -> None:
        """Route one frame's XDP verdict into the rest of the pipeline.
        Shared by the per-frame path (:meth:`_receive`) and batched delivery
        (:meth:`receive_batch`)."""
        kernel = self.kernel
        watchdog = kernel.watchdog
        if watchdog is not None and watchdog.hook == "xdp" and watchdog.should_sample(dev):
            # Differential sampling: the fast path's run only *predicts*;
            # the plain kernel pipeline handles the packet authoritatively.
            watchdog.sample(self, dev, frame, queue, result)
            return
        self.xdp_actions[result.verdict] += 1
        self._trace_event("xdp", XDP_ACTION_NAMES.get(result.verdict, str(result.verdict)))
        if result.verdict == XDP_DROP:
            self.drop("xdp_drop", dev)
            return
        if result.verdict == XDP_TX:
            dev.transmit(result.frame)
            self.finish("xdp_tx", dev)
            return
        if result.verdict == XDP_REDIRECT:
            kernel.costs_charge("xdp_redirect")
            target = kernel.devices.by_index(result.redirect_ifindex)
            target.transmit(result.frame)
            self.finish("xdp_redirect", target)
            return
        if result.verdict == XDP_PASS:
            kernel.costs_charge("xdp_pass_to_stack")
            self.receive_after_xdp(dev, result.frame, queue)
            return
        # XDP_ABORTED or garbage
        self.drop("xdp_aborted", dev)

    def receive_batch(self, dev: NetDevice, frames: List[bytes], queue: int = 0) -> None:
        """Batched driver entry: the GRO / ``xdp_do_flush`` analogue.

        Accounts and charges driver work once for the whole burst and runs
        the XDP program over all frames before dispatching any verdict, as
        Linux runs XDP over a NAPI poll while GRO holds the passed skbs
        (``gro_normal_batch``); the per-frame bookkeeping (ledger
        attribution, driver charge) amortizes over the batch. Only a device
        without an XDP program takes the per-frame path: observers keep the
        order, so a sampled frame's run is the watchdog's prediction, and
        with the tracer armed each frame's trace is current while its
        program runs and again while its verdict is dispatched.

        Running every program first is not always what per-frame delivery
        would do: a verdict dispatched early in the burst can change state
        a later frame's program reads (an ARP request that resolves the
        neighbor the next frame is routed to).
        """
        kernel = self.kernel
        if dev.xdp_prog is None:
            for frame in frames:
                self.receive(dev, frame, queue)
            return
        n = len(frames)
        self.account_rx(n)
        if isinstance(dev, PhysicalDevice):
            kernel.charge_ns(kernel.costs.driver_rx * n)
        tracer = kernel.observability.tracer
        if not tracer.armed:
            results = dev.xdp_prog.run_xdp_burst(kernel, dev, frames, queue)
            for frame, result in zip(frames, results):
                self._xdp_dispatch(dev, frame, result, queue)
            return
        runs = []
        for frame in frames:
            trace = self._begin_rx_trace(tracer, dev, frame)
            try:
                runs.append((trace, dev.xdp_prog.run_xdp(kernel, dev, frame)))
            finally:
                if trace is not None:
                    tracer.set_aside(trace)
        for frame, (trace, result) in zip(frames, runs):
            if trace is not None:
                tracer.resume(trace)
            try:
                self._xdp_dispatch(dev, frame, result, queue)
            finally:
                if trace is not None:
                    tracer.end(trace)

    def receive_after_xdp(self, dev: NetDevice, frame: bytes, queue: int = 0) -> None:
        """The pipeline from sk_buff allocation onward (no XDP fast path).

        Split out so the watchdog can run a sampled frame through the plain
        kernel while the fast path's run stands as its prediction.
        """
        kernel = self.kernel

        # --- sk_buff allocation + parse ---
        kernel.costs_charge("skb_alloc")
        try:
            pkt = Packet.from_bytes(frame)
        except PacketError:
            self.drop("malformed", dev)
            return
        skb = SKBuff(pkt=pkt, ifindex=dev.ifindex, rx_queue=queue)

        # --- TC ingress hook ---
        if dev.tc_ingress_prog is not None:
            result = dev.tc_ingress_prog.run_tc(kernel, dev, skb)
            watchdog = kernel.watchdog
            if watchdog is not None and watchdog.hook == "tc" and watchdog.should_sample(dev):
                watchdog.sample_tc(self, dev, skb, result)
                return
            self.tc_actions[result.verdict] += 1
            self._trace_event("tc", TC_ACTION_NAMES.get(result.verdict, str(result.verdict)))
            if result.verdict == TC_ACT_SHOT:
                if result.aborted:
                    self.drop("tc_aborted", dev, skb)
                else:
                    self.drop("tc_shot", dev, skb)
                return
            if result.verdict == TC_ACT_REDIRECT:
                kernel.costs_charge("tc_redirect")
                target = kernel.devices.by_index(result.redirect_ifindex)
                self.emit_tx(target, result.frame)
                target.transmit(result.frame)
                self.finish("tc_redirect", target, skb)
                return
            if result.frame != frame:
                try:
                    skb = SKBuff(pkt=Packet.from_bytes(result.frame), ifindex=dev.ifindex, rx_queue=queue)
                except PacketError:
                    self.drop("malformed", dev)
                    return

        self.netif_receive(dev, skb)

    def netif_receive(self, dev: NetDevice, skb: SKBuff) -> None:
        kernel = self.kernel
        with kernel.profiler.frame("__netif_receive_skb_core"):
            kernel.costs_charge("netif_receive")

            # Frames arriving on an enslaved port go through the bridge.
            if dev.master is not None:
                master = kernel.devices.by_index(dev.master)
                if isinstance(master, BridgeDevice):
                    with kernel.profiler.frame("br_handle_frame"):
                        passed_up = master.bridge.handle_frame(dev, skb)
                    if passed_up is None:
                        return  # the bridge settled it (forwarded or dropped)
                    skb = passed_up
                    dev = master

            ethertype = skb.pkt.eth.ethertype
            if skb.pkt.vlan is not None:
                ethertype = skb.pkt.vlan.ethertype

            if ethertype == ETH_P_ARP and skb.pkt.arp is not None:
                with kernel.profiler.frame("arp_rcv"):
                    self.arp_rcv(dev, skb)
                return
            if ethertype == ETH_P_IP and skb.pkt.ip is not None:
                with kernel.profiler.frame("ip_rcv"):
                    self.ip_rcv(dev, skb)
                return
            self.drop("unknown_ethertype", dev, skb)

    # ----------------------------------------------------------------- ARP

    def arp_rcv(self, dev: NetDevice, skb: SKBuff) -> None:
        kernel = self.kernel
        arp = skb.pkt.arp
        if arp.opcode == ARP_REQUEST:
            if dev.has_address(arp.target_ip):
                # Learn the requester and answer.
                kernel.neighbors.update(dev.ifindex, arp.sender_ip, arp.sender_mac)
                reply = make_arp_reply(dev.mac, arp.target_ip, arp.sender_mac, arp.sender_ip)
                raw = reply.to_bytes()
                self.emit_tx(dev, raw)
                dev.transmit(raw)
        elif arp.opcode == ARP_REPLY:
            drained = kernel.neighbors.update(dev.ifindex, arp.sender_ip, arp.sender_mac)
            for queued in drained:
                queued_skb, route = queued
                self.ip_finish_output(queued_skb, route)
        self.finish("arp_rx", dev, skb)

    def arp_solicit(self, out_dev: NetDevice, target_ip: IPv4Addr) -> None:
        source_ip = out_dev.addresses[0].address if out_dev.addresses else IPv4Addr(0)
        request = make_arp_request(out_dev.mac, source_ip, target_ip)
        raw = request.to_bytes()
        self.emit_tx(out_dev, raw)
        out_dev.transmit(raw)

    # ------------------------------------------------------------------ IP

    def ip_rcv(self, dev: NetDevice, skb: SKBuff) -> None:
        kernel = self.kernel
        kernel.costs_charge("ip_rcv")
        ip = skb.pkt.ip

        # VXLAN termination: UDP to the vxlan port on a local address.
        if (
            ip.proto == IPPROTO_UDP
            and isinstance(skb.pkt.l4, UDP)
            and self._vxlan_for(skb) is not None
            and kernel.devices.is_local(ip.dst)
        ):
            self.vxlan_rcv(skb, dev)
            return

        if kernel.devices.is_local(ip.dst) or ip.dst.is_broadcast or self._is_local_broadcast(dev, ip.dst):
            # inbound fragments reassemble before local processing
            if ip.is_fragment:
                with kernel.profiler.frame("ip_defrag"):
                    kernel.costs_charge("ip_rcv")
                    whole = self.reassembler.push(skb.pkt)
                if whole is None:
                    # waiting for more fragments: this frame settles here;
                    # the completing fragment carries the packet onward
                    self.finish("reasm_hold", dev, skb)
                    return
                skb.pkt = whole
                skb.invalidate_wire()
                ip = skb.pkt.ip
            # ipvs virtual services intercept at local-in.
            if self._ipvs_intercept(dev, skb):
                return
            with kernel.profiler.frame("nf_hook_slow[INPUT]"):
                verdict, __ = kernel.netfilter.evaluate("INPUT", skb, in_name=dev.name)
            if verdict != "ACCEPT":
                self.drop("nf_input", dev, skb)
                return
            self.local_deliver(skb)
            return

        if not kernel.sysctl.get_bool("net.ipv4.ip_forward"):
            self.drop("not_forwarding", dev, skb)
            return
        if kernel.sysctl.get_bool("net.ipv4.conf.all.rp_filter") and _is_martian_source(ip.src):
            self.drop("martian_source", dev, skb)
            return
        self.ip_forward(dev, skb)

    def ip_forward(self, dev: NetDevice, skb: SKBuff) -> None:
        kernel = self.kernel
        ip = skb.pkt.ip
        if ip.ttl <= 1:
            self.drop("ttl_exceeded", dev, skb)
            self._icmp_time_exceeded(dev, skb)
            return
        if ip.is_fragment:
            # Fragment reassembly is slow-path-only work; we account the cost
            # and forward fragments independently (sufficient for the eval).
            kernel.costs_charge("ip_rcv")

        with kernel.profiler.frame("fib_table_lookup"):
            kernel.costs_charge("fib_lookup")
            route = kernel.fib.lookup(ip.dst)
        if route is None:
            self.drop("no_route", dev, skb)
            self._icmp_unreachable(dev, skb)
            return

        out_dev = kernel.devices.by_index(route.oif)
        with kernel.profiler.frame("nf_hook_slow[FORWARD]"):
            if kernel.netfilter.has_stateful_rules("FORWARD"):
                # stateful filtering needs conntrack on the forward path
                kernel.costs_charge("conntrack_lookup")
                kernel.conntrack.track(skb)
            verdict, __ = kernel.netfilter.evaluate("FORWARD", skb, in_name=dev.name, out_name=out_dev.name)
        if verdict != "ACCEPT":
            self.drop("nf_forward", dev, skb)
            return

        with kernel.profiler.frame("ip_forward"):
            kernel.costs_charge("ip_forward")
            skb.pkt.ip = ip.decrement_ttl()
            skb.invalidate_wire()
        self.forwarded += 1
        self.ip_finish_output(skb, route)

    def ip_finish_output(self, skb: SKBuff, route: Route) -> None:
        kernel = self.kernel
        out_dev = kernel.devices.by_index(route.oif)
        next_hop = route.next_hop or skb.pkt.ip.dst

        with kernel.profiler.frame("ip_output"):
            kernel.costs_charge("ip_output")

            if skb.pkt.eth.dst.is_broadcast or skb.pkt.ip.dst.is_broadcast:
                self._xmit(out_dev, skb)
                return

            with kernel.profiler.frame("neigh_resolve"):
                kernel.costs_charge("neigh_lookup")
                mac = kernel.neighbors.resolved(out_dev.ifindex, next_hop)
            if mac is None:
                entry = kernel.neighbors.create_incomplete(out_dev.ifindex, next_hop)
                if kernel.neighbors.queue_packet(entry, (skb, route)):
                    # not settled: the packet is pending until ARP resolves
                    self._trace_event("neigh_queued", str(next_hop))
                    self.arp_solicit(out_dev, next_hop)
                else:
                    self.drop("neigh_queue_full", out_dev, skb)
                return

            skb.pkt.eth.src = out_dev.mac
            skb.pkt.eth.dst = mac
            skb.invalidate_wire()
            self._xmit(out_dev, skb)

    def _xmit(self, out_dev: NetDevice, skb: SKBuff) -> None:
        kernel = self.kernel
        # fragment oversized IP datagrams at the egress MTU (slow-path work,
        # per Table I; fast paths never see frames above MTU). wire_frame()
        # memoizes the serialization the TC-egress hook and dev_queue_xmit
        # reuse below.
        if skb.pkt.ip is not None and len(skb.wire_frame()) - 14 > out_dev.mtu:
            from repro.kernel.fragments import fragment

            with kernel.profiler.frame("ip_fragment"):
                kernel.costs_charge("ip_output")
                pieces = fragment(skb.pkt, out_dev.mtu)
            if not pieces:
                self.drop("frag_needed_df", out_dev, skb)
                return
            # the original datagram settles here; the pieces are already
            # accounted so their transmits/drops don't settle again
            self.finish("fragmented", out_dev, skb)
            for piece in pieces:
                piece_skb = SKBuff(pkt=piece, ifindex=skb.ifindex)
                piece_skb.accounted = True
                self._xmit_frame(out_dev, piece_skb)
            return
        self._xmit_frame(out_dev, skb)

    def _xmit_frame(self, out_dev: NetDevice, skb: SKBuff) -> None:
        kernel = self.kernel
        with kernel.profiler.frame("dev_queue_xmit"):
            kernel.costs_charge("dev_queue_xmit")
            frame = skb.wire_frame()
            if out_dev.tc_egress_prog is not None:
                result = out_dev.tc_egress_prog.run_tc(kernel, out_dev, skb)
                self.tc_actions[result.verdict] += 1
                if result.verdict == TC_ACT_SHOT:
                    self.drop("tc_egress_shot", out_dev, skb)
                    return
                frame = result.frame
            self.emit_tx(out_dev, frame)
            out_dev.transmit(frame)
            self.finish("tx", out_dev, skb)

    # --------------------------------------------------------- local paths

    def local_deliver(self, skb: SKBuff) -> None:
        kernel = self.kernel
        with kernel.profiler.frame("ip_local_deliver"):
            costs = kernel.costs
            kernel.charge_ns(costs.local_deliver + costs.conntrack_lookup)
            kernel.conntrack.track(skb)
            ip = skb.pkt.ip
            if ip.proto == IPPROTO_ICMP and isinstance(skb.pkt.l4, ICMP):
                if skb.pkt.l4.icmp_type == ICMP_ECHO_REQUEST:
                    self._icmp_echo_reply(skb)
                    self.finish("local_icmp", skb=skb)
                    return
            kernel.costs_charge("socket_wakeup")
            if kernel.sockets.deliver(skb):
                self.delivered_local += 1
                self.finish("local_socket", skb=skb)
            else:
                self.drop("no_socket", skb=skb)

    def send_ip(self, ip: IPv4, l4, payload: bytes = b"") -> None:
        """Transmit a locally-generated IP packet (the socket TX path)."""
        kernel = self.kernel
        self.tx_local_packets += 1
        self.tx_local_by_cpu[self._ledger_cpu()] += 1
        pkt = Packet(
            eth=_placeholder_eth(),
            ip=ip,
            l4=l4,
            payload=payload,
        )
        tracer = kernel.observability.tracer
        token = None
        if tracer.armed:
            token = tracer.begin("tx", None, pkt)
        try:
            self._send_ip(pkt)
        finally:
            if token is not None:
                tracer.end(token)

    def _send_ip(self, pkt: Packet) -> None:
        kernel = self.kernel
        skb = SKBuff(pkt=pkt)
        ip = pkt.ip
        with kernel.profiler.frame("nf_hook_slow[OUTPUT]"):
            verdict, __ = kernel.netfilter.evaluate("OUTPUT", skb)
        if verdict != "ACCEPT":
            self.drop("nf_output", skb=skb)
            return
        if kernel.devices.is_local(ip.dst):
            # loopback delivery
            self.local_deliver(skb)
            return
        kernel.costs_charge("fib_lookup")
        route = kernel.fib.lookup(ip.dst)
        if route is None:
            self.drop("no_route_out", skb=skb)
            return
        self.ip_finish_output(skb, route)

    def _icmp_echo_reply(self, skb: SKBuff) -> None:
        request_ip = skb.pkt.ip
        request_icmp = skb.pkt.l4
        self.send_ip(
            IPv4(src=request_ip.dst, dst=request_ip.src, proto=IPPROTO_ICMP),
            ICMP(ICMP_ECHO_REPLY, ident=request_icmp.ident, seq=request_icmp.seq),
            skb.pkt.payload,
        )

    def _icmp_time_exceeded(self, dev: NetDevice, skb: SKBuff) -> None:
        if not dev.addresses:
            return
        from repro.netsim.packet import ICMP_TIME_EXCEEDED

        self.send_ip(
            IPv4(src=dev.addresses[0].address, dst=skb.pkt.ip.src, proto=IPPROTO_ICMP),
            ICMP(ICMP_TIME_EXCEEDED),
            skb.pkt.ip.pack(0),
        )

    def _icmp_unreachable(self, dev: NetDevice, skb: SKBuff) -> None:
        """ICMP destination unreachable (type 3, net unreachable)."""
        if not dev.addresses or skb.pkt.ip is None:
            return
        self.send_ip(
            IPv4(src=dev.addresses[0].address, dst=skb.pkt.ip.src, proto=IPPROTO_ICMP),
            ICMP(3, code=0),
            skb.pkt.ip.pack(0),
        )

    # --------------------------------------------------------------- vxlan

    def vxlan_rcv(self, skb: SKBuff, dev: Optional[NetDevice] = None) -> None:
        kernel = self.kernel
        kernel.costs_charge("vxlan_encap")
        payload = skb.pkt.payload
        if len(payload) < VXLAN_HDR.size:
            self.drop("vxlan_malformed", dev, skb)
            return
        flags, vni_field = VXLAN_HDR.unpack_from(payload)
        if not flags & VXLAN_FLAG_VNI:
            self.drop("vxlan_malformed", dev, skb)
            return
        vni = vni_field >> 8
        inner = payload[VXLAN_HDR.size :]
        vxlan_dev = self._vxlan_by_vni(vni)
        if vxlan_dev is None or not vxlan_dev.up:
            self.drop("vxlan_no_vni", dev, skb)
            return
        # Learn the remote vtep for the inner source MAC.
        try:
            src_mac = MacAddr.from_bytes(inner[6:12])
            vxlan_dev.fdb_add(src_mac, skb.pkt.ip.src)
        except Exception:
            pass
        # the outer packet terminates here; the decapsulated inner frame
        # re-enters the pipeline as its own rx
        self.finish("vxlan_decap", vxlan_dev, skb)
        vxlan_dev.deliver(inner)

    def vxlan_encap_out(self, vxlan_dev: VxlanDevice, inner_frame: bytes, remote: IPv4Addr) -> None:
        kernel = self.kernel
        kernel.costs_charge("vxlan_encap")
        header = VXLAN_HDR.pack(VXLAN_FLAG_VNI, vxlan_dev.vni << 8)
        self.send_ip(
            IPv4(src=vxlan_dev.local, dst=remote, proto=IPPROTO_UDP),
            UDP(sport=49152 + (vxlan_dev.vni & 0x3FFF), dport=vxlan_dev.port),
            header + inner_frame,
        )

    def _vxlan_for(self, skb: SKBuff) -> Optional[VxlanDevice]:
        udp = skb.pkt.l4
        for dev in self.kernel.devices.all():
            if isinstance(dev, VxlanDevice) and udp.dport == dev.port:
                return dev
        return None

    def _vxlan_by_vni(self, vni: int) -> Optional[VxlanDevice]:
        for dev in self.kernel.devices.all():
            if isinstance(dev, VxlanDevice) and dev.vni == vni:
                return dev
        return None

    # -------------------------------------------------------------- ipvs

    def _ipvs_intercept(self, dev: NetDevice, skb: SKBuff) -> bool:
        """DNAT packets addressed to an ipvs virtual service. Returns True
        when the packet was consumed (rescheduled toward a real server)."""
        kernel = self.kernel
        from repro.kernel.conntrack import ConnTuple, ConntrackFull

        tup = ConnTuple.from_skb(skb)
        if tup is None or kernel.ipvs.match(tup) is None:
            return False
        kernel.costs_charge("conntrack_lookup")
        entry = kernel.conntrack.lookup(tup)
        if entry is None or entry.dnat_to is None:
            costs = kernel.costs
            kernel.charge_ns(costs.ipvs_schedule + costs.conntrack_create)
            try:
                dnat = kernel.ipvs.connect(tup)
            except ConntrackFull:
                # NAT pinning needs a conntrack entry; without one later
                # packets could reach a different real server, so drop.
                self.drop("conntrack_full", dev, skb)
                return True
            if dnat is None:
                self.drop("ipvs_no_dest", dev, skb)
                return True
        else:
            dnat = entry.dnat_to
        new_ip, new_port = dnat
        skb.pkt.ip.dst = new_ip
        skb.invalidate_wire()
        skb.pkt.l4.dport = new_port
        kernel.costs_charge("fib_lookup")
        route = kernel.fib.lookup(new_ip)
        if route is None:
            self.drop("no_route", dev, skb)
            return True
        self.forwarded += 1
        self.ip_finish_output(skb, route)
        return True

    # ------------------------------------------------------------- helpers

    def _is_local_broadcast(self, dev: NetDevice, addr: IPv4Addr) -> bool:
        return any(a.broadcast == addr for a in dev.addresses)


def _placeholder_eth():
    from repro.netsim.packet import Ethernet

    zero = MacAddr(0)
    return Ethernet(dst=zero, src=zero, ethertype=ETH_P_IP)
