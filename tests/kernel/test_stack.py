"""Integration tests for the packet pipeline (stack.py)."""

import pytest

from repro.kernel import Kernel
from repro.kernel.sockets import SocketError, tcp_rr_server, udp_echo_server
from repro.measure.topology import LineTopology
from repro.netsim.addresses import IPv4Addr, MacAddr, ipv4
from repro.netsim.checksum import internet_checksum
from repro.netsim.packet import (
    ICMP,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4,
    Packet,
    TCP,
    UDP,
    make_arp_request,
    make_udp,
)


@pytest.fixture
def topo():
    t = LineTopology()
    t.install_prefixes(5)
    return t


def sniff(nic_dev):
    """Capture frames arriving at a device WITHOUT stealing them."""
    captured = []
    original = nic_dev.nic._handler

    def tee(frame, queue):
        captured.append(Packet.from_bytes(frame))
        if original is not None:
            original(frame, queue)

    nic_dev.nic.attach(tee)
    return captured


class TestArpResolution:
    def test_forwarding_triggers_arp_and_flushes_queue(self, topo):
        """First packet to an unresolved next hop is queued, not dropped."""
        sink_rx = sniff(topo.sink_eth)
        # ARP not prewarmed: DUT must resolve 10.0.2.2 itself
        topo.dut.neigh_add("eth0", "10.0.1.2", topo.src_eth.mac)
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1").to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        # the sink received an ARP request and (after replying) the packet
        kinds = [("arp" if p.arp else "ip") for p in sink_rx]
        assert kinds == ["arp", "ip"]
        assert sink_rx[1].ip.dst == IPv4Addr.parse("10.100.0.1")
        assert topo.dut.stack.drops.get("no_route", 0) == 0

    def test_arp_request_answered_for_local_address(self, topo):
        src_rx = sniff(topo.src_eth)
        request = make_arp_request(topo.src_eth.mac, "10.0.1.2", "10.0.1.1").to_bytes()
        topo.dut_in.nic.receive_from_wire(request)
        assert len(src_rx) == 1
        reply = src_rx[0].arp
        assert reply.opcode == 2
        assert reply.sender_mac == topo.dut_in.mac
        assert reply.sender_ip == IPv4Addr.parse("10.0.1.1")

    def test_arp_request_for_foreign_address_ignored(self, topo):
        src_rx = sniff(topo.src_eth)
        request = make_arp_request(topo.src_eth.mac, "10.0.1.2", "10.0.1.77").to_bytes()
        topo.dut_in.nic.receive_from_wire(request)
        assert src_rx == []

    def test_arp_request_learns_sender(self, topo):
        request = make_arp_request(topo.src_eth.mac, "10.0.1.2", "10.0.1.1").to_bytes()
        topo.dut_in.nic.receive_from_wire(request)
        assert topo.dut.neighbors.resolved(topo.dut_in.ifindex, "10.0.1.2") == topo.src_eth.mac


class TestForwarding:
    def test_ttl_decremented_and_macs_rewritten(self, topo):
        topo.prewarm_neighbors()
        sink_rx = sniff(topo.sink_eth)
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1", ttl=33).to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        out = sink_rx[0]
        assert out.ip.ttl == 32
        assert out.eth.src == topo.dut_out.mac
        assert out.eth.dst == topo.sink_eth.mac

    def test_ttl_one_dropped_with_icmp_time_exceeded(self, topo):
        topo.prewarm_neighbors()
        src_rx = sniff(topo.src_eth)
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1", ttl=1).to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        assert topo.dut.stack.drops["ttl_exceeded"] == 1
        icmp_replies = [p for p in src_rx if p.ip and p.ip.proto == IPPROTO_ICMP]
        assert len(icmp_replies) == 1
        assert icmp_replies[0].l4.icmp_type == 11  # time exceeded

    def test_no_route_dropped(self, topo):
        topo.prewarm_neighbors()
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "192.168.99.1").to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        assert topo.dut.stack.drops["no_route"] == 1

    def test_forwarding_disabled_dropped(self):
        topo = LineTopology(dut_forwarding=False)
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.0.2.2").to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        assert topo.dut.stack.drops["not_forwarding"] == 1

    def test_malformed_frame_dropped(self, topo):
        before = dict(topo.dut.stack.drops)
        topo.dut_in.nic.receive_from_wire(b"\x01\x02\x03")
        assert topo.dut.stack.drops["malformed"] == before.get("malformed", 0) + 1

    def test_forwarded_counter(self, topo):
        topo.prewarm_neighbors()
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1").to_bytes()
        for __ in range(5):
            topo.dut_in.nic.receive_from_wire(frame)
        assert topo.dut.stack.forwarded == 5

    def test_fragment_forwarded_independently(self, topo):
        topo.prewarm_neighbors()
        sink_rx = sniff(topo.sink_eth)
        pkt = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1")
        pkt.ip.flags = 0x1  # more fragments
        topo.dut_in.nic.receive_from_wire(pkt.to_bytes())
        assert len(sink_rx) == 1 and sink_rx[0].ip.more_fragments


def options_frame(topo, ttl=64):
    """A UDP frame 10.0.1.2 → 10.0.2.2:5353 whose IHL is 6: one options
    word after the fixed header, checksummed over all 24 header bytes."""
    udp = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.0.2.2", sport=1234, dport=5353,
                   payload=b"q" * 8, ttl=ttl).to_bytes()
    header = bytearray(udp[14:34] + b"\x01\x01\x01\x00")  # NOP, NOP, NOP, end of list
    header[0] = 0x46
    header[2:4] = (len(header) + len(udp) - 34).to_bytes(2, "big")
    header[10:12] = b"\x00\x00"
    header[10:12] = internet_checksum(bytes(header)).to_bytes(2, "big")
    return udp[:14] + bytes(header) + udp[34:]


def raw_sniff(nic_dev):
    """Capture the raw frames arriving at a device without stealing them."""
    captured = []
    original = nic_dev.nic._handler

    def tee(frame, queue):
        captured.append(frame)
        original(frame, queue)

    nic_dev.nic.attach(tee)
    return captured


class TestIpOptions:
    """The slow path forwards a header with options as it came, TTL aside."""

    def test_forwarded_header_keeps_its_options(self, topo):
        topo.prewarm_neighbors()
        sink_rx = raw_sniff(topo.sink_eth)
        got = []
        topo.sink.sockets.bind(IPPROTO_UDP, 5353, lambda k, skb: got.append(skb.pkt.payload))
        frame = options_frame(topo)
        topo.dut_in.nic.receive_from_wire(frame)
        assert len(sink_rx) == 1
        out = sink_rx[0]
        assert out[14] == 0x46  # IHL 6
        assert int.from_bytes(out[16:18], "big") == 40 == len(out) - 14
        assert internet_checksum(out[14:38]) == 0
        assert out[22] == 63
        assert out[34:38] == frame[34:38] == b"\x01\x01\x01\x00"
        assert out[38:] == frame[38:]
        assert got == [b"q" * 8]

    def test_icmp_error_quotes_the_whole_header(self, topo):
        topo.prewarm_neighbors()
        src_rx = sniff(topo.src_eth)
        frame = options_frame(topo, ttl=1)
        topo.dut_in.nic.receive_from_wire(frame)
        errors = [p for p in src_rx if p.ip and p.ip.proto == IPPROTO_ICMP]
        assert len(errors) == 1 and errors[0].l4.icmp_type == 11
        assert errors[0].payload == frame[14:38]


class TestLocalDelivery:
    def test_icmp_echo_reply(self, topo):
        topo.prewarm_neighbors()
        src_rx = sniff(topo.src_eth)
        pkt = Packet(
            eth=__import__("repro.netsim.packet", fromlist=["Ethernet"]).Ethernet(
                topo.dut_in.mac, topo.src_eth.mac, 0x0800
            ),
            ip=IPv4(src=ipv4("10.0.1.2"), dst=ipv4("10.0.1.1"), proto=IPPROTO_ICMP),
            l4=ICMP(ICMP_ECHO_REQUEST, ident=42, seq=7),
            payload=b"ping!",
        )
        topo.dut_in.nic.receive_from_wire(pkt.to_bytes())
        replies = [p for p in src_rx if p.l4 and isinstance(p.l4, ICMP)]
        assert len(replies) == 1
        assert replies[0].l4.icmp_type == ICMP_ECHO_REPLY
        assert (replies[0].l4.ident, replies[0].l4.seq) == (42, 7)
        assert replies[0].payload == b"ping!"

    def test_udp_echo_server(self, topo):
        topo.prewarm_neighbors()
        udp_echo_server(topo.dut, 7)
        src_rx = sniff(topo.src_eth)
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.0.1.1", sport=5555, dport=7,
                         payload=b"echo me").to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        assert len(src_rx) == 1
        assert src_rx[0].payload == b"echo me"
        assert src_rx[0].l4.dport == 5555

    def test_unclaimed_port_counted(self, topo):
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.0.1.1", dport=9999).to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        assert topo.dut.stack.drops["no_socket"] == 1
        assert topo.dut.sockets.unclaimed == 1

    def test_double_bind_rejected(self, topo):
        udp_echo_server(topo.dut, 7)
        with pytest.raises(SocketError):
            udp_echo_server(topo.dut, 7)

    def test_input_chain_filters_local_traffic(self, topo):
        from repro.kernel.netfilter import Rule

        udp_echo_server(topo.dut, 7)
        topo.dut.ipt_append("INPUT", Rule(target="DROP", proto=IPPROTO_UDP, dport=7))
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.0.1.1", dport=7).to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        assert topo.dut.stack.drops["nf_input"] == 1
        assert topo.dut.sockets.delivered == 0

    def test_output_chain_filters_generated_traffic(self, topo):
        from repro.kernel.netfilter import Rule

        topo.dut.ipt_append("OUTPUT", Rule(target="DROP"))
        topo.dut.send_ip(
            IPv4(src=ipv4("10.0.1.1"), dst=ipv4("10.0.1.2"), proto=IPPROTO_UDP), UDP(sport=1, dport=2)
        )
        assert topo.dut.stack.drops["nf_output"] == 1

    def test_loopback_delivery(self, topo):
        got = []
        topo.dut.sockets.bind(IPPROTO_UDP, 7, lambda k, skb: got.append(skb.pkt.payload))
        topo.dut.send_ip(
            IPv4(src=ipv4("127.0.0.1"), dst=ipv4("127.0.0.1"), proto=IPPROTO_UDP),
            UDP(sport=9, dport=7),
            b"local",
        )
        assert got == [b"local"]

    def test_conntrack_tracks_local_flows(self, topo):
        udp_echo_server(topo.dut, 7)
        topo.prewarm_neighbors()
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.0.1.1", dport=7).to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        assert len(topo.dut.conntrack) >= 1


class TestCostAccounting:
    def test_slow_path_cost_is_stage_sum(self, topo):
        """The forwarding path must charge exactly its stage constants."""
        topo.prewarm_neighbors()
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1").to_bytes()
        # blackhole sink so only DUT work lands on the clock
        topo.sink_eth.nic.attach(lambda f, q: None)
        topo.dut_in.nic.receive_from_wire(frame)  # warm
        t0 = topo.clock.now_ns
        topo.dut_in.nic.receive_from_wire(frame)
        elapsed = topo.clock.now_ns - t0
        c = topo.costs
        expected = (
            c.driver_rx + c.skb_alloc + c.netif_receive + c.ip_rcv + c.fib_lookup
            + c.nf_hook_overhead + c.ip_forward + c.ip_output + c.neigh_lookup
            + c.dev_queue_xmit + c.driver_tx
        )
        assert elapsed == pytest.approx(expected, abs=2)

    def test_profiler_disabled_costs_identical(self, topo):
        """Profiling must not change simulated time."""
        topo.prewarm_neighbors()
        topo.sink_eth.nic.attach(lambda f, q: None)
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1").to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        t0 = topo.clock.now_ns
        topo.dut_in.nic.receive_from_wire(frame)
        plain = topo.clock.now_ns - t0
        topo.dut.profiler.enabled = True
        t0 = topo.clock.now_ns
        topo.dut_in.nic.receive_from_wire(frame)
        profiled = topo.clock.now_ns - t0
        assert plain == profiled


class TestVxlan:
    def make_overlay_pair(self):
        """Two hosts with vxlan tunnels over a direct wire."""
        from repro.netsim.clock import Clock
        from repro.netsim.nic import Wire

        clock = Clock()
        a, b = Kernel("a", clock=clock), Kernel("b", clock=clock)
        for kernel, ip_addr in ((a, "192.168.0.1"), (b, "192.168.0.2")):
            kernel.add_physical("eth0")
            kernel.set_link("eth0", True)
            kernel.add_address("eth0", f"{ip_addr}/24")
        Wire(a.devices.by_name("eth0").nic, b.devices.by_name("eth0").nic)
        a.neigh_add("eth0", "192.168.0.2", b.devices.by_name("eth0").mac)
        b.neigh_add("eth0", "192.168.0.1", a.devices.by_name("eth0").mac)
        va = a.add_vxlan("vx0", vni=42, local="192.168.0.1")
        vb = b.add_vxlan("vx0", vni=42, local="192.168.0.2")
        a.set_link("vx0", True)
        b.set_link("vx0", True)
        return a, b, va, vb

    def test_encap_decap_round_trip(self):
        a, b, va, vb = self.make_overlay_pair()
        va.fdb_add(vb.mac, IPv4Addr.parse("192.168.0.2"))
        inner = make_udp(va.mac, vb.mac, "172.31.0.1", "172.31.0.2", payload=b"tunneled")
        received = []
        vb.deliver = lambda frame, queue=0: received.append(Packet.from_bytes(frame))
        va.transmit(inner.to_bytes())
        assert len(received) == 1
        assert received[0].payload == b"tunneled"

    def test_vtep_learning_from_decap(self):
        a, b, va, vb = self.make_overlay_pair()
        va.fdb_add(vb.mac, IPv4Addr.parse("192.168.0.2"))
        inner = make_udp(va.mac, vb.mac, "172.31.0.1", "172.31.0.2")
        va.transmit(inner.to_bytes())
        # b's vtep learned a's inner MAC -> remote 192.168.0.1
        assert vb.vtep_fdb.get(va.mac) == IPv4Addr.parse("192.168.0.1")

    def test_unknown_vni_dropped(self):
        a, b, va, vb = self.make_overlay_pair()
        vb.vni = 99  # mismatch
        va.fdb_add(vb.mac, IPv4Addr.parse("192.168.0.2"))
        inner = make_udp(va.mac, vb.mac, "172.31.0.1", "172.31.0.2")
        va.transmit(inner.to_bytes())
        assert b.stack.drops["vxlan_no_vni"] == 1

    def test_unknown_dst_mac_head_end_replication(self):
        a, b, va, vb = self.make_overlay_pair()
        va.fdb_add(MacAddr.parse("02:99:00:00:00:01"), IPv4Addr.parse("192.168.0.2"))
        bcast = make_udp(va.mac, "ff:ff:ff:ff:ff:ff", "172.31.0.1", "172.31.0.255")
        received = []
        vb.deliver = lambda frame, queue=0: received.append(frame)
        va.transmit(bcast.to_bytes())
        assert len(received) == 1  # replicated to the known vtep

    def test_no_vteps_drops(self):
        a, b, va, vb = self.make_overlay_pair()
        frame = make_udp(va.mac, "02:99:00:00:00:01", "172.31.0.1", "172.31.0.2")
        va.transmit(frame.to_bytes())
        assert va.dropped == 1
