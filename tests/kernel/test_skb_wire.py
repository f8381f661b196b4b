"""The slow path's wire images stay ``pkt.to_bytes()`` at every stage.

An skb keeps the bytes it arrived with and sends them when they round-trip,
and the stack patches its own TTL and MAC rewrites into them instead of
re-serialising. Each test drives one stage that changes a packet — the
forward's TTL, the neighbor output's MACs, ipvs DNAT, vxlan encap and
decap, bridge egress with and without vlan filtering — with frames that
round-trip and frames that do not, and checks every wire image the stack
reads and every frame it transmits against ``pkt.to_bytes()``.
"""

import pytest

from repro.k8s import Cluster
from repro.kernel.bridge import Bridge
from repro.kernel.sockets import tcp_rr_server
from repro.kernel.stack import Stack
from repro.measure.topology import LineTopology
from repro.netsim.addresses import ipv4
from repro.netsim.checksum import internet_checksum
from repro.netsim.packet import IPPROTO_TCP, IPv4, Packet, TCP, VlanTag, make_tcp, make_udp
from repro.netsim.skbuff import SKBuff
from repro.tools import ip, ipvsadm

from tests.kernel.test_bridge import make_bridge_host


@pytest.fixture
def checked(monkeypatch):
    """Check ``wire_frame() == pkt.to_bytes()`` wherever the stack reads a
    wire image or transmits; returns the per-site call counts."""
    seen = {"wire_frame": 0, "xmit": 0, "bridge_egress": 0}
    wire_frame, xmit_frame, egress_frame = SKBuff.wire_frame, Stack._xmit_frame, Bridge._egress_frame

    def checked_wire_frame(skb):
        wire = wire_frame(skb)
        assert wire == skb.pkt.to_bytes()
        seen["wire_frame"] += 1
        return wire

    def checked_xmit_frame(stack, out_dev, skb):
        assert skb.wire_frame() == skb.pkt.to_bytes()
        seen["xmit"] += 1
        return xmit_frame(stack, out_dev, skb)

    def checked_egress_frame(bridge, skb, vlan, port):
        frame = egress_frame(bridge, skb, vlan, port)
        pkt = skb.pkt.clone()
        if bridge.vlan_filtering:
            if vlan == port.pvid:
                pkt.vlan = None
            elif pkt.vlan is None or pkt.vlan.vid != vlan:
                pkt.vlan = VlanTag(vid=vlan)
        assert frame == pkt.to_bytes()
        seen["bridge_egress"] += 1
        return frame

    monkeypatch.setattr(SKBuff, "wire_frame", checked_wire_frame)
    monkeypatch.setattr(Stack, "_xmit_frame", checked_xmit_frame)
    monkeypatch.setattr(Bridge, "_egress_frame", checked_egress_frame)
    return seen


def with_udp_checksum_0(frame: bytes) -> bytes:
    """A valid frame ``to_bytes`` does not give back: it fills the checksum."""
    return frame[:40] + b"\x00\x00" + frame[42:]


class TestForward:
    def test_ttl_and_macs(self, checked):
        topo = LineTopology()
        topo.prewarm_neighbors()
        out = []
        topo.sink_eth.nic.attach(lambda frame, q: out.append(frame))
        udp = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.0.2.2", payload=b"u" * 11, ttl=9)
        tcp = make_tcp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.0.2.2", payload=b"t" * 6, ttl=9)
        sent = [udp.to_bytes(), tcp.to_bytes(), with_udp_checksum_0(udp.to_bytes()), udp.to_bytes() + bytes(18)]
        stats = topo.dut.stack.skb_stats
        for frame in sent:
            topo.dut_in.nic.receive_from_wire(frame)
        assert len(out) == len(sent) and checked["xmit"] == len(sent)
        for frame, got in zip(sent, out):
            want = Packet.from_bytes(frame)
            want.ip.ttl -= 1
            want.eth.src, want.eth.dst = topo.dut_out.mac, topo.sink_eth.mac
            assert got == want.to_bytes()
            assert got[14 + 8] == 8 and internet_checksum(got[14:34]) == 0
        # the two canonical frames left as their own bytes, patched
        assert (stats.wire_reused, stats.wire_serialised) == (2, 2)

    def test_ipvs_dnat_reserialises(self, checked):
        topo = LineTopology()
        ip(topo.dut, "addr add 10.96.0.1/32 dev lo")
        ip(topo.dut, "route add 10.200.0.0/24 via 10.0.2.2")
        ipvsadm(topo.dut, "-A -t 10.96.0.1:80 -s rr")
        ipvsadm(topo.dut, "-a -t 10.96.0.1:80 -r 10.200.0.10:8080")
        topo.prewarm_neighbors()
        out = []
        topo.sink_eth.nic.attach(lambda frame, q: out.append(Packet.from_bytes(frame)))
        frame = make_tcp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.96.0.1", sport=1000, dport=80)
        topo.dut_in.nic.receive_from_wire(frame.to_bytes())
        assert [(str(p.ip.dst), p.l4.dport) for p in out] == [("10.200.0.10", 8080)]
        assert checked["xmit"] == 1
        assert topo.dut.stack.skb_stats.wire_reused == 0


class TestVxlan:
    @pytest.mark.parametrize("accelerate", [False, True])
    def test_encap_and_decap(self, checked, accelerate):
        cluster = Cluster(workers=2)
        client, server = cluster.pod_pair(intra=False)
        if accelerate:
            cluster.accelerate()
        tcp_rr_server(server.kernel, 5201)
        got = []
        client.kernel.sockets.bind(IPPROTO_TCP, 40000, lambda k, skb: got.append(bytes(skb.pkt.payload)))
        for n in range(3):
            client.kernel.send_ip(
                IPv4(src=ipv4(client.ip), dst=ipv4(server.ip), proto=IPPROTO_TCP),
                TCP(sport=40000, dport=5201, flags=TCP.ACK | TCP.PSH),
                b"ping%d" % n,
            )
        assert len(got) == 3
        assert checked["xmit"] and checked["bridge_egress"]
        decapsulating = [node.kernel.stack for node in cluster.workers]
        assert all(stack.outcomes["vxlan_decap"] for stack in decapsulating)
        assert all(stack.skb_stats.wire_reused for stack in decapsulating)


class TestBridgeEgress:
    @pytest.mark.parametrize("vlan_filtering", [False, True])
    def test_forward_and_flood(self, checked, vlan_filtering):
        kernel, bridge, ports, peers = make_bridge_host()
        if vlan_filtering:
            kernel.set_bridge_attrs("br0", vlan_filtering=True)
            for port in bridge.ports.values():
                port.allowed_vlans.add(100)
            bridge.ports[ports[1].ifindex].pvid = 100  # tags VLAN 1, strips tag 100
        out = [[] for __ in peers]
        for received, peer in zip(out, peers):
            peer.deliver = lambda frame, queue=0, received=received: received.append(frame)
        a = make_udp("02:aa:00:00:00:01", "02:aa:00:00:00:02", "10.0.0.1", "10.0.0.2", payload=b"x" * 5)
        tagged = make_udp("02:aa:00:00:00:01", "02:aa:00:00:00:02", "10.0.0.1", "10.0.0.2", vlan=100)
        for frame in (a.to_bytes(), with_udp_checksum_0(a.to_bytes()), tagged.to_bytes()):
            peers[0].transmit(frame)
        assert checked["bridge_egress"] >= 4 and sum(map(len, out)) == checked["bridge_egress"]
        if vlan_filtering:
            assert [Packet.from_bytes(f).vlan for f in out[1]] == [VlanTag(vid=1)] * 2 + [None]

    @staticmethod
    def routed_output(vlan_filtering):
        """Two routed TCP frames out of a bridge device
        (``transmit_from_upper``); returns the kernel and each port's frames."""
        kernel, bridge, ports, peers = make_bridge_host()
        kernel.add_address("br0", "10.0.0.254/24")
        if vlan_filtering:
            kernel.set_bridge_attrs("br0", vlan_filtering=True)
        out = [[] for __ in peers]
        for received, peer in zip(out, peers):
            peer.deliver = lambda frame, queue=0, received=received: received.append(frame)
        kernel.neigh_add("br0", "10.0.0.9", peers[1].mac)
        bridge.fdb_learn(peers[1].mac, 1, ports[1].ifindex)
        for payload in (b"one", b"two"):
            kernel.send_ip(
                IPv4(src=ipv4("10.0.0.254"), dst=ipv4("10.0.0.9"), proto=IPPROTO_TCP),
                TCP(sport=1, dport=2), payload,
            )
        return kernel, out

    @pytest.mark.parametrize("vlan_filtering", [False, True])
    def test_ip_output_through_the_bridge(self, checked, vlan_filtering):
        kernel, out = self.routed_output(vlan_filtering)
        assert len(out[1]) == 2 and not out[0] and not out[2]
        assert checked["bridge_egress"] == 2

    @pytest.mark.parametrize("vlan_filtering", [False, True])
    def test_ip_output_parses_only_to_filter(self, vlan_filtering):
        """The bridge reads the destination MAC from the bytes, and parses
        what it sends only to read the tag it filters on."""
        kernel, out = self.routed_output(vlan_filtering)
        assert len(out[1]) == 2
        assert kernel.stack.skb_stats.parsed == (2 if vlan_filtering else 0)
