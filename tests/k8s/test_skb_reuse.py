"""Flannel pod-to-pod traffic through the TC FPMs parses and serialises each
frame as few times as Linux handles its skb: a TC program runs on the bytes
the frame arrived with, a frame it redirects is never parsed, and the slow
path's forward patches the TTL and MACs of the received bytes.

Two pairs talk within a node (veth → TC redirect → veth) and two across
nodes (veth → TC redirect → vxlan → eth0 → TC → decap → forward → cni0).
Per transaction, the frames that pods and the vxlan device build are
serialised (3 on average), and each frame a kernel consumes or forwards
after a header read is parsed (4). Every named charge reads the cost
model's femtosecond table, so a transaction converts ns to fs only for its
two local deliveries' charge sums.
"""

import pytest

from repro.k8s import Cluster
from repro.kernel.sockets import tcp_rr_server
from repro.measure.k8s_bench import container_cost_model
from repro.netsim.addresses import ipv4
from repro.netsim.packet import IPPROTO_TCP, IPv4, Packet, TCP

PORT, CLIENT_PORT = 5201, 40000
ROUNDS = 6


def build():
    cluster = Cluster(workers=2, costs=container_cost_model())
    w0, w1 = cluster.workers
    pairs = [
        (cluster.create_pod(a), cluster.create_pod(b))
        for a, b in ((w0, w0), (w1, w1), (w0, w1), (w1, w0))
    ]
    cluster.accelerate()
    responses = []
    for client, server in pairs:
        tcp_rr_server(server.kernel, PORT, response_size=8)
        client.kernel.sockets.bind(
            IPPROTO_TCP, CLIENT_PORT, lambda k, skb: responses.append(bytes(skb.pkt.payload))
        )
    return cluster, pairs, responses


def transact(pairs, rounds):
    for n in range(rounds):
        for client, server in pairs:
            client.kernel.send_ip(
                IPv4(src=ipv4(client.ip), dst=ipv4(server.ip), proto=IPPROTO_TCP),
                TCP(sport=CLIENT_PORT, dport=PORT, flags=TCP.ACK | TCP.PSH),
                b"txn-%d" % n,
            )


def kernels(cluster, pairs):
    return [node.kernel for node in cluster.nodes] + [pod.kernel for pair in pairs for pod in pair]


@pytest.fixture
def warm():
    """The cluster after one warm-up round (ARP, FDB learning)."""
    cluster, pairs, responses = build()
    transact(pairs, 1)
    assert len(responses) == len(pairs)
    responses.clear()
    return cluster, pairs, responses


class TestParseOnce:
    def test_parse_and_serialise_ceilings(self, warm, monkeypatch):
        cluster, pairs, responses = warm
        calls = {"from_bytes": 0, "to_bytes": 0}
        from_bytes, to_bytes = Packet.from_bytes.__func__, Packet.to_bytes

        def counted_from_bytes(cls, data):
            calls["from_bytes"] += 1
            return from_bytes(cls, data)

        def counted_to_bytes(self):
            calls["to_bytes"] += 1
            return to_bytes(self)

        monkeypatch.setattr(Packet, "from_bytes", classmethod(counted_from_bytes))
        monkeypatch.setattr(Packet, "to_bytes", counted_to_bytes)
        transact(pairs, ROUNDS)
        monkeypatch.undo()
        txns = ROUNDS * len(pairs)
        assert len(responses) == txns
        assert calls["from_bytes"] <= 4 * txns
        assert calls["to_bytes"] <= 3 * txns

    def test_a_transaction_converts_only_its_charge_sums(self, warm, to_fs_calls):
        # Named charges and program runs read the cost model's femtosecond
        # table; only the two local deliveries' charge_ns sums convert (the
        # parent called to_fs 66 times per transaction).
        cluster, pairs, responses = warm
        del to_fs_calls[:]
        transact(pairs, ROUNDS)
        txns = ROUNDS * len(pairs)
        assert len(responses) == txns
        costs = cluster.nodes[0].kernel.costs
        assert to_fs_calls == [costs.local_deliver + costs.conntrack_lookup] * (2 * txns)

    def test_redirected_frames_are_never_parsed(self, warm):
        cluster, pairs, responses = warm
        every = kernels(cluster, pairs)
        before = [(k.stack.outcomes["tc_redirect"], k.stack.skb_stats.freed_unparsed) for k in every]
        transact(pairs, ROUNDS)
        assert len(responses) == ROUNDS * len(pairs)
        redirected = unparsed = 0
        for kernel, (redirects0, unparsed0) in zip(every, before):
            redirected += kernel.stack.outcomes["tc_redirect"] - redirects0
            unparsed += kernel.stack.skb_stats.freed_unparsed - unparsed0
        # every request and response leaves its pod's veth by a TC redirect
        assert redirected == 2 * ROUNDS * len(pairs)
        assert unparsed == redirected

    def test_counters_show_reused_bytes(self, warm):
        cluster, pairs, responses = warm
        stats = [k.stack.skb_stats for k in kernels(cluster, pairs)]
        before = [s.as_dict() for s in stats]
        transact(pairs, ROUNDS)
        delta = {
            name: sum(s.as_dict()[name] - b[name] for s, b in zip(stats, before))
            for name in before[0]
        }
        txns = ROUNDS * len(pairs)
        # per transaction: 2 veth ingresses everywhere, plus on the two
        # cross-node pairs an eth0 ingress, a forward and a bridge output
        # each way, all sent from the bytes they arrived with
        assert delta["wire_reused"] == 2 * txns + 3 * txns
        # the frames pods and the vxlan device build themselves
        assert delta["wire_serialised"] == 3 * txns
        assert delta["parsed"] == 4 * txns
        assert delta["freed_unparsed"] == 2 * txns
