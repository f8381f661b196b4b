"""Tests for the Kubernetes substrate and transparent CNI acceleration."""

import pytest

from repro.k8s import Cluster
from repro.kernel.sockets import tcp_rr_server, udp_echo_server
from repro.netsim.addresses import ipv4
from repro.netsim.packet import IPPROTO_TCP, IPPROTO_UDP, IPv4, TCP, UDP
from repro.tools import ip, ipvsadm


def rr_once(cluster, client, server, sport=40000, dport=5201):
    """One TCP_RR transaction; returns simulated RTT ns or None if lost."""
    responses = []
    client.kernel.sockets.bind(IPPROTO_TCP, sport, lambda k, skb: responses.append(k.clock.now_ns))
    try:
        t0 = cluster.clock.now_ns
        client.kernel.send_ip(
            IPv4(src=ipv4(client.ip), dst=ipv4(server.ip), proto=IPPROTO_TCP),
            TCP(sport=sport, dport=dport, flags=TCP.ACK | TCP.PSH),
            b"\x01",
        )
        if responses:
            return responses[-1] - t0
        return None
    finally:
        client.kernel.sockets.unbind(IPPROTO_TCP, sport)


class TestClusterSetup:
    def test_three_node_cluster(self):
        cluster = Cluster(workers=2)
        assert len(cluster.nodes) == 3
        names = {n.name for n in cluster.nodes}
        assert names == {"node1", "node2", "node3"}

    def test_flannel_devices_created(self):
        cluster = Cluster(workers=2)
        for node in cluster.nodes:
            assert "cni0" in node.kernel.devices
            assert "flannel.1" in node.kernel.devices
            assert node.kernel.sysctl.get_bool("net.ipv4.ip_forward")

    def test_pod_subnets_distinct(self):
        cluster = Cluster(workers=2)
        subnets = {n.flannel.pod_subnet for n in cluster.nodes}
        assert len(subnets) == 3

    def test_remote_routes_installed(self):
        cluster = Cluster(workers=2)
        node1 = cluster.nodes[0]
        route = node1.kernel.fib.lookup("10.244.2.7")
        assert route is not None
        assert route.oif == node1.kernel.devices.by_name("flannel.1").ifindex

    def test_pod_gets_ip_and_default_route(self):
        cluster = Cluster(workers=2)
        pod = cluster.create_pod(cluster.workers[0])
        assert pod.ip.startswith("10.244.2.")
        assert pod.kernel.fib.lookup("8.8.8.8") is not None

    def test_host_veth_enslaved_to_cni0(self):
        cluster = Cluster(workers=2)
        node = cluster.workers[0]
        cluster.create_pod(node)
        veth = node.kernel.devices.by_name(node.host_veth_names()[0])
        assert veth.master == node.kernel.devices.by_name("cni0").ifindex


class TestPodConnectivity:
    def test_intra_node_rr(self):
        cluster = Cluster(workers=2)
        client, server = cluster.pod_pair(intra=True)
        tcp_rr_server(server.kernel, 5201)
        assert rr_once(cluster, client, server) is not None

    def test_inter_node_rr_via_vxlan(self):
        cluster = Cluster(workers=2)
        client, server = cluster.pod_pair(intra=False)
        tcp_rr_server(server.kernel, 5201)
        rtt = rr_once(cluster, client, server)
        assert rtt is not None
        # inter-node crosses the overlay: strictly slower than intra
        cluster2 = Cluster(workers=2)
        c2, s2 = cluster2.pod_pair(intra=True)
        tcp_rr_server(s2.kernel, 5201)
        assert rtt > rr_once(cluster2, c2, s2)

    def test_udp_echo_inter_node(self):
        cluster = Cluster(workers=2)
        client, server = cluster.pod_pair(intra=False)
        udp_echo_server(server.kernel, 7)
        got = []
        client.kernel.sockets.bind(IPPROTO_UDP, 9000, lambda k, skb: got.append(skb.pkt.payload))
        client.kernel.send_ip(
            IPv4(src=ipv4(client.ip), dst=ipv4(server.ip), proto=IPPROTO_UDP),
            UDP(sport=9000, dport=7),
            b"overlay",
        )
        assert got == [b"overlay"]

    def test_many_pods(self):
        cluster = Cluster(workers=2)
        node = cluster.workers[0]
        pods = [cluster.create_pod(node) for __ in range(5)]
        assert len({p.ip for p in pods}) == 5
        tcp_rr_server(pods[4].kernel, 5201)
        assert rr_once(cluster, pods[0], pods[4]) is not None


class TestTransparentAcceleration:
    def test_accelerate_deploys_tc_fast_paths(self):
        cluster = Cluster(workers=2)
        client, server = cluster.pod_pair(intra=True)
        cluster.accelerate()
        node = cluster.workers[0]
        summary = node.controller.deployed_summary()
        veths = node.host_veth_names()
        assert all(v in summary for v in veths)
        assert "bridge" in summary[veths[0]]
        # TC hook, not XDP
        assert node.kernel.devices.by_name(veths[0]).tc_ingress_prog is not None

    def test_intra_node_speedup(self):
        def measure(accelerated):
            cluster = Cluster(workers=2)
            client, server = cluster.pod_pair(intra=True)
            if accelerated:
                cluster.accelerate()
            tcp_rr_server(server.kernel, 5201)
            rr_once(cluster, client, server)  # warm (learning, ARP)
            return rr_once(cluster, client, server)

        slow = measure(False)
        fast = measure(True)
        assert fast < slow
        assert 0.70 < fast / slow < 0.95  # paper: ~0.82

    def test_inter_node_speedup(self):
        def measure(accelerated):
            cluster = Cluster(workers=2)
            client, server = cluster.pod_pair(intra=False)
            if accelerated:
                cluster.accelerate()
            tcp_rr_server(server.kernel, 5201)
            rr_once(cluster, client, server)
            return rr_once(cluster, client, server)

        slow = measure(False)
        fast = measure(True)
        assert fast < slow
        assert 0.80 < fast / slow < 0.98  # paper: ~0.86

    def test_new_pod_triggers_redeploy(self):
        cluster = Cluster(workers=2)
        cluster.accelerate()
        node = cluster.workers[0]
        rebuilds = node.controller.rebuilds
        cluster.create_pod(node)
        assert node.controller.rebuilds > rebuilds
        veths = node.host_veth_names()
        assert veths[-1] in node.controller.deployed_summary()

    def test_acceleration_preserves_connectivity(self):
        cluster = Cluster(workers=2)
        client, server = cluster.pod_pair(intra=False)
        cluster.accelerate()
        tcp_rr_server(server.kernel, 5201)
        for __ in range(5):
            assert rr_once(cluster, client, server) is not None

    def test_accelerated_cluster_serves_an_ipvs_service(self):
        """A ClusterIP programmed the way kube-proxy's ipvs mode does it
        (the VIP on ``lo``, ipvs round-robin over the endpoint pods) keeps
        answering once LinuxFP accelerates every node with the ipvs FPM."""
        cluster = Cluster(workers=2)
        client = cluster.create_pod(cluster.workers[0], "client")
        backend_a = cluster.create_pod(cluster.workers[0], "backend-a")
        backend_b = cluster.create_pod(cluster.workers[1], "backend-b")
        for backend in (backend_a, backend_b):
            tcp_rr_server(backend.kernel, 8080, response_size=1)
        for node in cluster.nodes:
            ip(node.kernel, "addr add 10.96.0.1/32 dev lo")
            ipvsadm(node.kernel, "-A -t 10.96.0.1:80 -s rr")
            for backend in (backend_a, backend_b):
                ipvsadm(node.kernel, f"-a -t 10.96.0.1:80 -r {backend.ip}:8080")
        cluster.accelerate(enable_ipvs=True)
        answered = 0
        for i in range(4):
            responses = []
            sport = 34000 + i
            client.kernel.sockets.bind(IPPROTO_TCP, sport, lambda k, skb: responses.append(skb))
            client.kernel.send_ip(
                IPv4(src=ipv4(client.ip), dst=ipv4("10.96.0.1"), proto=IPPROTO_TCP),
                TCP(sport=sport, dport=80, flags=TCP.ACK | TCP.PSH),
                b"\x01",
            )
            client.kernel.sockets.unbind(IPPROTO_TCP, sport)
            answered += len(responses)
        assert answered == 4
        assert backend_a.kernel.sockets.delivered == 2
        assert backend_b.kernel.sockets.delivered == 2
        assert "ipvs" in str(cluster.workers[0].controller.deployed_summary())


class TestStageLatency:
    """A vxlan round trip's per-stage histograms. Decapsulation re-enters
    ``__netif_receive_skb_core`` and ``ip_rcv`` inside the outer frame's
    stages, so each stage's elapsed time must come from its own entry."""

    # (count, sum ns) per stage on node2 and node3 for three inter-node
    # TCP_RR transactions, the first resolving ARP; node1 sees one ARP frame
    PINNED = {
        False: {
            "node2": {
                "__netif_receive_skb_core": (11, 68050), "arp_rcv": (2, 22980),
                "br_handle_frame": (4, 2000), "dev_queue_xmit": (9, 58940),
                "fib_table_lookup": (6, 720), "ip_forward": (6, 360), "ip_output": (10, 70750),
                "ip_rcv": (9, 42630), "neigh_resolve": (10, 500),
                "nf_hook_slow[FORWARD]": (6, 300), "nf_hook_slow[OUTPUT]": (3, 150),
            },
            "node3": {
                "__netif_receive_skb_core": (11, 77300), "arp_rcv": (2, 16710),
                "br_handle_frame": (4, 2000), "dev_queue_xmit": (9, 39360),
                "fib_table_lookup": (6, 720), "ip_forward": (6, 360), "ip_output": (10, 48270),
                "ip_rcv": (9, 58150), "neigh_resolve": (10, 500),
                "nf_hook_slow[FORWARD]": (6, 300), "nf_hook_slow[OUTPUT]": (3, 150),
            },
        },
        True: {
            "node2": {
                "__netif_receive_skb_core": (8, 35455), "arp_rcv": (2, 22185),
                "br_handle_frame": (1, 500), "dev_queue_xmit": (6, 29341),
                "fib_table_lookup": (3, 360), "ip_forward": (3, 180), "ip_output": (7, 40827),
                "ip_rcv": (6, 12450), "neigh_resolve": (7, 350),
                "nf_hook_slow[FORWARD]": (3, 150), "nf_hook_slow[OUTPUT]": (3, 150),
            },
            "node3": {
                "__netif_receive_skb_core": (8, 60845), "arp_rcv": (2, 16173),
                "br_handle_frame": (1, 500), "dev_queue_xmit": (6, 27955),
                "fib_table_lookup": (3, 360), "ip_forward": (3, 180), "ip_output": (7, 36233),
                "ip_rcv": (6, 43852), "neigh_resolve": (7, 350),
                "nf_hook_slow[FORWARD]": (3, 150), "nf_hook_slow[OUTPUT]": (3, 150),
            },
        },
    }

    @pytest.mark.parametrize("accelerate", [False, True])
    def test_counts_and_sums_are_pinned(self, accelerate):
        cluster = Cluster(workers=2)
        client, server = cluster.pod_pair(intra=False)
        if accelerate:
            cluster.accelerate()
        tcp_rr_server(server.kernel, 5201)
        answers = []
        client.kernel.sockets.bind(IPPROTO_TCP, 40000, lambda k, skb: answers.append(skb))
        for node in cluster.nodes:
            node.kernel.observability.stage_latency.hists.clear()
        for i in range(3):
            client.kernel.send_ip(
                IPv4(src=ipv4(client.ip), dst=ipv4(server.ip), proto=IPPROTO_TCP),
                TCP(sport=40000, dport=5201, flags=TCP.ACK | TCP.PSH),
                b"ping%d" % i,
            )
        assert len(answers) == 3
        seen = {}
        for node in cluster.nodes:
            hists = node.kernel.observability.stage_latency
            seen[node.name] = {name: (hists[name].count, hists[name].total) for name in hists.names()}
        assert seen == {"node1": {"__netif_receive_skb_core": (1, 40)}, **self.PINNED[accelerate]}
