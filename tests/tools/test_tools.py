"""Tests for the management tools (netlink-only kernel configuration) and
the fpmlint / fpmtool CLIs."""

import json

import pytest

from repro.kernel import Kernel
from repro.kernel.interfaces import BridgeDevice, VxlanDevice
from repro.netsim.addresses import IPv4Addr, IPv4Prefix, MacAddr
from repro.tools import brctl, bridge_tool, fpmlint, fpmtool, ip, ipset, iptables, ipvsadm, sysctl
from repro.tools.common import ToolError
from repro.tools.frr import FrrDaemon, converge


@pytest.fixture
def kernel():
    k = Kernel("tools-test")
    k.add_physical("eth0")
    k.set_link("eth0", True)
    return k


class TestIpLink:
    def test_add_bridge(self, kernel):
        ip(kernel, "link add br0 type bridge")
        assert isinstance(kernel.devices.by_name("br0"), BridgeDevice)

    def test_add_veth_pair(self, kernel):
        ip(kernel, "link add veth0 type veth peer name veth1")
        assert kernel.devices.by_name("veth0").peer is kernel.devices.by_name("veth1")

    def test_add_vxlan(self, kernel):
        kernel.add_address("eth0", "192.168.1.1/24")
        ip(kernel, "link add flannel.1 type vxlan id 1 local 192.168.1.1 dstport 8472 dev eth0")
        dev = kernel.devices.by_name("flannel.1")
        assert isinstance(dev, VxlanDevice) and dev.vni == 1

    def test_set_up_down(self, kernel):
        ip(kernel, "link add br0 type bridge")
        ip(kernel, "link set br0 up")
        assert kernel.devices.by_name("br0").up
        ip(kernel, "link set br0 down")
        assert not kernel.devices.by_name("br0").up

    def test_set_master(self, kernel):
        ip(kernel, "link add br0 type bridge")
        ip(kernel, "link set eth0 master br0")
        assert kernel.devices.by_name("eth0").master == kernel.devices.by_name("br0").ifindex
        ip(kernel, "link set eth0 nomaster")
        assert kernel.devices.by_name("eth0").master is None

    def test_del(self, kernel):
        ip(kernel, "link add br0 type bridge")
        ip(kernel, "link del br0")
        assert "br0" not in kernel.devices

    def test_show(self, kernel):
        lines = ip(kernel, "link show")
        assert any("eth0" in line for line in lines)

    def test_unknown_device_errors(self, kernel):
        with pytest.raises(Exception):
            ip(kernel, "link set ghost0 up")

    def test_mtu(self, kernel):
        ip(kernel, "link set eth0 mtu 9000")
        assert kernel.devices.by_name("eth0").mtu == 9000


class TestIpAddrRoute:
    def test_addr_add_creates_connected_route(self, kernel):
        ip(kernel, "addr add 10.10.1.1/24 dev eth0")
        dev = kernel.devices.by_name("eth0")
        assert dev.has_address(IPv4Addr.parse("10.10.1.1"))
        route = kernel.fib.lookup("10.10.1.77")
        assert route is not None and route.oif == dev.ifindex

    def test_addr_del(self, kernel):
        ip(kernel, "addr add 10.10.1.1/24 dev eth0")
        ip(kernel, "addr del 10.10.1.1/24 dev eth0")
        assert not kernel.devices.by_name("eth0").has_address(IPv4Addr.parse("10.10.1.1"))

    def test_route_add_via(self, kernel):
        ip(kernel, "addr add 10.10.1.1/24 dev eth0")
        ip(kernel, "route add 10.99.0.0/16 via 10.10.1.254")
        route = kernel.fib.lookup("10.99.5.5")
        assert route.gateway == IPv4Addr.parse("10.10.1.254")

    def test_route_default(self, kernel):
        ip(kernel, "addr add 10.10.1.1/24 dev eth0")
        ip(kernel, "route add default via 10.10.1.254")
        assert kernel.fib.lookup("8.8.8.8") is not None

    def test_route_del(self, kernel):
        ip(kernel, "addr add 10.10.1.1/24 dev eth0")
        ip(kernel, "route add 10.99.0.0/16 via 10.10.1.254")
        ip(kernel, "route del 10.99.0.0/16")
        assert kernel.fib.lookup("10.99.5.5") is None

    def test_route_show(self, kernel):
        ip(kernel, "addr add 10.10.1.1/24 dev eth0")
        lines = ip(kernel, "route show")
        assert any("10.10.1.0/24" in line for line in lines)

    def test_neigh_add(self, kernel):
        ip(kernel, "neigh add 10.10.1.9 lladdr 02:aa:00:00:00:09 dev eth0")
        dev = kernel.devices.by_name("eth0")
        assert kernel.neighbors.resolved(dev.ifindex, "10.10.1.9") == MacAddr.parse("02:aa:00:00:00:09")

    def test_usage_errors(self, kernel):
        with pytest.raises(ToolError):
            ip(kernel, "bogus stuff")
        with pytest.raises(ToolError):
            ip(kernel, "addr add 10.0.0.1/24")


class TestBrctl:
    def test_addbr_addif(self, kernel):
        brctl(kernel, "addbr br0")
        ip(kernel, "link add v0 type veth peer name p0")
        brctl(kernel, "addif br0 v0")
        bridge = kernel.devices.by_name("br0").bridge
        assert kernel.devices.by_name("v0").ifindex in bridge.ports

    def test_delif_delbr(self, kernel):
        brctl(kernel, "addbr br0")
        ip(kernel, "link add v0 type veth peer name p0")
        brctl(kernel, "addif br0 v0")
        brctl(kernel, "delif br0 v0")
        assert kernel.devices.by_name("v0").master is None
        brctl(kernel, "delbr br0")
        assert "br0" not in kernel.devices

    def test_stp(self, kernel):
        brctl(kernel, "addbr br0")
        brctl(kernel, "stp br0 on")
        assert kernel.devices.by_name("br0").bridge.stp_enabled
        assert any("yes" in line for line in brctl(kernel, "show"))

    def test_bridge_tool_vlan_filtering(self, kernel):
        brctl(kernel, "addbr br0")
        bridge_tool(kernel, "link set dev br0 vlan_filtering on")
        assert kernel.devices.by_name("br0").bridge.vlan_filtering

    def test_bridge_fdb_vxlan(self, kernel):
        kernel.add_address("eth0", "192.168.1.1/24")
        ip(kernel, "link add vx0 type vxlan id 7 local 192.168.1.1")
        bridge_tool(kernel, "fdb add 02:bb:00:00:00:01 dev vx0 dst 192.168.1.2")
        dev = kernel.devices.by_name("vx0")
        assert dev.vtep_fdb[MacAddr.parse("02:bb:00:00:00:01")] == IPv4Addr.parse("192.168.1.2")


class TestIptablesIpset:
    def test_append_rule(self, kernel):
        iptables(kernel, "-A FORWARD -s 172.16.0.0/24 -j DROP")
        assert kernel.netfilter.rule_count("FORWARD") == 1
        rule = kernel.netfilter.chain("FORWARD").rules[0]
        assert rule.src == IPv4Prefix.parse("172.16.0.0/24") and rule.target == "DROP"

    def test_matches_parsed(self, kernel):
        iptables(kernel, "-A FORWARD -d 10.0.0.0/8 -p tcp --dport 443 -i eth0 -j ACCEPT")
        rule = kernel.netfilter.chain("FORWARD").rules[0]
        assert rule.proto == 6 and rule.dport == 443 and rule.in_iface == "eth0"

    def test_policy(self, kernel):
        iptables(kernel, "-P FORWARD DROP")
        assert kernel.netfilter.chain("FORWARD").policy == "DROP"

    def test_flush(self, kernel):
        iptables(kernel, "-A FORWARD -j DROP")
        iptables(kernel, "-F FORWARD")
        assert kernel.netfilter.rule_count("FORWARD") == 0

    def test_delete_by_handle(self, kernel):
        iptables(kernel, "-A FORWARD -j DROP")
        handle = kernel.netfilter.chain("FORWARD").rules[0].handle
        iptables(kernel, f"-D FORWARD {handle}")
        assert kernel.netfilter.rule_count("FORWARD") == 0

    def test_list(self, kernel):
        iptables(kernel, "-A FORWARD -s 1.2.3.0/24 -j DROP")
        lines = iptables(kernel, "-L FORWARD")
        assert any("1.2.3.0" in line for line in lines)

    def test_match_set(self, kernel):
        ipset(kernel, "create blacklist hash:ip")
        ipset(kernel, "add blacklist 172.16.0.5")
        iptables(kernel, "-A FORWARD -m set --match-set blacklist src -j DROP")
        rule = kernel.netfilter.chain("FORWARD").rules[0]
        assert rule.match_set == "blacklist"
        assert kernel.ipsets.require("blacklist").test("172.16.0.5")

    def test_ipset_lifecycle(self, kernel):
        ipset(kernel, "create s hash:net")
        ipset(kernel, "add s 10.1.0.0/16")
        assert any("Entries: 1" in line for line in ipset(kernel, "list"))
        ipset(kernel, "del s 10.1.0.0/16")
        ipset(kernel, "destroy s")
        assert kernel.ipsets.get("s") is None


class TestSysctlIpvsadm:
    def test_sysctl_write_read(self, kernel):
        sysctl(kernel, "-w net.ipv4.ip_forward=1")
        assert kernel.sysctl.get_bool("net.ipv4.ip_forward")
        assert sysctl(kernel, "net.ipv4.ip_forward") == ["net.ipv4.ip_forward = 1"]

    def test_ipvsadm_service_and_dests(self, kernel):
        ipvsadm(kernel, "-A -t 10.96.0.1:80 -s rr")
        ipvsadm(kernel, "-a -t 10.96.0.1:80 -r 10.244.1.10:8080 -w 2")
        service = kernel.ipvs.get("10.96.0.1", 80, 6)
        assert service is not None and service.dests[0].weight == 2
        lines = ipvsadm(kernel, "-L")
        assert any("10.96.0.1:80" in line for line in lines)
        ipvsadm(kernel, "-d -t 10.96.0.1:80 -r 10.244.1.10:8080")
        ipvsadm(kernel, "-D -t 10.96.0.1:80")
        assert kernel.ipvs.get("10.96.0.1", 80, 6) is None


class TestFrr:
    def make_pair(self):
        """Two routers on a shared 192.168.0.0/30 link, each with a LAN."""
        from repro.netsim.nic import Wire

        r1, r2 = Kernel("r1"), Kernel("r2")
        for r, lan, link_ip in ((r1, "10.1.0.1/24", "192.168.0.1/30"), (r2, "10.2.0.1/24", "192.168.0.2/30")):
            r.add_physical("lan0")
            r.add_physical("wan0")
            r.set_link("lan0", True)
            r.set_link("wan0", True)
            r.add_address("lan0", lan)
            r.add_address("wan0", link_ip)
        Wire(r1.devices.by_name("wan0").nic, r2.devices.by_name("wan0").nic)
        return r1, r2

    def test_convergence_installs_routes(self):
        r1, r2 = self.make_pair()
        d1, d2 = FrrDaemon(r1, "1.1.1.1"), FrrDaemon(r2, "2.2.2.2")
        d1.learn_connected()
        d2.learn_connected()
        d1.add_peer(d2, IPv4Addr.parse("192.168.0.1"))
        d2.add_peer(d1, IPv4Addr.parse("192.168.0.2"))
        rounds = converge([d1, d2])
        assert rounds < 16
        # r1 must now reach r2's LAN through the link
        route = r1.fib.lookup("10.2.0.55")
        assert route is not None and route.gateway == IPv4Addr.parse("192.168.0.2")
        route = r2.fib.lookup("10.1.0.55")
        assert route is not None and route.gateway == IPv4Addr.parse("192.168.0.1")

    def test_withdrawal(self):
        r1, r2 = self.make_pair()
        d1, d2 = FrrDaemon(r1, "1.1.1.1"), FrrDaemon(r2, "2.2.2.2")
        d1.learn_connected()
        d2.learn_connected()
        d1.add_peer(d2, IPv4Addr.parse("192.168.0.1"))
        d2.add_peer(d1, IPv4Addr.parse("192.168.0.2"))
        converge([d1, d2])
        # r1 withdraws its LAN
        prefix = IPv4Prefix.parse("10.1.0.0/24")
        del d1.rib[prefix]
        d2.receive(__import__("repro.tools.frr", fromlist=["Advertisement"]).Advertisement(
            origin="1.1.1.1", prefix=prefix, metric=16, next_hop=IPv4Addr.parse("192.168.0.1")))
        assert r2.fib.lookup("10.1.0.55") is None

    def test_split_horizon(self):
        r1, r2 = self.make_pair()
        d1, d2 = FrrDaemon(r1, "1.1.1.1"), FrrDaemon(r2, "2.2.2.2")
        d1.learn_connected()
        d2.learn_connected()
        d1.add_peer(d2, IPv4Addr.parse("192.168.0.1"))
        d2.add_peer(d1, IPv4Addr.parse("192.168.0.2"))
        converge([d1, d2])
        advs = d2.advertisements_for("1.1.1.1")
        assert all(str(a.prefix) != "10.1.0.0/24" for a in advs)


class TestFpmlintJson:
    def test_json_mode_clean_library(self, capsys):
        rc = fpmlint.main(["--json"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["tool"] == "fpmlint"
        assert payload["checked"] == 14
        assert payload["findings"] == []

    def test_text_mode_unchanged(self, capsys):
        rc = fpmlint.main([])
        out = capsys.readouterr().out
        assert rc == 0
        assert "14 program(s) verified" in out

    def test_structured_findings_shape(self):
        checked, problems = fpmlint.lint_library_structured()
        assert checked == 14
        for problem in problems:
            assert {"program", "pc", "code", "message"} <= set(problem)


class TestFpmtoolProgList:
    def test_jit_column(self, capsys):
        rc = fpmtool.main(["--scenario", "router", "--packets", "8", "prog", "list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0].split()[-1] == "jit"
        lines = [l for l in out.splitlines() if l.startswith("eth")]
        assert lines and all(l.rstrip().endswith("inline)") for l in lines)
