"""Edge cases for the management tools and the rtnetlink surface."""

import pytest

from repro.kernel import Kernel
from repro.netlink.messages import (
    NFNLGRP_IPTABLES,
    NLM_F_DUMP,
    NLM_F_REQUEST,
    RTM_GETLINK,
    RTM_NEWLINK,
    SYSCTL_GET,
    NetlinkError,
    NetlinkMsg,
)
from repro.netsim.addresses import IPv4Addr, MacAddr
from repro.tools import brctl, bridge_tool, ip, ipset, iptables, ipvsadm, sysctl
from repro.tools.common import ToolError


@pytest.fixture
def kernel():
    k = Kernel("edges")
    k.add_physical("eth0")
    k.set_link("eth0", True)
    return k


class TestShowCommands:
    def test_ip_link_show_single(self, kernel):
        lines = ip(kernel, "link show eth0")
        assert len(lines) == 1 and "eth0" in lines[0] and "UP" in lines[0]

    def test_ip_link_show_missing_errors(self, kernel):
        with pytest.raises(NetlinkError):
            ip(kernel, "link show ghost0")

    def test_ip_addr_show(self, kernel):
        ip(kernel, "addr add 10.0.0.1/24 dev eth0")
        lines = ip(kernel, "addr show")
        assert any("10.0.0.1/24" in line for line in lines)

    def test_ip_neigh_show(self, kernel):
        ip(kernel, "neigh add 10.0.0.9 lladdr 02:aa:00:00:00:09 dev eth0")
        lines = ip(kernel, "neigh show")
        assert any("02:aa:00:00:00:09" in line for line in lines)

    def test_bridge_fdb_show(self, kernel):
        brctl(kernel, "addbr br0")
        ip(kernel, "link set eth0 master br0")
        lines = bridge_tool(kernel, "fdb show")
        assert any("vlan 1" in line for line in lines)  # the port's own MAC

    def test_iptables_list_policy_line(self, kernel):
        iptables(kernel, "-P INPUT DROP")
        lines = iptables(kernel, "-L INPUT")
        assert lines[0] == "Chain INPUT (policy DROP)"

    def test_sysctl_dump_all(self, kernel):
        socket = kernel.bus.open_socket()
        replies = socket.request(NetlinkMsg(SYSCTL_GET, flags=NLM_F_REQUEST | NLM_F_DUMP))
        names = {r.attrs["name"] for r in replies}
        assert "net.ipv4.ip_forward" in names


class TestErrorPaths:
    def test_ip_route_del_missing(self, kernel):
        with pytest.raises(NetlinkError):
            ip(kernel, "route del 10.99.0.0/16")

    def test_ip_route_unreachable_gateway(self, kernel):
        with pytest.raises(NetlinkError):
            ip(kernel, "route add 10.99.0.0/16 via 192.168.50.1")

    def test_addr_del_missing(self, kernel):
        with pytest.raises(NetlinkError):
            ip(kernel, "addr del 10.0.0.1/24 dev eth0")

    def test_brctl_addif_missing_bridge(self, kernel):
        with pytest.raises(NetlinkError):
            brctl(kernel, "addif nosuchbr eth0")

    def test_iptables_missing_target(self, kernel):
        with pytest.raises(ToolError):
            iptables(kernel, "-A FORWARD -s 10.0.0.0/8")

    def test_iptables_unknown_protocol(self, kernel):
        with pytest.raises(ToolError):
            iptables(kernel, "-A FORWARD -p sctp -j DROP")

    def test_iptables_flush_missing_chain(self, kernel):
        listener = kernel.bus.open_socket()
        listener.subscribe(NFNLGRP_IPTABLES)
        with pytest.raises(NetlinkError):
            iptables(kernel, "-F NOSUCH")
        assert listener.drain() == []  # no flush notified

    def test_iptables_list_missing_chain(self, kernel):
        with pytest.raises(ToolError):
            iptables(kernel, "-L NOSUCH")

    def test_ipset_add_to_missing_set(self, kernel):
        with pytest.raises(NetlinkError):
            ipset(kernel, "add ghost 10.0.0.1")

    def test_ipvsadm_missing_service_endpoint(self, kernel):
        with pytest.raises(ToolError):
            ipvsadm(kernel, "-A")
        with pytest.raises(ToolError):
            ipvsadm(kernel, "-A -t not-an-endpoint")

    def test_sysctl_unknown_key(self, kernel):
        with pytest.raises(NetlinkError):
            sysctl(kernel, "-w net.unknown.key=1")

    def test_duplicate_link_name(self, kernel):
        brctl(kernel, "addbr br0")
        with pytest.raises(NetlinkError):
            brctl(kernel, "addbr br0")


class TestDumpAttributes:
    def test_vxlan_link_dump_carries_info(self, kernel):
        kernel.add_address("eth0", "192.168.1.1/24")
        ip(kernel, "link add vx0 type vxlan id 9 local 192.168.1.1 dstport 4789 dev eth0")
        socket = kernel.bus.open_socket()
        replies = socket.request(NetlinkMsg(RTM_GETLINK, {"ifname": "vx0"}))
        info = replies[0].attrs["vxlan"]
        assert info["vni"] == 9
        assert info["port"] == 4789
        assert info["local"] == IPv4Addr.parse("192.168.1.1")

    def test_veth_link_dump_carries_peer(self, kernel):
        ip(kernel, "link add va type veth peer name vb")
        socket = kernel.bus.open_socket()
        replies = socket.request(NetlinkMsg(RTM_GETLINK, {"ifname": "va"}))
        peer_ifindex = replies[0].attrs["veth"]["peer_ifindex"]
        assert kernel.devices.by_index(peer_ifindex).name == "vb"

    def test_bridge_link_dump_carries_attrs(self, kernel):
        brctl(kernel, "addbr br0")
        brctl(kernel, "stp br0 on")
        socket = kernel.bus.open_socket()
        replies = socket.request(NetlinkMsg(RTM_GETLINK, {"ifname": "br0"}))
        info = replies[0].attrs["bridge"]
        assert info["stp_state"] == 1
        assert info["ageing_time"] == 300

    def test_vxlan_fdb_dump(self, kernel):
        kernel.add_address("eth0", "192.168.1.1/24")
        ip(kernel, "link add vx0 type vxlan id 9 local 192.168.1.1")
        bridge_tool(kernel, "fdb add 02:bb:00:00:00:07 dev vx0 dst 192.168.1.2")
        lines = bridge_tool(kernel, "fdb show")
        assert any("02:bb:00:00:00:07" in line for line in lines)
