"""Tests for net devices, the device table, and sysctl."""

import pytest

from repro.kernel import Kernel
from repro.kernel.interfaces import DeviceError, LoopbackDevice, PhysicalDevice, VethDevice
from repro.kernel.sysctl import Sysctl, SysctlError
from repro.netsim.addresses import IfAddr, IPv4Addr, MacAddr
from repro.netsim.packet import make_udp


@pytest.fixture
def kernel():
    return Kernel("dev-test")


class TestDeviceTable:
    def test_loopback_preinstalled(self, kernel):
        lo = kernel.devices.by_name("lo")
        assert isinstance(lo, LoopbackDevice)
        assert lo.up and lo.has_address(IPv4Addr.parse("127.0.0.1"))

    def test_ifindex_allocation_monotonic(self, kernel):
        a = kernel.add_physical("eth0")
        b = kernel.add_physical("eth1")
        assert b.ifindex == a.ifindex + 1

    def test_unique_names(self, kernel):
        kernel.add_physical("eth0")
        with pytest.raises(DeviceError):
            kernel.add_physical("eth0")

    def test_unique_macs_within_kernel(self, kernel):
        macs = {kernel.add_physical(f"eth{i}").mac for i in range(10)}
        assert len(macs) == 10

    def test_unique_macs_across_kernels(self):
        a, b = Kernel("a"), Kernel("b")
        assert a.add_physical("eth0").mac != b.add_physical("eth0").mac

    def test_by_index_and_name(self, kernel):
        dev = kernel.add_physical("eth0")
        assert kernel.devices.by_index(dev.ifindex) is dev
        assert kernel.devices.by_name("eth0") is dev
        with pytest.raises(DeviceError):
            kernel.devices.by_index(999)
        with pytest.raises(DeviceError):
            kernel.devices.by_name("ghost")
        assert kernel.devices.get("ghost") is None

    def test_del_device_cleans_state(self, kernel):
        dev = kernel.add_physical("eth0")
        kernel.set_link("eth0", True)
        kernel.add_address("eth0", "10.0.0.1/24")
        kernel.neigh_add("eth0", "10.0.0.2", MacAddr.parse("02:aa:00:00:00:01"))
        kernel.del_device("eth0")
        assert "eth0" not in kernel.devices
        assert kernel.fib.lookup("10.0.0.9") is None
        assert kernel.neighbors.resolved(dev.ifindex, "10.0.0.2") is None

    def test_link_down_flushes_routes(self, kernel):
        kernel.add_physical("eth0")
        kernel.set_link("eth0", True)
        kernel.add_address("eth0", "10.0.0.1/24")
        assert kernel.fib.lookup("10.0.0.9") is not None
        kernel.set_link("eth0", False)
        assert kernel.fib.lookup("10.0.0.9") is None


class TestAddresses:
    def test_interface_address_keeps_host_part(self, kernel):
        kernel.add_physical("eth0")
        addr = kernel.add_address("eth0", "10.1.2.3/24")
        assert str(addr) == "10.1.2.3/24"
        assert str(addr.network) == "10.1.2.0/24"
        route = kernel.fib.lookup("10.1.2.200")
        assert route is not None and route.gateway is None  # connected

    def test_duplicate_address_rejected(self, kernel):
        kernel.add_physical("eth0")
        kernel.add_address("eth0", "10.0.0.1/24")
        with pytest.raises(DeviceError):
            kernel.add_address("eth0", "10.0.0.1/24")

    def test_host_address_no_connected_route(self, kernel):
        kernel.add_physical("eth0")
        kernel.add_address("eth0", "10.0.0.1/32")
        assert kernel.fib.lookup("10.0.0.2") is None

    def test_del_address_removes_connected_route(self, kernel):
        kernel.add_physical("eth0")
        kernel.add_address("eth0", "10.0.0.1/24")
        kernel.del_address("eth0", "10.0.0.1")
        assert kernel.fib.lookup("10.0.0.9") is None

    def test_remove_missing_address_rejected(self, kernel):
        dev = kernel.add_physical("eth0")
        with pytest.raises(DeviceError):
            dev.remove_address(IPv4Addr.parse("9.9.9.9"))

    def test_is_local_follows_every_address_change(self, kernel):
        """``is_local`` against a loop over every device's addresses."""
        probes = [IPv4Addr.parse(a) for a in ("127.0.0.1", "10.0.0.1", "10.0.0.2", "10.9.0.1", "10.0.0.255")]

        def check():
            for addr in probes:
                looped = any(dev.has_address(addr) for dev in kernel.devices.all())
                assert kernel.devices.is_local(addr) == looped

        check()
        kernel.add_physical("eth0")
        kernel.add_physical("eth1")
        kernel.add_address("eth0", "10.0.0.1/24")
        check()
        kernel.add_address("eth1", "10.0.0.1/32")  # one address on two devices
        kernel.add_address("eth1", "10.9.0.1/16")
        check()
        kernel.del_address("eth0", "10.0.0.1")
        assert kernel.devices.is_local(IPv4Addr.parse("10.0.0.1"))  # eth1 still holds it
        check()
        kernel.del_device("eth1")
        assert not kernel.devices.is_local(IPv4Addr.parse("10.9.0.1"))
        check()
        kernel.add_address("eth0", "10.0.0.2/24")
        check()


class TestVeth:
    def test_pair_transmit(self, kernel):
        a, b = kernel.add_veth_pair("va", "vb")
        kernel.set_link("va", True)
        kernel.set_link("vb", True)
        got = []
        b.deliver = lambda frame, queue=0: got.append(frame)
        a.transmit(b"hello")
        assert got == [b"hello"]

    def test_down_peer_drops(self, kernel):
        a, b = kernel.add_veth_pair("va", "vb")
        kernel.set_link("va", True)
        a.transmit(b"dropped")
        assert a.dropped == 1

    def test_cross_kernel_pair(self):
        host, pod = Kernel("host"), Kernel("pod")
        # share a clock so costs land consistently
        pod.clock = host.clock
        a, b = host.add_veth_pair("va", "eth0", peer_kernel=pod)
        assert b.kernel is pod
        assert "eth0" in pod.devices and "va" in host.devices

    def test_double_pairing_rejected(self, kernel):
        a, b = kernel.add_veth_pair("va", "vb")
        c = VethDevice(kernel, kernel.devices.next_ifindex(), "vc", kernel.devices.allocate_mac())
        with pytest.raises(DeviceError):
            a.connect(c)

    def test_veth_crossing_charges_cost(self, kernel):
        a, b = kernel.add_veth_pair("va", "vb")
        kernel.set_link("va", True)
        kernel.set_link("vb", True)
        b.deliver = lambda frame, queue=0: None
        t0 = kernel.clock.now_ns
        a.transmit(b"x")
        assert kernel.clock.now_ns - t0 == pytest.approx(kernel.costs.veth_xmit, abs=1)


class TestSysctl:
    def test_defaults(self):
        sysctl = Sysctl()
        assert sysctl.get("net.ipv4.ip_forward") == "0"
        assert not sysctl.get_bool("net.ipv4.ip_forward")

    def test_set_and_listeners(self):
        sysctl = Sysctl()
        seen = []
        sysctl.add_listener(lambda name, value: seen.append((name, value)))
        sysctl.set("net.ipv4.ip_forward", "1")
        assert sysctl.get_bool("net.ipv4.ip_forward")
        assert seen == [("net.ipv4.ip_forward", "1")]

    def test_idempotent_set_no_notification(self):
        sysctl = Sysctl()
        seen = []
        sysctl.add_listener(lambda name, value: seen.append(name))
        sysctl.set("net.ipv4.ip_forward", "0")  # already 0
        assert seen == []

    def test_unknown_key_rejected(self):
        sysctl = Sysctl()
        with pytest.raises(SysctlError):
            sysctl.get("net.made.up")
        with pytest.raises(SysctlError):
            sysctl.set("net.made.up", "1")

    def test_kernel_sysctl_notifies_bus(self, kernel):
        socket = kernel.bus.open_socket()
        socket.subscribe("sysctl")
        kernel.sysctl_set("net.ipv4.ip_forward", "1")
        note = socket.recv()
        assert note.attrs == {"name": "net.ipv4.ip_forward", "value": "1"}
