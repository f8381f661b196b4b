"""Tests for MAC/IPv4 address and prefix types."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.addresses import (
    AddressError,
    IPv4Addr,
    IPv4Prefix,
    MacAddr,
    ipv4,
    mac,
    prefix,
)


class TestMacAddr:
    def test_parse_round_trip(self):
        m = MacAddr.parse("aa:bb:cc:dd:ee:ff")
        assert str(m) == "aa:bb:cc:dd:ee:ff"
        assert m.value == 0xAABBCCDDEEFF

    def test_bytes_round_trip(self):
        m = MacAddr.parse("02:00:00:00:00:2a")
        assert MacAddr.from_bytes(m.to_bytes()) == m

    def test_broadcast(self):
        assert MacAddr.broadcast().is_broadcast
        assert MacAddr.broadcast().is_multicast
        assert not MacAddr.parse("02:00:00:00:00:01").is_broadcast

    def test_multicast_bit(self):
        assert MacAddr.parse("01:00:5e:00:00:01").is_multicast
        assert not MacAddr.parse("00:00:5e:00:00:01").is_multicast

    def test_from_index_deterministic(self):
        assert MacAddr.from_index(7) == MacAddr.from_index(7)
        assert MacAddr.from_index(7) != MacAddr.from_index(8)

    @pytest.mark.parametrize("bad", ["", "aa:bb", "zz:bb:cc:dd:ee:ff", "aa:bb:cc:dd:ee:ff:00", "aabbccddeeff"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(AddressError):
            MacAddr.parse(bad)

    def test_value_range_checked(self):
        with pytest.raises(AddressError):
            MacAddr(1 << 48)
        with pytest.raises(AddressError):
            MacAddr(-1)

    def test_hashable_as_fdb_key(self):
        table = {MacAddr.from_index(1): "port1"}
        assert table[MacAddr.parse("02:00:00:00:00:01")] == "port1"

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_text_round_trip_property(self, value):
        m = MacAddr(value)
        assert MacAddr.parse(str(m)) == m


class TestIPv4Addr:
    def test_parse_round_trip(self):
        a = IPv4Addr.parse("192.168.1.42")
        assert str(a) == "192.168.1.42"
        assert a.value == 0xC0A8012A

    def test_bytes_round_trip(self):
        a = IPv4Addr.parse("10.0.0.1")
        assert IPv4Addr.from_bytes(a.to_bytes()) == a

    @pytest.mark.parametrize("bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(AddressError):
            IPv4Addr.parse(bad)

    def test_classification(self):
        assert IPv4Addr.parse("255.255.255.255").is_broadcast
        assert IPv4Addr.parse("224.0.0.1").is_multicast
        assert IPv4Addr.parse("127.0.0.1").is_loopback
        assert not IPv4Addr.parse("10.0.0.1").is_multicast

    def test_ordering(self):
        assert IPv4Addr.parse("10.0.0.1") < IPv4Addr.parse("10.0.0.2")

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_text_round_trip_property(self, value):
        a = IPv4Addr(value)
        assert IPv4Addr.parse(str(a)) == a


# each class with a value, one wrong byte length and one out-of-range value
ADDRESS_CLASSES = {
    "mac": (MacAddr, 0x020000000001, 5, 1 << 48),
    "ipv4": (IPv4Addr, 0x0A000001, 3, 1 << 32),
}


@pytest.mark.parametrize("kind", sorted(ADDRESS_CLASSES))
class TestValueSemantics:
    """Both address classes keep the semantics of a frozen, ordered
    dataclass of their one ``value`` field."""

    def test_assignment_and_deletion_raise(self, kind):
        cls, value, __, __ = ADDRESS_CLASSES[kind]
        addr = cls(value)
        with pytest.raises(FrozenInstanceError):
            addr.value = 1
        with pytest.raises(FrozenInstanceError):
            addr.other = 1
        with pytest.raises(FrozenInstanceError):
            del addr.value
        assert addr.value == value

    def test_hash_is_the_value_tuple_hash(self, kind):
        cls, value, __, __ = ADDRESS_CLASSES[kind]
        for v in (0, 1, value):
            assert hash(cls(v)) == hash((v,))

    def test_compare_within_one_type_only(self, kind):
        cls, value, __, __ = ADDRESS_CLASSES[kind]
        low, high = cls(value), cls(value + 1)
        assert low == cls(value) and low != high
        assert low < high and low <= high and high > low and high >= low
        assert not (low > high or low >= high or high < low or high <= low)
        other_cls = next(c for c, *__ in ADDRESS_CLASSES.values() if c is not cls)
        for other in (other_cls(5), 5):  # the same value in another type
            assert (cls(5) == other) is False and (cls(5) != other) is True
            for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b):
                with pytest.raises(TypeError):
                    compare(cls(5), other)

    def test_from_bytes_rejects_a_wrong_length(self, kind):
        cls, value, wrong, __ = ADDRESS_CLASSES[kind]
        assert cls.from_bytes(cls(value).to_bytes()) == cls(value)
        with pytest.raises(AddressError):
            cls.from_bytes(bytes(wrong))

    def test_constructor_rejects_out_of_range(self, kind):
        cls, __, __, past = ADDRESS_CLASSES[kind]
        assert cls(past - 1).value == past - 1
        for bad in (past, -1):
            with pytest.raises(AddressError):
                cls(bad)

    def test_copies_and_pickles_keep_the_value(self, kind):
        cls, value, __, __ = ADDRESS_CLASSES[kind]
        addr = cls(value)
        for clone in (copy.copy(addr), copy.deepcopy(addr), pickle.loads(pickle.dumps(addr))):
            assert clone == addr and clone.__class__ is cls


class TestIPv4Prefix:
    def test_parse_and_normalize(self):
        p = IPv4Prefix.parse("10.1.2.3/24")
        assert str(p) == "10.1.2.0/24"
        assert p.netmask == IPv4Addr.parse("255.255.255.0")

    def test_bare_address_is_host_prefix(self):
        assert IPv4Prefix.parse("10.0.0.1").length == 32

    def test_contains(self):
        p = IPv4Prefix.parse("10.1.0.0/16")
        assert p.contains("10.1.255.3")
        assert not p.contains("10.2.0.1")

    def test_default_route_contains_everything(self):
        p = IPv4Prefix.parse("0.0.0.0/0")
        assert p.contains("1.2.3.4")
        assert p.contains("255.255.255.255")

    def test_broadcast_address(self):
        assert IPv4Prefix.parse("10.1.2.0/24").broadcast == IPv4Addr.parse("10.1.2.255")

    def test_hosts_excludes_network_and_broadcast(self):
        hosts = list(IPv4Prefix.parse("10.0.0.0/30").hosts())
        assert [str(h) for h in hosts] == ["10.0.0.1", "10.0.0.2"]

    def test_host_indexing(self):
        p = IPv4Prefix.parse("10.0.1.0/24")
        assert str(p.host(1)) == "10.0.1.1"
        with pytest.raises(AddressError):
            p.host(300)

    def test_overlaps(self):
        assert IPv4Prefix.parse("10.0.0.0/8").overlaps(IPv4Prefix.parse("10.3.0.0/16"))
        assert not IPv4Prefix.parse("10.0.0.0/16").overlaps(IPv4Prefix.parse("10.1.0.0/16"))

    @pytest.mark.parametrize("bad", ["10.0.0.0/33", "10.0.0.0/x"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(AddressError):
            IPv4Prefix.parse(bad)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF), st.integers(min_value=0, max_value=32))
    def test_network_address_contained_property(self, value, length):
        p = IPv4Prefix(IPv4Addr(value), length)
        assert p.contains(p.address)
        assert p.contains(p.broadcast)


class TestCoercions:
    def test_ipv4_coercions(self):
        assert ipv4("10.0.0.1") == ipv4(0x0A000001) == ipv4(IPv4Addr.parse("10.0.0.1"))

    def test_mac_coercions(self):
        assert mac("02:00:00:00:00:01") == mac(0x020000000001)

    def test_prefix_coercion(self):
        assert prefix("10.0.0.0/24") == IPv4Prefix.parse("10.0.0.0/24")
