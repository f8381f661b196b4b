"""Hash maps have no LRU eviction.

The simulator models ``BPF_MAP_TYPE_HASH`` only: an insert into a full map
is refused with ``MapError`` rather than evicting the least-recently-used
entry, so a program that fills a map sees the failure instead of silently
losing state.
"""

import pytest

from repro.ebpf.maps import HashMap, MapError


def k(i: int) -> bytes:
    return i.to_bytes(4, "little")


def v(i: int) -> bytes:
    return i.to_bytes(8, "little")


class TestLruSemantics:
    def test_plain_hash_still_rejects_at_capacity(self):
        m = HashMap("h", 4, 8, max_entries=1)
        m.update(k(0), v(0))
        with pytest.raises(MapError):
            m.update(k(1), v(1))
