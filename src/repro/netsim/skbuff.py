"""The ``sk_buff``-like packet descriptor used by the simulated kernel.

An :class:`SKBuff` carries a frame through the slow path together with the
metadata the stack reads per packet: the input interface, the conntrack
entry and whether the packet has settled in the stack's ledger. XDP
programs run *before* an SKBuff exists and see only the raw frame bytes; TC
programs see the SKBuff's wire image.

Like Linux, which runs a TC program on ``skb->data`` and rewrites the TTL
and MAC header in place, an skb keeps the bytes it arrived with:

- :meth:`SKBuff.lazy` keeps a frame that
  :func:`~repro.netsim.packet.round_trips` accepts *unparsed*. The frame is
  its wire image, and the first read of ``pkt`` parses it, so a frame that
  a TC program redirects or drops is never parsed.
- :meth:`SKBuff.parse` parses the frame at once and keeps its bytes. The
  first :meth:`SKBuff.wire_frame` runs the round-trip check on them and
  serialises ``pkt`` only when the check declines, so a frame the stack
  consumes never pays the check.
- :meth:`SKBuff.raw` keeps any frame unparsed, for a bridge that forwards
  it by destination MAC alone.
- :meth:`SKBuff.set_wire` installs the stack's own in-place rewrite of the
  wire image after it changed ``pkt`` to match.

Whatever the route, ``wire_frame() == pkt.to_bytes()`` wherever ``pkt``
is read.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.packet import Packet, round_trips


class SkbStats:
    """Per-kernel counts that show whether the slow path reuses frame bytes."""

    __slots__ = ("parsed", "freed_unparsed", "wire_reused", "wire_serialised")

    def __init__(self) -> None:
        #: skbs whose frame was parsed, at allocation or on first header read
        self.parsed = 0
        #: skbs that settled never parsed (a TC program redirected or dropped them)
        self.freed_unparsed = 0
        #: wire images that are the received bytes (the stack patches them in place)
        self.wire_reused = 0
        #: wire images serialised from the parsed packet
        self.wire_serialised = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


#: where skbs built outside a kernel (tests, helpers) count; nothing reads it
DETACHED = SkbStats()


class SKBuff:
    """Kernel packet descriptor.

    ``pkt`` is a plain attribute once set. Only an skb from
    :meth:`lazy` starts without it, and :meth:`__getattr__` parses the
    frame on the first read.
    """

    __slots__ = ("pkt", "ifindex", "conntrack", "accounted", "_wire", "_rx", "_unparsed", "_stats")

    def __init__(
        self,
        pkt: Packet,
        ifindex: int = 0,
        rx: Optional[bytes] = None,
        stats: SkbStats = DETACHED,
    ) -> None:
        self.pkt = pkt
        self.ifindex = ifindex  # receiving interface index
        self.conntrack: Optional[object] = None
        # Set when the packet reached its terminal in the stack's ledger; a
        # settled skb re-entering a terminal (drained neighbor queue, fragment
        # piece) must not be counted twice.
        self.accounted = False
        # the memoized wire image (the skb_linearize analogue): TC hooks, the
        # MTU check and dev_queue_xmit all read it
        self._wire: Optional[bytes] = None
        # the received bytes, not yet checked to be pkt's wire image
        self._rx = rx
        # the received bytes while pkt is unparsed
        self._unparsed: Optional[bytes] = None
        self._stats = stats

    @classmethod
    def parse(cls, frame: bytes, ifindex: int, stats: SkbStats = DETACHED) -> "SKBuff":
        """An skb for a received ``frame``, parsed now (a malformed frame
        raises :class:`~repro.netsim.packet.PacketError`). The bytes stay
        for the first :meth:`wire_frame`."""
        pkt = Packet.from_bytes(frame)
        stats.parsed += 1
        return cls(pkt, ifindex, frame, stats)

    @classmethod
    def lazy(cls, frame: bytes, ifindex: int, stats: SkbStats = DETACHED) -> "SKBuff":
        """An skb for a received ``frame`` whose wire image is needed now:
        unparsed when :func:`~repro.netsim.packet.round_trips` accepts the
        frame, parsed now otherwise, so a malformed frame still raises
        :class:`~repro.netsim.packet.PacketError` here."""
        if not round_trips(frame):
            pkt = Packet.from_bytes(frame)
            stats.parsed += 1
            return cls(pkt, ifindex, stats=stats)
        return cls.raw(frame, ifindex, stats)

    @classmethod
    def raw(cls, frame: bytes, ifindex: int, stats: SkbStats = DETACHED) -> "SKBuff":
        """An unparsed skb whose wire image is ``frame`` as it is, for a
        layer that reads only the Ethernet header from the bytes, as a
        bridge without vlan filtering forwards by destination MAC
        (``br_dev_xmit``). :meth:`lazy` makes one for a frame that
        round-trips; for any other frame, nothing may read ``pkt``."""
        stats.wire_reused += 1
        skb = cls.__new__(cls)
        skb.ifindex = ifindex
        skb.conntrack = None
        skb.accounted = False
        skb._wire = skb._unparsed = frame
        skb._rx = None
        skb._stats = stats
        return skb

    def __getattr__(self, name: str):
        # reached only for an unset slot: ``pkt`` of an unparsed skb
        if name != "pkt":
            raise AttributeError(name)
        self._stats.parsed += 1
        pkt = self.pkt = Packet.from_bytes(self._unparsed)
        self._unparsed = None
        return pkt

    @property
    def unparsed(self) -> bool:
        """True while ``pkt`` has not been read."""
        return self._unparsed is not None

    def wire_frame(self) -> bytes:
        """``pkt.to_bytes()``, memoized until the packet is next mutated:
        the received bytes when they round-trip, else a serialisation."""
        wire = self._wire
        if wire is None:
            rx = self._rx
            if rx is not None and round_trips(rx):
                self._stats.wire_reused += 1
                wire = rx
            else:
                self._stats.wire_serialised += 1
                wire = self.pkt.to_bytes()
            self._wire = wire
            self._rx = None
        return wire

    def set_wire(self, wire: bytes) -> None:
        """Install ``wire`` as the wire image: the caller's in-place rewrite
        of :meth:`wire_frame` after a ``pkt`` change it mirrors."""
        self._wire = wire

    def invalidate_wire(self) -> None:
        """Drop the wire image and the received bytes (call after any
        ``pkt`` mutation that no :meth:`set_wire` mirrors)."""
        self._wire = self._rx = None
