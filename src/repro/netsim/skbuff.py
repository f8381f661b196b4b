"""The ``sk_buff``-like packet descriptor used by the simulated kernel.

An :class:`SKBuff` wraps a parsed :class:`~repro.netsim.packet.Packet`
together with the metadata the Linux stack tracks per packet (input
interface, bridge/VLAN context, conntrack pointer, etc.). XDP programs run
*before* an SKBuff exists and see only the raw frame bytes; TC programs see
the SKBuff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.netsim.packet import Packet


@dataclass
class SKBuff:
    """Kernel packet descriptor."""

    pkt: Packet
    ifindex: int = 0                  # receiving interface index
    rx_queue: int = 0
    vlan_tci: Optional[int] = None    # VLAN tag stripped by the "hardware"
    bridge_port: Optional[int] = None  # set while traversing a bridge
    conntrack: Optional[object] = None
    mark: int = 0
    priority: int = 0
    # Free-form scratch space (mirrors skb->cb) used by encapsulation layers.
    cb: Dict[str, Any] = field(default_factory=dict)
    # Set when the packet reached its terminal in the stack's ledger; a
    # settled skb re-entering a terminal (drained neighbor queue, fragment
    # piece) must not be counted twice.
    accounted: bool = False
    # Memoized wire image of `pkt` (the skb_linearize analogue): TC hooks,
    # the MTU check, and dev_queue_xmit all need the serialized frame, and
    # without the memo each re-serializes the same unmodified packet. Always
    # equal to pkt.to_bytes(); every pkt mutation must invalidate_wire().
    _wire: Optional[bytes] = field(default=None, repr=False, compare=False)

    @property
    def frame_len(self) -> int:
        if self._wire is not None:
            return len(self._wire)
        return self.pkt.frame_len

    def wire_frame(self) -> bytes:
        """``pkt.to_bytes()``, memoized until the packet is next mutated."""
        if self._wire is None:
            self._wire = self.pkt.to_bytes()
        return self._wire

    def invalidate_wire(self) -> None:
        """Drop the memoized wire image (call after any ``pkt`` mutation)."""
        self._wire = None
