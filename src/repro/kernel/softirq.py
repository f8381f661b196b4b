"""Per-CPU softirq contexts: queue→CPU ownership, RPS steering, backlogs.

This is the kernel half of ``Documentation/networking/scaling.rst``. Each
NIC RX queue is owned by one logical CPU (``queue % num_cpus`` — the
"one queue per CPU" IRQ-affinity configuration, remapped onto the *online*
CPUs after a hotplug event), and every frame is then RPS-steered by a
*symmetric* flow hash so all packets of a flow — in both directions — are
processed on a single CPU.
A one-CPU kernel has nowhere to steer to and does not steer.

Overload semantics mirror ``enqueue_to_backlog``: each CPU has a bounded
backlog queue governed by the ``net.core.netdev_max_backlog`` sysctl. A
frame steered at a CPU whose backlog is full is *dropped at enqueue* under
the ``backlog_overflow`` drop reason — it still enters the conservation
ledger (rx + tx_local == settled + pending survives saturation), it just
settles as a drop instead of doing unbounded work. Single-frame delivery
(`rx`) enqueues and immediately drains, reproducing the pre-backlog
behavior exactly; burst delivery (`rx_burst`, the NAPI-poll model) enqueues
the whole burst before draining, which is where overflow actually bites.

The simulation is single-threaded, so "processing on CPU n" means running
the stack under :meth:`repro.netsim.cpu.CpuSet.on`, which attributes every
charged cost to that CPU's busy-time counter. Per-flow packet order is
preserved (a flow always maps to one CPU and each CPU's backlog is FIFO);
what multi-core buys is that *busy time* accumulates in parallel counters,
and throughput is bounded by the bottleneck CPU only.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Iterable, List, Optional, Tuple

from repro.netsim.checksum import internet_checksum
from repro.netsim.packet import IPPROTO_TCP, IPPROTO_UDP
from repro.netsim.rss import symmetric_flow_hash
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.interfaces import NetDevice
    from repro.kernel.kernel import Kernel

#: Fallback when the sysctl holds a non-numeric value (Linux default).
DEFAULT_MAX_BACKLOG = 1000

#: Frames one CPU may process per softirq round before yielding to the
#: next CPU (the NAPI poll budget; ``net/core/dev.c`` uses 64 too).
NAPI_BUDGET = 64


def _flow_tuple(frame: bytes) -> Optional[Tuple[int, int, int, int, int]]:
    """``(src, dst, proto, sport, dport)`` of a frame RPS may steer, or None.

    Steering declines (the frame stays on its RX queue's CPU) anything
    shorter than Ethernet + an option-less IPv4 header + the four port
    bytes; a non-IPv4 ethertype, including 802.1Q tags; IP options; a bad
    header checksum; a fragment (MF set or a nonzero offset); and any
    protocol but TCP and UDP.
    """
    if len(frame) < 38:
        return None
    if frame[12] != 0x08 or frame[13] != 0x00 or frame[14] != 0x45:
        return None
    if internet_checksum(frame[14:34]) != 0:
        return None
    if ((frame[20] << 8) | frame[21]) & 0x3FFF:
        return None
    proto = frame[23]
    if proto != IPPROTO_TCP and proto != IPPROTO_UDP:
        return None
    return (
        int.from_bytes(frame[26:30], "big"),
        int.from_bytes(frame[30:34], "big"),
        proto,
        (frame[34] << 8) | frame[35],
        (frame[36] << 8) | frame[37],
    )


class SoftirqSet:
    """Per-kernel NET_RX dispatch: picks the CPU a frame is processed on."""

    #: Placeholder with nothing behind it: bench/workloads.py reports it in Workload.config.
    batching = True

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        num_cpus = kernel.cpus.num_cpus
        #: frames whose RPS target differed from their RX-queue CPU (each
        #: paid a backlog-enqueue + IPI cost)
        self.rps_steered = 0
        #: frames that arrived while already inside a softirq context for
        #: this kernel (loopback, veth, vxlan decap re-injection) and were
        #: processed inline on the current CPU
        self.nested_rx = 0
        #: per-CPU bounded backlog queues (``softnet_data.input_pkt_queue``)
        self.backlogs: List[Deque[Tuple["NetDevice", bytes, int]]] = [
            deque() for _ in range(num_cpus)
        ]
        #: frames refused at enqueue because the CPU's backlog was full
        self.backlog_drops: List[int] = [0] * num_cpus
        #: deepest the backlog ever got, per CPU (reliability scorecard)
        self.backlog_high_water: List[int] = [0] * num_cpus
        # re-entrancy latch: process_backlogs() must not recurse when a
        # drained frame's processing triggers another enqueue+drain
        self._draining = False

    # ------------------------------------------------------------ tunables

    @property
    def max_backlog(self) -> int:
        """``net.core.netdev_max_backlog`` (live; non-numeric writes fall
        back to the Linux default)."""
        try:
            value = int(self.kernel.sysctl.get("net.core.netdev_max_backlog"))
        except (KeyError, ValueError):
            return DEFAULT_MAX_BACKLOG
        return value if value > 0 else DEFAULT_MAX_BACKLOG

    def backlog_depths(self) -> List[int]:
        return [len(q) for q in self.backlogs]

    # ------------------------------------------------------------ steering

    def rx_queue_cpu(self, queue: int) -> int:
        """The CPU whose IRQ affinity owns an RX queue.

        The default "one queue per CPU" spread; when that CPU is offline the
        IRQ has been migrated: ownership re-spreads over the online set.
        """
        cpus = self.kernel.cpus
        base = queue % cpus.num_cpus
        if cpus.is_online(base):
            return base
        online = cpus.online_cpus()
        return online[queue % len(online)]

    def steer(self, frame: bytes, rx_cpu: int) -> int:
        """The RPS target CPU for a frame (``get_rps_cpu``).

        TCP and UDP frames steer by the symmetric flow hash over the
        *online* CPUs; everything :func:`_flow_tuple` declines (ARP,
        fragments, ICMP, ...) stays on the RX queue's CPU.
        """
        flow = _flow_tuple(frame)
        if flow is None:
            return rx_cpu
        flow_hash = symmetric_flow_hash(*flow)
        cpus = self.kernel.cpus
        if cpus.num_online == cpus.num_cpus:
            return flow_hash % cpus.num_cpus
        online = cpus.online_cpus()
        return online[flow_hash % len(online)]

    # ------------------------------------------------------------- enqueue

    def enqueue(self, dev: "NetDevice", frame: bytes, queue: int = 0) -> bool:
        """Steer a frame onto its target CPU's backlog (``enqueue_to_backlog``).

        Returns True when the frame was queued; False when it was dropped
        (backlog full, or an armed ``backlog_overflow`` fault). A dropped
        frame is fully accounted: it enters the rx ledger on the target CPU
        and settles under the ``backlog_overflow`` reason.
        """
        kernel = self.kernel
        cpus = kernel.cpus

        # Chaos hook: hot-unplug the frame's CPU mid-traffic. Guarded so the
        # last online CPU survives — Linux refuses that too.
        if faults.active() and cpus.num_online > 1:
            rx_cpu = self.rx_queue_cpu(queue)
            victim = self.steer(frame, rx_cpu)
            if faults.decide("cpu_offline", f"cpu{victim}") is not None:
                kernel.cpu_offline(victim)

        target = 0  # one CPU: no get_rps_cpu, as Linux without RPS (rps_needed)
        if cpus.num_cpus > 1:
            rx_cpu = self.rx_queue_cpu(queue)
            target = self.steer(frame, rx_cpu)
            with cpus.on(rx_cpu):
                # The IRQ-owning CPU runs the rps_map lookup (the NIC computed
                # the Toeplitz hash); a cross-CPU steer additionally pays the
                # backlog enqueue + IPI, in the same charge.
                if target == rx_cpu:
                    kernel.costs_charge("rps_steer")
                else:
                    costs = kernel.costs
                    kernel.charge_ns(costs.rps_steer + costs.rps_ipi)
                    self.rps_steered += 1

        backlog = self.backlogs[target]
        overflow = len(backlog) >= self.max_backlog
        if not overflow and faults.decide("backlog_overflow", dev.name) is not None:
            overflow = True
        if overflow:
            self.backlog_drops[target] += 1
            with cpus.on(target):
                # The frame entered the machine: it must enter the ledger
                # (on the CPU that refused it) and settle as a named drop.
                kernel.stack.account_rx()
                kernel.stack.drop("backlog_overflow", dev)
            return False
        backlog.append((dev, frame, queue))
        if len(backlog) > self.backlog_high_water[target]:
            self.backlog_high_water[target] = len(backlog)
        return True

    # -------------------------------------------------------------- drain

    def process_backlogs(self) -> int:
        """Drain every CPU's backlog to empty (the NET_RX softirq loop).

        Round-robins across CPUs so one hot backlog cannot starve the
        others; each CPU gets up to :data:`NAPI_BUDGET` frames per round
        (the NAPI poll budget), and within that budget consecutive frames
        of the same ``(dev, queue)`` are coalesced into one
        :meth:`~repro.kernel.stack.Stack.receive_batch` call under a single
        CPU context — the GRO-style amortization the fast path feeds on.
        Frames a drained packet re-injects arrive nested (processed inline
        by :meth:`rx`), so draining always terminates. Returns the number
        of frames processed.
        """
        if self._draining:
            return 0
        self._draining = True
        processed = 0
        cpus = self.kernel.cpus
        stack = self.kernel.stack
        try:
            while True:
                busy = False
                for cpu, backlog in enumerate(self.backlogs):
                    if not backlog:
                        continue
                    busy = True
                    budget = NAPI_BUDGET
                    while backlog and budget > 0:
                        dev, frame, queue = backlog.popleft()
                        frames = [frame]
                        budget -= 1
                        while (
                            backlog
                            and budget > 0
                            and backlog[0][0] is dev
                            and backlog[0][2] == queue
                        ):
                            frames.append(backlog.popleft()[1])
                            budget -= 1
                        with cpus.on(cpu):
                            cpus.packets[cpu] += len(frames)
                            if len(frames) == 1:
                                stack.receive(dev, frame, queue)
                            else:
                                stack.receive_batch(dev, frames, queue)
                        processed += len(frames)
                if not busy:
                    return processed
        finally:
            self._draining = False

    def drain_cpu(self, cpu: int) -> int:
        """Drain one CPU's backlog to empty (the hotplug-offline path runs
        this while the CPU is still online, like ``dev_cpu_dead`` replaying
        the dead CPU's queue). Returns frames processed."""
        cpus = self.kernel.cpus
        processed = 0
        backlog = self.backlogs[cpu]
        while backlog:
            dev, frame, queue = backlog.popleft()
            with cpus.on(cpu):
                cpus.packets[cpu] += 1
                self.kernel.stack.receive(dev, frame, queue)
            processed += 1
        return processed

    # ----------------------------------------------------------------- rx

    def rx(self, dev: "NetDevice", frame: bytes, queue: int = 0) -> None:
        """Process one received frame on the CPU that owns it."""
        kernel = self.kernel
        cpus = kernel.cpus

        # Nested delivery: the frame was re-injected while this kernel is
        # already mid-softirq (veth crossing, loopback, tunnel decap). Linux
        # processes these on the current CPU's backlog without another
        # steering decision; re-steering here could also recurse forever.
        current = cpus.current_cpu
        if current is not None:
            self.nested_rx += 1
            cpus.packets[current] += 1
            kernel.stack.receive(dev, frame, queue)
            return

        if cpus.num_cpus == 1:
            with cpus.on(0):
                cpus.packets[0] += 1
                kernel.stack.receive(dev, frame, queue)
            return

        if self.enqueue(dev, frame, queue) and not self._draining:
            self.process_backlogs()

    def rx_burst(self, dev: "NetDevice", frames: Iterable[Tuple[bytes, int]]) -> int:
        """Deliver a coalesced burst: enqueue every frame, then drain.

        This is the NAPI-poll arrival model — an interrupt-coalesced batch
        lands on the backlogs faster than softirq drains them, which is what
        makes ``netdev_max_backlog`` bite. Returns frames *queued* (the rest
        were accounted as ``backlog_overflow`` drops).
        """
        kernel = self.kernel
        cpus = kernel.cpus
        queued = 0
        if cpus.current_cpu is not None:
            # A nested burst (exotic): process inline like nested rx.
            for frame, queue in frames:
                self.rx(dev, frame, queue)
                queued += 1
            return queued
        for frame, queue in frames:
            if self.enqueue(dev, frame, queue):
                queued += 1
        if not self._draining:
            self.process_backlogs()
        return queued
