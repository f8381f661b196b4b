"""The differential watchdog: continuous fast-path / slow-path comparison.

The synthesized fast path is supposed to be observationally equivalent to
the plain kernel pipeline. The watchdog checks that property *in
production*: every Nth packet on an accelerated interface is handled by the
plain kernel (authoritative — so sampling can never itself change
behaviour), while the fast path runs only as a **shadow prediction**. The
prediction's verdict and output frame are compared against what the kernel
actually did, via the stack's transmit taps. The prediction goes through
the hook's attachment like any other run, so with the flow cache enabled a
cached verdict is what gets checked.

A mismatch means the deployed FPM computes something the kernel would not —
a synthesis bug, a stale view, a corrupted program. The response is
containment, not diagnosis: the controller quarantines the interface
(withdraw to the slow path, flush its flow-cache partition, bump the
partition epoch) and schedules a resynthesis after a hold-off. An aborted
prediction is a mismatch at either hook, whatever the kernel did with the
packet.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.kernel.hooks_api import (
    TC_ACT_OK,
    TC_ACT_REDIRECT,
    TC_ACT_SHOT,
    XDP_ABORTED,
    XDP_DROP,
    XDP_PASS,
    XDP_REDIRECT,
    XDP_TX,
)

DEFAULT_SAMPLE_EVERY = 16


class Watchdog:
    """Samples 1-in-``every`` packets on interfaces with a deployed FPM."""

    def __init__(self, controller, every: int = DEFAULT_SAMPLE_EVERY, hook: str = "xdp") -> None:
        if every < 1:
            raise ValueError("sampling period must be >= 1")
        self.controller = controller
        self.every = every
        self.hook = hook
        self._counter = 0
        self.sampled = 0
        self.agreements = 0
        self.mismatches = 0
        self.punts = 0  # prediction was PASS/OK — slow path authoritative anyway

    # -------------------------------------------------------------- sampling

    def should_sample(self, dev) -> bool:
        """True when this packet is the 1-in-N differential sample."""
        entry = self.controller.deployer.deployed.get(dev.name)
        if entry is None or entry.current is None:
            return False  # nothing deployed: nothing to check
        self._counter += 1
        return self._counter % self.every == 0

    def sample(self, stack, dev, frame: bytes, queue: int = 0) -> None:
        """Differentially check one XDP-hook packet.

        The fast path runs as a shadow to obtain its *prediction*; the plain
        kernel pipeline then handles the packet for real. Output frames are
        captured with a transmit tap and compared against the prediction.
        """
        self.sampled += 1
        prediction = dev.xdp_prog.run_xdp(stack.kernel, dev, frame)
        captured = self._run_reference(stack, dev, frame, queue)
        if prediction.verdict == XDP_PASS:
            self.punts += 1  # the fast path declined; no claim to check
            return
        mismatch = self._judge_xdp(dev, prediction, captured)
        self._conclude(dev, mismatch)

    def sample_tc(self, stack, dev, skb, frame: bytes, queue: int = 0) -> None:
        """Differentially check one TC-ingress packet."""
        self.sampled += 1
        prediction = dev.tc_ingress_prog.run_tc(stack.kernel, dev, skb)
        captured: List[Tuple[int, bytes]] = []
        stack.tx_taps.append(lambda ifindex, out: captured.append((ifindex, out)))
        try:
            stack.netif_receive(dev, skb)
        finally:
            stack.tx_taps.pop()
        if prediction.verdict == TC_ACT_OK:
            self.punts += 1
            return
        mismatch = self._judge_tc(dev, prediction, captured)
        self._conclude(dev, mismatch)

    def _run_reference(self, stack, dev, frame: bytes, queue: int) -> List[Tuple[int, bytes]]:
        captured: List[Tuple[int, bytes]] = []
        stack.tx_taps.append(lambda ifindex, out: captured.append((ifindex, out)))
        try:
            stack.receive_after_xdp(dev, frame, queue)
        finally:
            stack.tx_taps.pop()
        return captured

    # --------------------------------------------------------------- judging

    def _judge_xdp(self, dev, prediction, captured) -> Optional[str]:
        """A mismatch description, or None when fast and slow path agree."""
        verdict = prediction.verdict
        if verdict == XDP_ABORTED:
            return "fast path aborted"
        if verdict == XDP_DROP:
            if captured:
                return f"predicted DROP but kernel transmitted {len(captured)} frame(s)"
            return None
        if verdict in (XDP_TX, XDP_REDIRECT):
            want_ifindex = dev.ifindex if verdict == XDP_TX else prediction.redirect_ifindex
            return self._expect_one_tx(captured, want_ifindex, prediction.frame)
        return f"unknown verdict {verdict}"

    def _judge_tc(self, dev, prediction, captured) -> Optional[str]:
        if prediction.aborted:
            return "fast path aborted"  # reported as TC_ACT_SHOT
        verdict = prediction.verdict
        if verdict == TC_ACT_SHOT:
            if captured:
                return f"predicted SHOT but kernel transmitted {len(captured)} frame(s)"
            return None
        if verdict == TC_ACT_REDIRECT:
            return self._expect_one_tx(captured, prediction.redirect_ifindex, prediction.frame)
        return f"unknown verdict {verdict}"

    @staticmethod
    def _expect_one_tx(captured, want_ifindex, want_frame) -> Optional[str]:
        if len(captured) != 1:
            return f"predicted one transmit, kernel made {len(captured)}"
        got_ifindex, got_frame = captured[0]
        if got_ifindex != want_ifindex:
            return f"predicted egress ifindex {want_ifindex}, kernel used {got_ifindex}"
        if got_frame != want_frame:
            return "output frame differs between fast path and kernel"
        return None

    def _conclude(self, dev, mismatch: Optional[str]) -> None:
        if mismatch is None:
            self.agreements += 1
            return
        self.mismatches += 1
        self.controller.on_watchdog_mismatch(dev.name, mismatch)

    # ----------------------------------------------------------------- stats

    def summary(self) -> dict:
        return {
            "every": self.every,
            "hook": self.hook,
            "sampled": self.sampled,
            "agreements": self.agreements,
            "mismatches": self.mismatches,
            "punts": self.punts,
        }
