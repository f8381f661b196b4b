"""The kernel's eBPF hook API: verdict codes and attachment contracts.

This is the simulator's equivalent of ``uapi/linux/bpf.h``: the kernel
defines what an attached program may return and what context it receives;
:mod:`repro.ebpf` implements programs against this contract.

An attached XDP program object must expose::

    run_xdp(kernel, dev, frame: bytes) -> XdpResult

and a TC program::

    run_tc(kernel, dev, skb) -> TcResult
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# XDP verdicts (mirroring enum xdp_action)
XDP_ABORTED = 0
XDP_DROP = 1
XDP_PASS = 2
XDP_TX = 3
XDP_REDIRECT = 4

# TC verdicts (subset of TC_ACT_*)
TC_ACT_OK = 0
TC_ACT_SHOT = 2
TC_ACT_REDIRECT = 7

XDP_ACTION_NAMES = {
    XDP_ABORTED: "XDP_ABORTED",
    XDP_DROP: "XDP_DROP",
    XDP_PASS: "XDP_PASS",
    XDP_TX: "XDP_TX",
    XDP_REDIRECT: "XDP_REDIRECT",
}

TC_ACTION_NAMES = {
    TC_ACT_OK: "TC_ACT_OK",
    TC_ACT_SHOT: "TC_ACT_SHOT",
    TC_ACT_REDIRECT: "TC_ACT_REDIRECT",
}


@dataclass
class XdpResult:
    verdict: int
    frame: bytes  # possibly rewritten
    redirect_ifindex: Optional[int] = None
    # True when the verdict came from a program fault rather than policy;
    # lets drop accounting distinguish xdp_aborted from xdp_drop.
    aborted: bool = False


@dataclass
class TcResult:
    verdict: int
    frame: bytes  # possibly rewritten
    redirect_ifindex: Optional[int] = None
    aborted: bool = False
