"""The libbpf-like loader: verify, wrap, attach, detach.

Loading always verifies (there is no way to attach unverified code, exactly
as in Linux). ``attach_*`` installs the wrapper on the device's hook slot;
re-attaching replaces whatever was there — LinuxFP's deployer avoids the
loss window this implies by swapping through a prog-array tail call instead
(see :mod:`repro.core.deployer`).
"""

from __future__ import annotations

from typing import Union

from repro.ebpf.hooks import TcAttachment, XdpAttachment
from repro.ebpf.program import HOOK_XDP, Program
from repro.ebpf.verifier import verify
from repro.testing import faults

# Replacing a native-mode XDP program reconfigures the driver rings; the
# paper (§IV-A2) observes seconds of loss. We model a ring's worth of
# in-flight frames lost per replacement.
XDP_REPLACE_RESET_FRAMES = 256


class LoaderError(Exception):
    """Attach/detach misuse."""


class Loader:
    """Per-kernel program loading and hook attachment.

    ``model_reset_loss=True`` simulates the driver-ring reset a native-mode
    XDP program replacement causes (in-flight frames lost). It is opt-in:
    meaningful only when traffic is flowing *during* the replacement, which
    is what the atomic-swap ablation measures.
    """

    def __init__(self, kernel, model_reset_loss: bool = False) -> None:
        self.kernel = kernel
        self.model_reset_loss = model_reset_loss

    def load(self, program: Program) -> Union[XdpAttachment, TcAttachment]:
        """Verify and wrap a program; returns the attachable handle."""
        faults.fire("load", program.name)
        verify(program)
        return XdpAttachment(program) if program.hook == HOOK_XDP else TcAttachment(program)

    def attach_xdp(self, dev_name: str, attachment: XdpAttachment) -> None:
        if not isinstance(attachment, XdpAttachment):
            raise LoaderError("attach_xdp needs an XDP attachment")
        dev = self.kernel.devices.by_name(dev_name)
        if self.model_reset_loss and dev.xdp_prog is not None and dev.xdp_prog is not attachment:
            # naive program replacement: the driver resets its rings and
            # in-flight traffic is lost (LinuxFP's dispatcher exists to
            # avoid exactly this — it attaches once and swaps via tail call)
            nic = getattr(dev, "nic", None)
            if nic is not None:
                nic.driver_reset(XDP_REPLACE_RESET_FRAMES)
        dev.xdp_prog = attachment

    def attach_tc(self, dev_name: str, attachment: TcAttachment, egress: bool = False) -> None:
        if not isinstance(attachment, TcAttachment):
            raise LoaderError("attach_tc needs a TC attachment")
        dev = self.kernel.devices.by_name(dev_name)
        if egress:
            dev.tc_egress_prog = attachment
        else:
            dev.tc_ingress_prog = attachment

    def detach_xdp(self, dev_name: str) -> None:
        self.kernel.devices.by_name(dev_name).xdp_prog = None

    def detach_tc(self, dev_name: str, egress: bool = False) -> None:
        dev = self.kernel.devices.by_name(dev_name)
        if egress:
            dev.tc_egress_prog = None
        else:
            dev.tc_ingress_prog = None
