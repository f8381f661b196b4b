"""Shared plumbing for the command-line-style tools."""

from __future__ import annotations

import shlex
from typing import List, Optional

from repro.netlink.bus import NetlinkSocket
from repro.netlink.messages import NLM_F_DUMP, NLM_F_REQUEST, NetlinkMsg


class ToolError(ValueError):
    """Bad command-line usage (what the real tool would print to stderr)."""


class NetlinkTool:
    """Base: owns a netlink socket on the kernel's bus."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.socket: NetlinkSocket = kernel.bus.open_socket()

    def request(self, msg_type: int, attrs: Optional[dict] = None, dump: bool = False) -> List[NetlinkMsg]:
        flags = NLM_F_REQUEST | (NLM_F_DUMP if dump else 0)
        return self.socket.request(NetlinkMsg(msg_type, attrs or {}, flags=flags))

    def resolve_ifindex(self, name: str) -> int:
        from repro.netlink.messages import RTM_GETLINK, RTM_NEWLINK

        replies = self.request(RTM_GETLINK, {"ifname": name})
        for reply in replies:
            if reply.msg_type == RTM_NEWLINK:
                return reply.attrs["ifindex"]
        raise ToolError(f"Cannot find device \"{name}\"")


def split_args(command: str) -> List[str]:
    return shlex.split(command)
