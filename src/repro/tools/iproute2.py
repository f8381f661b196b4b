"""iproute2: the ``ip`` and ``bridge`` commands.

Supported subset (what the paper's experiments use):

- ``ip link add NAME type bridge|veth|vxlan [id VNI local IP dev UNDERLAY]``
- ``ip link del NAME``
- ``ip link set NAME up|down|master BRIDGE|nomaster|mtu N``
- ``ip link show [NAME]``
- ``ip addr add CIDR dev NAME`` / ``ip addr del CIDR dev NAME`` / ``ip addr show``
- ``ip route add PREFIX via GW [dev NAME] [metric N]`` / ``ip route del`` /
  ``ip route show``
- ``ip neigh add IP lladdr MAC dev NAME`` / ``ip neigh del`` / ``ip neigh show``
- ``bridge fdb add MAC dev NAME [dst IP] [vlan VID]`` / ``bridge fdb show``
- ``bridge link set dev NAME stp on|off / vlan_filtering on|off``
"""

from __future__ import annotations

from typing import List
from repro.netlink import messages as m
from repro.netsim.addresses import IfAddr, IPv4Addr, IPv4Prefix, MacAddr
from repro.tools.common import NetlinkTool, ToolError, split_args


class IpTool(NetlinkTool):
    """The ``ip`` command bound to one kernel."""

    def run(self, command: str) -> List[str]:
        args = split_args(command)
        if not args:
            raise ToolError("usage: ip OBJECT COMMAND")
        obj = args[0]
        handler = {
            "link": self._link,
            "addr": self._addr,
            "address": self._addr,
            "route": self._route,
            "neigh": self._neigh,
            "neighbor": self._neigh,
        }.get(obj)
        if handler is None:
            raise ToolError(f"unknown object {obj!r}")
        return handler(args[1:])

    # ------------------------------------------------------------------ link

    def _link(self, args: List[str]) -> List[str]:
        if not args or args[0] in ("show", "list"):
            name = args[1] if len(args) > 1 else None
            replies = self.request(m.RTM_GETLINK, {"ifname": name} if name else {}, dump=name is None)
            out = []
            for reply in replies:
                a = reply.attrs
                state = "UP" if a.get("operstate") else "DOWN"
                master = f" master {a['master']}" if "master" in a else ""
                out.append(f"{a['ifindex']}: {a['ifname']}: <{state}> mtu {a.get('mtu', 1500)}{master} kind {a.get('kind')}")
            return out
        action = args[0]
        if action == "add":
            return self._link_add(args[1:])
        if action == "del":
            if len(args) < 2:
                raise ToolError("ip link del NAME")
            self.request(m.RTM_DELLINK, {"ifname": args[1]})
            return []
        if action == "set":
            return self._link_set(args[1:])
        raise ToolError(f"unknown link action {action!r}")

    def _link_add(self, args: List[str]) -> List[str]:
        if len(args) < 3 or args[1] != "type":
            raise ToolError("ip link add NAME type TYPE [options]")
        name, kind = args[0], args[2]
        attrs = {"ifname": name, "kind": kind}
        rest = args[3:]
        if kind == "vxlan":
            info = {}
            i = 0
            while i < len(rest):
                if rest[i] == "id":
                    info["vni"] = int(rest[i + 1])
                elif rest[i] == "local":
                    info["local"] = IPv4Addr.parse(rest[i + 1])
                elif rest[i] == "dstport":
                    info["port"] = int(rest[i + 1])
                elif rest[i] == "dev":
                    info["underlay_ifindex"] = self.resolve_ifindex(rest[i + 1])
                else:
                    raise ToolError(f"unknown vxlan option {rest[i]!r}")
                i += 2
            attrs["vxlan"] = info
        elif kind == "veth":
            i = 0
            while i < len(rest):
                if rest[i : i + 3] == ["peer", "name", rest[i + 2] if i + 2 < len(rest) else ""]:
                    attrs["netns"] = rest[i + 2]  # peer name rides here
                    i += 3
                else:
                    raise ToolError(f"unknown veth option {rest[i]!r}")
        elif rest:
            raise ToolError(f"unexpected options for type {kind}: {rest}")
        self.request(m.RTM_NEWLINK, attrs)
        return []

    def _link_set(self, args: List[str]) -> List[str]:
        if not args:
            raise ToolError("ip link set NAME ...")
        offset = 1 if args[0] != "dev" else 2
        name = args[0] if args[0] != "dev" else args[1]
        attrs: dict = {"ifname": name}
        rest = args[offset:]
        i = 0
        while i < len(rest):
            word = rest[i]
            if word == "up":
                attrs["operstate"] = 1
                i += 1
            elif word == "down":
                attrs["operstate"] = 0
                i += 1
            elif word == "master":
                attrs["master"] = self.resolve_ifindex(rest[i + 1])
                i += 2
            elif word == "nomaster":
                attrs["master"] = 0
                i += 1
            elif word == "mtu":
                attrs["mtu"] = int(rest[i + 1])
                i += 2
            else:
                raise ToolError(f"unknown link set option {word!r}")
        self.request(m.RTM_SETLINK, attrs)
        return []

    # ------------------------------------------------------------------ addr

    def _addr(self, args: List[str]) -> List[str]:
        if not args or args[0] == "show":
            out = []
            for reply in self.request(m.RTM_GETADDR, dump=True):
                a = reply.attrs
                out.append(f"if{a['ifindex']}: {a['address']}/{a['prefixlen']}")
            return out
        action = args[0]
        if action in ("add", "del"):
            if len(args) != 4 or args[2] != "dev":
                raise ToolError(f"ip addr {action} CIDR dev NAME")
            addr = IfAddr.parse(args[1])
            ifindex = self.resolve_ifindex(args[3])
            msg_type = m.RTM_NEWADDR if action == "add" else m.RTM_DELADDR
            self.request(msg_type, {"ifindex": ifindex, "address": addr.address, "prefixlen": addr.length})
            return []
        raise ToolError(f"unknown addr action {action!r}")

    # ----------------------------------------------------------------- route

    def _route(self, args: List[str]) -> List[str]:
        if not args or args[0] == "show":
            out = []
            for reply in self.request(m.RTM_GETROUTE, dump=True):
                a = reply.attrs
                via = f" via {a['gateway']}" if "gateway" in a else ""
                out.append(f"{a['dst']}/{a['dst_len']}{via} dev if{a['oif']} metric {a.get('metric', 0)}")
            return out
        action = args[0]
        if action not in ("add", "del", "replace"):
            raise ToolError(f"unknown route action {action!r}")
        if len(args) < 2:
            raise ToolError("ip route add PREFIX [via GW] [dev NAME]")
        prefix_text = args[1]
        if prefix_text == "default":
            prefix = IPv4Prefix.parse("0.0.0.0/0")
        else:
            prefix = IPv4Prefix.parse(prefix_text)
        attrs: dict = {"dst": prefix.address, "dst_len": prefix.length}
        rest = args[2:]
        i = 0
        while i < len(rest):
            word = rest[i]
            if word == "via":
                attrs["gateway"] = IPv4Addr.parse(rest[i + 1])
                i += 2
            elif word == "dev":
                attrs["oif"] = self.resolve_ifindex(rest[i + 1])
                i += 2
            elif word == "metric":
                attrs["metric"] = int(rest[i + 1])
                i += 2
            elif word == "onlink":
                i += 1
            else:
                raise ToolError(f"unknown route option {word!r}")
        if action == "replace":
            attrs["replace"] = True
        self.request(m.RTM_DELROUTE if action == "del" else m.RTM_NEWROUTE, attrs)
        return []

    # ----------------------------------------------------------------- neigh

    def _neigh(self, args: List[str]) -> List[str]:
        if not args or args[0] == "show":
            out = []
            for reply in self.request(m.RTM_GETNEIGH, dump=True):
                a = reply.attrs
                mac = a.get("lladdr", "(incomplete)")
                out.append(f"{a['dst']} dev if{a['ifindex']} lladdr {mac} state {a.get('state', 0):#x}")
            return out
        action = args[0]
        if action == "add":
            if len(args) != 6 or args[2] != "lladdr" or args[4] != "dev":
                raise ToolError("ip neigh add IP lladdr MAC dev NAME")
            self.request(
                m.RTM_NEWNEIGH,
                {
                    "ifindex": self.resolve_ifindex(args[5]),
                    "dst": IPv4Addr.parse(args[1]),
                    "lladdr": MacAddr.parse(args[3]),
                    "state": 0x80,
                },
            )
            return []
        if action == "del":
            if len(args) != 4 or args[2] != "dev":
                raise ToolError("ip neigh del IP dev NAME")
            self.request(
                m.RTM_DELNEIGH,
                {"ifindex": self.resolve_ifindex(args[3]), "dst": IPv4Addr.parse(args[1])},
            )
            return []
        raise ToolError(f"unknown neigh action {action!r}")


class BridgeTool(NetlinkTool):
    """The iproute2 ``bridge`` command (fdb + link subcommands)."""

    def run(self, command: str) -> List[str]:
        args = split_args(command)
        if not args:
            raise ToolError("usage: bridge OBJECT COMMAND")
        if args[0] == "fdb":
            return self._fdb(args[1:])
        if args[0] == "link":
            return self._bridge_link(args[1:])
        raise ToolError(f"unknown bridge object {args[0]!r}")

    def _fdb(self, args: List[str]) -> List[str]:
        if not args or args[0] == "show":
            out = []
            for reply in self.request(m.RTM_GETFDB, dump=True):
                a = reply.attrs
                out.append(f"{a['lladdr']} dev if{a['ifindex']} vlan {a.get('vlan', 0)} state {a.get('state', 0)}")
            return out
        if args[0] in ("add", "append"):
            mac = MacAddr.parse(args[1])
            attrs: dict = {"lladdr": mac}
            rest = args[2:]
            i = 0
            while i < len(rest):
                if rest[i] == "dev":
                    attrs["ifindex"] = self.resolve_ifindex(rest[i + 1])
                elif rest[i] == "dst":
                    attrs["dst"] = IPv4Addr.parse(rest[i + 1])
                elif rest[i] == "vlan":
                    attrs["vlan"] = int(rest[i + 1])
                elif rest[i] in ("permanent", "static"):
                    i -= 1  # flag
                else:
                    raise ToolError(f"unknown fdb option {rest[i]!r}")
                i += 2
            if "ifindex" not in attrs:
                raise ToolError("bridge fdb add MAC dev NAME [dst IP]")
            self.request(m.RTM_NEWFDB, attrs)
            return []
        raise ToolError(f"unknown fdb action {args[0]!r}")

    def _bridge_link(self, args: List[str]) -> List[str]:
        # bridge link set dev BRNAME stp on|off vlan_filtering on|off
        if len(args) < 3 or args[0] != "set" or args[1] != "dev":
            raise ToolError("bridge link set dev NAME [stp on|off] [vlan_filtering on|off]")
        name = args[2]
        info: dict = {}
        rest = args[3:]
        i = 0
        while i < len(rest):
            if rest[i] == "stp":
                info["stp_state"] = 1 if rest[i + 1] == "on" else 0
            elif rest[i] == "vlan_filtering":
                info["vlan_filtering"] = 1 if rest[i + 1] == "on" else 0
            elif rest[i] == "ageing_time":
                info["ageing_time"] = int(rest[i + 1])
            else:
                raise ToolError(f"unknown bridge option {rest[i]!r}")
            i += 2
        self.request(m.RTM_SETLINK, {"ifname": name, "bridge": info})
        return []


def ip(kernel, command: str) -> List[str]:
    """One-shot ``ip`` invocation."""
    tool = IpTool(kernel)
    try:
        return tool.run(command)
    finally:
        tool.socket.close()


def bridge_tool(kernel, command: str) -> List[str]:
    """One-shot ``bridge`` invocation."""
    tool = BridgeTool(kernel)
    try:
        return tool.run(command)
    finally:
        tool.socket.close()
