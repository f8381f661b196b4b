"""iptables: filter-table rule administration.

Supported subset: ``-A CHAIN`` / ``-I CHAIN`` / ``-D CHAIN HANDLE`` /
``-F [CHAIN]`` / ``-P CHAIN POLICY`` / ``-L [CHAIN]`` with matches
``-s/-d CIDR``, ``-p tcp|udp|icmp``, ``--sport/--dport N``, ``-i/-o IFACE``,
``-m set --match-set NAME src|dst``, and targets ``-j ACCEPT|DROP|RETURN``.
"""

from __future__ import annotations

from typing import List
from repro.netlink import messages as m
from repro.netsim.addresses import IPv4Prefix
from repro.tools.common import NetlinkTool, ToolError, split_args

PROTO_NAMES = {"tcp": 6, "udp": 17, "icmp": 1}


class IptablesTool(NetlinkTool):
    def run(self, command: str) -> List[str]:
        args = split_args(command)
        if not args:
            raise ToolError("usage: iptables -A|-I|-D|-F|-P|-L ...")
        flag = args[0]
        if flag in ("-A", "-I"):
            return self._add_rule(args)
        if flag == "-D":
            if len(args) != 3:
                raise ToolError("iptables -D CHAIN HANDLE")
            self.request(m.NFT_DELRULE, {"table": "filter", "chain": args[1], "handle": int(args[2])})
            return []
        if flag == "-F":
            chain = args[1] if len(args) > 1 else "*"
            self.request(m.NFT_DELRULE, {"table": "filter", "chain": chain})
            return []
        if flag == "-P":
            if len(args) != 3:
                raise ToolError("iptables -P CHAIN POLICY")
            self.request(m.NFT_SETPOLICY, {"table": "filter", "chain": args[1], "policy": args[2]})
            return []
        if flag == "-L":
            wanted = args[1] if len(args) > 1 else None
            out = []
            for reply in self.request(m.NFT_GETRULE, dump=True):
                a = reply.attrs
                if wanted is not None and a.get("chain") != wanted:
                    continue
                if reply.msg_type == m.NFT_SETPOLICY:
                    out.append(f"Chain {a['chain']} (policy {a['policy']})")
                else:
                    parts = [f"[{a.get('handle', 0)}]"]
                    if "src" in a:
                        parts.append(f"-s {a['src']}/{a.get('src_len', 32)}")
                    if "dst" in a:
                        parts.append(f"-d {a['dst']}/{a.get('dst_len', 32)}")
                    if "match_set" in a:
                        parts.append(f"-m set --match-set {a['match_set']} {a.get('set_dir', 'src')}")
                    parts.append(f"-j {a.get('target', 'ACCEPT')}")
                    out.append(" ".join(parts))
            if not out:  # every chain lists at least its policy line
                raise ToolError("iptables: No chain/target/match by that name.")
            return out
        raise ToolError(f"unknown iptables flag {flag!r}")

    def _add_rule(self, args: List[str]) -> List[str]:
        chain = args[1] if len(args) > 1 else None
        if chain is None:
            raise ToolError("iptables -A CHAIN [matches] -j TARGET")
        attrs: dict = {"table": "filter", "chain": chain}
        i = 2
        while i < len(args):
            word = args[i]
            if word == "-s":
                prefix = IPv4Prefix.parse(args[i + 1])
                attrs["src"] = prefix.address
                attrs["src_len"] = prefix.length
                i += 2
            elif word == "-d":
                prefix = IPv4Prefix.parse(args[i + 1])
                attrs["dst"] = prefix.address
                attrs["dst_len"] = prefix.length
                i += 2
            elif word == "-p":
                proto = PROTO_NAMES.get(args[i + 1])
                if proto is None:
                    raise ToolError(f"unknown protocol {args[i + 1]!r}")
                attrs["proto"] = proto
                i += 2
            elif word == "--sport":
                attrs["sport"] = int(args[i + 1])
                i += 2
            elif word == "--dport":
                attrs["dport"] = int(args[i + 1])
                i += 2
            elif word == "-i":
                attrs["in_iface"] = args[i + 1]
                i += 2
            elif word == "-o":
                attrs["out_iface"] = args[i + 1]
                i += 2
            elif word == "-m":
                if args[i + 1] not in ("set", "state"):
                    raise ToolError(f"unsupported match {args[i + 1]!r}")
                i += 2
            elif word == "--state":
                attrs["ct_state"] = args[i + 1]
                i += 2
            elif word == "--match-set":
                attrs["match_set"] = args[i + 1]
                if i + 2 < len(args) and args[i + 2] in ("src", "dst"):
                    attrs["set_dir"] = args[i + 2]
                    i += 3
                else:
                    attrs["set_dir"] = "src"
                    i += 2
            elif word == "-j":
                attrs["target"] = args[i + 1]
                i += 2
            else:
                raise ToolError(f"unknown iptables option {word!r}")
        if "target" not in attrs:
            raise ToolError("missing -j TARGET")
        self.request(m.NFT_NEWRULE, attrs)
        return []


def iptables(kernel, command: str) -> List[str]:
    """One-shot ``iptables`` invocation."""
    tool = IptablesTool(kernel)
    try:
        return tool.run(command)
    finally:
        tool.socket.close()
