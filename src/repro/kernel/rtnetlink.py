"""rtnetlink: the kernel-side netlink handlers and message builders.

``register(kernel)`` wires every management message type to the kernel's
mutators and dumpers. Tools in :mod:`repro.tools` and orchestration layers
(the Flannel CNI, FRR) operate exclusively through these handlers, and the
LinuxFP controller builds its view of the kernel from the same dumps plus
the multicast notifications the mutators emit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from repro.netlink import messages as m
from repro.netlink.messages import NetlinkError, NetlinkMsg
from repro.netsim.addresses import IPv4Prefix, IfAddr
from repro.kernel.fib import Route
from repro.kernel.netfilter import Rule

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.interfaces import NetDevice
    from repro.kernel.kernel import Kernel


# --------------------------------------------------------- message builders

def link_attrs(dev: "NetDevice") -> Dict[str, Any]:
    attrs: Dict[str, Any] = {
        "ifindex": dev.ifindex,
        "ifname": dev.name,
        "kind": dev.kind,
        "operstate": 1 if dev.up else 0,
        "address": dev.mac,
        "mtu": dev.mtu,
        "num_queues": dev.num_queues,
    }
    if dev.master is not None:
        attrs["master"] = dev.master
    from repro.kernel.interfaces import BridgeDevice, VethDevice, VxlanDevice

    if isinstance(dev, BridgeDevice):
        attrs["bridge"] = {
            "stp_state": 1 if dev.bridge.stp_enabled else 0,
            "vlan_filtering": 1 if dev.bridge.vlan_filtering else 0,
            "ageing_time": dev.bridge.ageing_time_ns // 1_000_000_000,
        }
    elif isinstance(dev, VxlanDevice):
        attrs["vxlan"] = {
            "vni": dev.vni,
            "local": dev.local,
            "port": dev.port,
            "underlay_ifindex": dev.underlay_ifindex,
        }
    elif isinstance(dev, VethDevice) and dev.peer is not None:
        attrs["veth"] = {"peer_ifindex": dev.peer.ifindex}
    return attrs


def route_attrs(route: Route) -> Dict[str, Any]:
    attrs: Dict[str, Any] = {
        "dst": route.prefix.address,
        "dst_len": route.prefix.length,
        "oif": route.oif,
        "table": route.table,
        "scope": route.scope,
        "metric": route.metric,
    }
    if route.gateway is not None:
        attrs["gateway"] = route.gateway
    return attrs


def rule_attrs(chain: str, rule: Rule) -> Dict[str, Any]:
    attrs: Dict[str, Any] = {
        "table": "filter",
        "chain": chain,
        "handle": rule.handle,
        "target": rule.target,
    }
    if rule.src is not None:
        attrs["src"] = rule.src.address
        attrs["src_len"] = rule.src.length
    if rule.dst is not None:
        attrs["dst"] = rule.dst.address
        attrs["dst_len"] = rule.dst.length
    if rule.proto is not None:
        attrs["proto"] = rule.proto
    if rule.sport is not None:
        attrs["sport"] = rule.sport
    if rule.dport is not None:
        attrs["dport"] = rule.dport
    if rule.in_iface is not None:
        attrs["in_iface"] = rule.in_iface
    if rule.out_iface is not None:
        attrs["out_iface"] = rule.out_iface
    if rule.match_set is not None:
        attrs["match_set"] = rule.match_set
        attrs["set_dir"] = rule.set_dir
    if rule.ct_state is not None:
        attrs["ct_state"] = rule.ct_state
    return attrs


def rule_from_attrs(attrs: Dict[str, Any]) -> Rule:
    src = IPv4Prefix(attrs["src"], attrs.get("src_len", 32)) if "src" in attrs else None
    dst = IPv4Prefix(attrs["dst"], attrs.get("dst_len", 32)) if "dst" in attrs else None
    return Rule(
        target=attrs.get("target", "ACCEPT"),
        src=src,
        dst=dst,
        proto=attrs.get("proto"),
        sport=attrs.get("sport"),
        dport=attrs.get("dport"),
        in_iface=attrs.get("in_iface"),
        out_iface=attrs.get("out_iface"),
        match_set=attrs.get("match_set"),
        set_dir=attrs.get("set_dir", "src"),
        ct_state=attrs.get("ct_state"),
    )


# ----------------------------------------------------------------- handlers

def register(kernel: "Kernel") -> None:
    bus = kernel.bus

    def wrap(fn):
        def handler(req: NetlinkMsg) -> List[NetlinkMsg]:
            try:
                return fn(req) or []
            except NetlinkError:
                raise
            except (ValueError, KeyError) as exc:
                raise NetlinkError(-22, str(exc)) from exc

        return handler

    # --- links ---

    def get_link(req: NetlinkMsg) -> List[NetlinkMsg]:
        name = req.attrs.get("ifname")
        devices = kernel.devices.all()
        if name is not None:
            devices = [d for d in devices if d.name == name]
            if not devices:
                raise NetlinkError(-19, f"no device {name!r}")
        return [NetlinkMsg(m.RTM_NEWLINK, link_attrs(d)) for d in devices]

    def new_link(req: NetlinkMsg) -> List[NetlinkMsg]:
        attrs = req.attrs
        name = attrs.get("ifname")
        if name is None:
            raise NetlinkError(-22, "ifname required")
        if name in kernel.devices:
            if "kind" in attrs:
                raise NetlinkError(-17, f"device {name!r} exists")  # EEXIST
            return set_link(req)
        kind = attrs.get("kind", "bridge")
        if kind == "bridge":
            kernel.add_bridge(name)
        elif kind == "veth":
            peer = attrs.get("netns") or f"{name}-peer"
            kernel.add_veth_pair(name, peer)
        elif kind == "vxlan":
            info = attrs.get("vxlan") or {}
            underlay = None
            if info.get("underlay_ifindex"):
                underlay = kernel.devices.by_index(info["underlay_ifindex"]).name
            kernel.add_vxlan(
                name,
                vni=info.get("vni", 0),
                local=info.get("local"),
                port=info.get("port", 8472),
                underlay=underlay,
            )
        elif kind == "physical":
            kernel.add_physical(name, num_queues=attrs.get("num_queues", 1))
        else:
            raise NetlinkError(-95, f"cannot create links of kind {kind!r}")
        if attrs.get("operstate"):
            kernel.set_link(name, up=True)
        return []

    def set_link(req: NetlinkMsg) -> List[NetlinkMsg]:
        attrs = req.attrs
        name = attrs.get("ifname")
        if name is None and "ifindex" in attrs:
            name = kernel.devices.by_index(attrs["ifindex"]).name
        if name is None:
            raise NetlinkError(-22, "ifname or ifindex required")
        dev = kernel.devices.by_name(name)
        if "operstate" in attrs:
            kernel.set_link(name, up=bool(attrs["operstate"]))
        if "master" in attrs:
            master = attrs["master"]
            if master == 0:
                kernel.release(name)
            else:
                bridge_name = kernel.devices.by_index(master).name
                kernel.enslave(name, bridge_name)
        if "mtu" in attrs:
            dev.mtu = attrs["mtu"]
        if "bridge" in attrs:
            info = attrs["bridge"]
            kernel.set_bridge_attrs(
                name,
                stp=bool(info["stp_state"]) if "stp_state" in info else None,
                vlan_filtering=bool(info["vlan_filtering"]) if "vlan_filtering" in info else None,
                ageing_time_s=info.get("ageing_time"),
            )
        return []

    def del_link(req: NetlinkMsg) -> List[NetlinkMsg]:
        name = req.attrs.get("ifname")
        if name is None:
            raise NetlinkError(-22, "ifname required")
        kernel.del_device(name)
        return []

    # --- addresses ---

    def get_addr(req: NetlinkMsg) -> List[NetlinkMsg]:
        out = []
        for dev in kernel.devices.all():
            for addr in dev.addresses:
                out.append(
                    NetlinkMsg(
                        m.RTM_NEWADDR,
                        {"ifindex": dev.ifindex, "address": addr.address, "prefixlen": addr.length},
                    )
                )
        return out

    def new_addr(req: NetlinkMsg) -> List[NetlinkMsg]:
        dev = kernel.devices.by_index(req.attrs["ifindex"])
        kernel.add_address(dev.name, IfAddr(req.attrs["address"], req.attrs.get("prefixlen", 32)))
        return []

    def del_addr(req: NetlinkMsg) -> List[NetlinkMsg]:
        dev = kernel.devices.by_index(req.attrs["ifindex"])
        kernel.del_address(dev.name, req.attrs["address"])
        return []

    # --- routes ---

    def get_route(req: NetlinkMsg) -> List[NetlinkMsg]:
        return [NetlinkMsg(m.RTM_NEWROUTE, route_attrs(r)) for r in kernel.fib.routes()]

    def new_route(req: NetlinkMsg) -> List[NetlinkMsg]:
        attrs = req.attrs
        dst = IPv4Prefix(attrs["dst"], attrs.get("dst_len", 32))
        dev_name = None
        if "oif" in attrs and attrs["oif"]:
            dev_name = kernel.devices.by_index(attrs["oif"]).name
        add = kernel.route_replace if attrs.get("replace") else kernel.route_add
        add(
            dst,
            via=attrs.get("gateway"),
            dev=dev_name,
            metric=attrs.get("metric", 0),
        )
        return []

    def del_route(req: NetlinkMsg) -> List[NetlinkMsg]:
        attrs = req.attrs
        dst = IPv4Prefix(attrs["dst"], attrs.get("dst_len", 32))
        kernel.route_del(dst, metric=attrs.get("metric"))
        return []

    # --- neighbors ---

    def get_neigh(req: NetlinkMsg) -> List[NetlinkMsg]:
        out = []
        for entry in kernel.neighbors.entries():
            attrs: Dict[str, Any] = {"ifindex": entry.ifindex, "dst": entry.ip, "state": entry.state}
            if entry.lladdr is not None:
                attrs["lladdr"] = entry.lladdr
            out.append(NetlinkMsg(m.RTM_NEWNEIGH, attrs))
        return out

    def new_neigh(req: NetlinkMsg) -> List[NetlinkMsg]:
        dev = kernel.devices.by_index(req.attrs["ifindex"])
        kernel.neigh_add(dev.name, req.attrs["dst"], req.attrs["lladdr"])
        return []

    def del_neigh(req: NetlinkMsg) -> List[NetlinkMsg]:
        dev = kernel.devices.by_index(req.attrs["ifindex"])
        kernel.neigh_del(dev.name, req.attrs["dst"])
        return []

    # --- fdb ---

    def get_fdb(req: NetlinkMsg) -> List[NetlinkMsg]:
        from repro.kernel.interfaces import BridgeDevice, VxlanDevice

        out = []
        for dev in kernel.devices.all():
            if isinstance(dev, BridgeDevice):
                for (mac, vlan), entry in sorted(dev.bridge.fdb.items(), key=lambda kv: (kv[0][1], kv[0][0].value)):
                    out.append(
                        NetlinkMsg(
                            m.RTM_NEWFDB,
                            {
                                "ifindex": entry.port_ifindex,
                                "master": dev.ifindex,
                                "lladdr": mac,
                                "vlan": vlan,
                                "state": (1 if entry.is_local else 0) | (2 if entry.is_static else 0),
                            },
                        )
                    )
            elif isinstance(dev, VxlanDevice):
                for mac in sorted(dev.vtep_fdb, key=lambda mm: mm.value):
                    out.append(
                        NetlinkMsg(
                            m.RTM_NEWFDB,
                            {"ifindex": dev.ifindex, "master": 0, "lladdr": mac, "vlan": 0, "state": 2},
                        )
                    )
        return out

    def new_fdb(req: NetlinkMsg) -> List[NetlinkMsg]:
        from repro.kernel.interfaces import VxlanDevice

        dev = kernel.devices.by_index(req.attrs["ifindex"])
        dst = None
        if isinstance(dev, VxlanDevice):
            # the remote vtep IP rides in the neigh-style dst attribute via
            # a second message field; tools pass it through "master" being 0
            dst = req.attrs.get("dst")
        kernel.fdb_add(dev.name, req.attrs["lladdr"], dst=dst, vlan=req.attrs.get("vlan", 1))
        return []

    # --- iptables ---

    def get_rule(req: NetlinkMsg) -> List[NetlinkMsg]:
        out = []
        for chain_name in ("INPUT", "FORWARD", "OUTPUT"):
            chain = kernel.netfilter.chain(chain_name)
            out.append(
                NetlinkMsg(m.NFT_SETPOLICY, {"table": "filter", "chain": chain_name, "policy": chain.policy})
            )
            for rule in chain.rules:
                out.append(NetlinkMsg(m.NFT_NEWRULE, rule_attrs(chain_name, rule)))
        return out

    def new_rule(req: NetlinkMsg) -> List[NetlinkMsg]:
        kernel.ipt_append(req.attrs["chain"], rule_from_attrs(req.attrs))
        return []

    def del_rule(req: NetlinkMsg) -> List[NetlinkMsg]:
        chain = req.attrs["chain"]
        if "handle" in req.attrs:
            kernel.ipt_delete(chain, req.attrs["handle"])
        else:
            kernel.ipt_flush(None if chain == "*" else chain)
        return []

    def set_policy(req: NetlinkMsg) -> List[NetlinkMsg]:
        kernel.ipt_policy(req.attrs["chain"], req.attrs["policy"])
        return []

    # --- ipset ---

    def ipset_new(req: NetlinkMsg) -> List[NetlinkMsg]:
        kernel.ipset_create(req.attrs["name"], req.attrs.get("set_type", "hash:ip"))
        return []

    def ipset_del(req: NetlinkMsg) -> List[NetlinkMsg]:
        kernel.ipset_destroy(req.attrs["name"])
        return []

    def ipset_get(req: NetlinkMsg) -> List[NetlinkMsg]:
        out = []
        for name in kernel.ipsets.names():
            ipset = kernel.ipsets.require(name)
            out.append(
                NetlinkMsg(
                    m.IPSET_NEWSET,
                    {
                        "name": name,
                        "set_type": ipset.set_type,
                        "entries": [{"ip": ip, "prefixlen": length} for ip, length in ipset.entries()],
                    },
                )
            )
        return out

    def ipset_add_entry(req: NetlinkMsg) -> List[NetlinkMsg]:
        for entry in req.attrs.get("entries", []):
            kernel.ipset_add(req.attrs["name"], entry["ip"], entry.get("prefixlen", 32))
        return []

    def ipset_del_entry(req: NetlinkMsg) -> List[NetlinkMsg]:
        for entry in req.attrs.get("entries", []):
            kernel.ipset_del(req.attrs["name"], entry["ip"], entry.get("prefixlen", 32))
        return []

    # --- ipvs ---

    def ipvs_new_service(req: NetlinkMsg) -> List[NetlinkMsg]:
        kernel.ipvs_add_service(
            req.attrs["vip"], req.attrs["vport"], req.attrs["proto"], req.attrs.get("scheduler", "rr")
        )
        return []

    def ipvs_del_service(req: NetlinkMsg) -> List[NetlinkMsg]:
        kernel.ipvs.del_service(req.attrs["vip"], req.attrs["vport"], req.attrs["proto"])
        return []

    def ipvs_get_service(req: NetlinkMsg) -> List[NetlinkMsg]:
        out = []
        for service in kernel.ipvs.services():
            out.append(
                NetlinkMsg(
                    m.IPVS_NEWSERVICE,
                    {
                        "vip": service.vip,
                        "vport": service.port,
                        "proto": service.proto,
                        "scheduler": service.scheduler,
                    },
                )
            )
            for dest in service.dests:
                out.append(
                    NetlinkMsg(
                        m.IPVS_NEWDEST,
                        {
                            "vip": service.vip,
                            "vport": service.port,
                            "proto": service.proto,
                            "rs": dest.ip,
                            "rport": dest.port,
                            "weight": dest.weight,
                        },
                    )
                )
        return out

    def ipvs_new_dest(req: NetlinkMsg) -> List[NetlinkMsg]:
        kernel.ipvs_add_dest(
            req.attrs["vip"],
            req.attrs["vport"],
            req.attrs["proto"],
            req.attrs["rs"],
            req.attrs["rport"],
            req.attrs.get("weight", 1),
        )
        return []

    def ipvs_del_dest(req: NetlinkMsg) -> List[NetlinkMsg]:
        kernel.ipvs.del_dest(
            req.attrs["vip"], req.attrs["vport"], req.attrs["proto"], req.attrs["rs"], req.attrs["rport"]
        )
        return []

    # --- sysctl ---

    def sysctl_set(req: NetlinkMsg) -> List[NetlinkMsg]:
        kernel.sysctl_set(req.attrs["name"], req.attrs["value"])
        return []

    def sysctl_get(req: NetlinkMsg) -> List[NetlinkMsg]:
        name = req.attrs.get("name")
        names = [name] if name else kernel.sysctl.known_keys()
        return [NetlinkMsg(m.SYSCTL_GET, {"name": n, "value": kernel.sysctl.get(n)}) for n in names]

    bus.register_handler(m.RTM_GETLINK, wrap(get_link))
    bus.register_handler(m.RTM_NEWLINK, wrap(new_link))
    bus.register_handler(m.RTM_SETLINK, wrap(set_link))
    bus.register_handler(m.RTM_DELLINK, wrap(del_link))
    bus.register_handler(m.RTM_GETADDR, wrap(get_addr))
    bus.register_handler(m.RTM_NEWADDR, wrap(new_addr))
    bus.register_handler(m.RTM_DELADDR, wrap(del_addr))
    bus.register_handler(m.RTM_GETROUTE, wrap(get_route))
    bus.register_handler(m.RTM_NEWROUTE, wrap(new_route))
    bus.register_handler(m.RTM_DELROUTE, wrap(del_route))
    bus.register_handler(m.RTM_GETNEIGH, wrap(get_neigh))
    bus.register_handler(m.RTM_NEWNEIGH, wrap(new_neigh))
    bus.register_handler(m.RTM_DELNEIGH, wrap(del_neigh))
    bus.register_handler(m.RTM_GETFDB, wrap(get_fdb))
    bus.register_handler(m.RTM_NEWFDB, wrap(new_fdb))
    bus.register_handler(m.NFT_GETRULE, wrap(get_rule))
    bus.register_handler(m.NFT_NEWRULE, wrap(new_rule))
    bus.register_handler(m.NFT_DELRULE, wrap(del_rule))
    bus.register_handler(m.NFT_SETPOLICY, wrap(set_policy))
    bus.register_handler(m.IPSET_NEWSET, wrap(ipset_new))
    bus.register_handler(m.IPSET_DELSET, wrap(ipset_del))
    bus.register_handler(m.IPSET_GETSET, wrap(ipset_get))
    bus.register_handler(m.IPSET_ADDENTRY, wrap(ipset_add_entry))
    bus.register_handler(m.IPSET_DELENTRY, wrap(ipset_del_entry))
    bus.register_handler(m.IPVS_NEWSERVICE, wrap(ipvs_new_service))
    bus.register_handler(m.IPVS_DELSERVICE, wrap(ipvs_del_service))
    bus.register_handler(m.IPVS_GETSERVICE, wrap(ipvs_get_service))
    bus.register_handler(m.IPVS_NEWDEST, wrap(ipvs_new_dest))
    bus.register_handler(m.IPVS_DELDEST, wrap(ipvs_del_dest))
    bus.register_handler(m.SYSCTL_SET, wrap(sysctl_set))
    bus.register_handler(m.SYSCTL_GET, wrap(sysctl_get))
