"""FPM templates and their rendering.

Verdict constants are hook-specific (XDP_PASS=2/XDP_DROP=1 at the XDP hook;
TC_ACT_OK=0/TC_ACT_SHOT=2 at TC) and substituted at render time, so one
template library serves both hooks (Table VII compares them).

IP-header offsets are relative to ``l3`` (the L3 header start): with VLAN
filtering disabled the offsets are compile-time constants and tagged frames
fall back to the slow path; with it enabled, tag parsing is synthesized in
and offsets become dynamic — exactly the specialization Fig 3 illustrates.

The CONTINUE sentinel (999) threads ``next_nf`` chaining through inlined
FPM functions: a value != 999 is a final verdict, 999 means "next FPM".
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.templates import render

CONTINUE = 999

# --- individual FPM bodies (inlined static functions = Fig 10's "function
# call" chaining) ---

ROUTER_FPM = """
static u64 fpm_router(u8* pkt, u64 len, u64 l3) {
    // LinuxFP router FPM: FIB lookup + rewrite via bpf_fib_lookup; ARP,
    // fragmentation and ICMP stay in the Linux slow path (Table I).
    u64 ttl = ld8(pkt, l3 + 8);
    if (ttl <= 1) { return {{ PASS }}; }            // ICMP time-exceeded: slow path
    u64 frag = ld16(pkt, l3 + 6) & 0x3fff;
    if (frag != 0) { return {{ PASS }}; }           // fragments: slow path
    u64 dst = ld32(pkt, l3 + 16);
    u64 fib[2];
    if (fib_lookup(dst, fib) != 0) { return {{ PASS }}; }  // miss/no-neigh
    st48(pkt, 0, ld48(fib, 10));                    // dmac = next hop
    st48(pkt, 6, ld48(fib, 4));                     // smac = egress port
    st8(pkt, l3 + 8, ttl - 1);
    u64 csum = ld16(pkt, l3 + 10) + 0x100;          // RFC 1624 incremental
    csum = (csum & 0xffff) + (csum >> 16);
    st16(pkt, l3 + 10, csum);
    return redirect(ld32(fib, 0), 0);
}
"""

FILTER_FPM = """
static u64 fpm_filter(u8* pkt, u64 len, u64 ifindex) {
    // LinuxFP filter FPM: evaluates the kernel's own FORWARD chain via the
    // bpf_ipt_lookup helper (ipset rules included). Unsupported rule
    // features punt to the slow path.
    u64 v = ipt_lookup(1, pkt, len, ifindex, 0);
    if (v == 1) { return {{ DROP }}; }
    if (v == 2) { return {{ PASS }}; }
    return {{ CONTINUE }};
}
"""

IPVS_FPM = """
static u64 fpm_ipvs(u8* pkt, u64 len, u64 l3) {
    // LinuxFP ipvs FPM (prototype): fast-path DNAT for flows already
    // scheduled and pinned in conntrack; first packets go to the slow path
    // where the scheduler runs (Table I).
    if (len < l3 + 24) { return {{ CONTINUE }}; }    // need L4 ports in view
    u64 proto = ld8(pkt, l3 + 9);
    if (proto != 6) { if (proto != 17) { return {{ CONTINUE }}; } }
    u64 dst = ld32(pkt, l3 + 16);
    u64 ports = ld32(pkt, l3 + 20);
    u64 is_vip = 0;
{% for svc in ipvs_services %}
    if (dst == {{ svc['vip_u32'] }}) { if ((ports & 0xffff) == {{ svc['port'] }}) { is_vip = 1; } }
{% endfor %}
    if (is_vip == 0) { return {{ CONTINUE }}; }
    u64 src = ld32(pkt, l3 + 12);
    u64 ct[1];
    if (conntrack_lookup(src, dst, proto, ports, ct) == 0) {
        return {{ PASS }};                           // unscheduled flow: slow path
    }
    st32(pkt, l3 + 16, ld32(ct, 0));                 // DNAT: new dst ip
    st16(pkt, l3 + 22, ld16(ct, 4));                 // DNAT: new dst port
    u64 csum = ld16(pkt, l3 + 10) + 0x100;
    csum = (csum & 0xffff) + (csum >> 16);
    st16(pkt, l3 + 10, csum);
    return {{ CONTINUE }};                           // router FPM forwards it
}
"""

BRIDGE_SNIPPET = """
    // LinuxFP bridge FPM: FDB lookup/forwarding via bpf_fdb_lookup; MAC
    // learning, aging, flooding and STP remain in the slow path (Table I).
    u64 dmac = ld48(pkt, 0);
    u64 smac = ld48(pkt, 6);
    if (fdb_lookup({{ bridge_ifindex }}, ifindex, vid, smac, 1) == 0) {
        return {{ PASS }};                           // unlearned/moved source
    }
    if (((dmac >> 40) & 1) == 1) { return {{ PASS }}; }  // bcast/mcast: flood in slow path
{% if bridge_mac_u48 is not None %}
    if (dmac == {{ bridge_mac_u48 }}) {
        goto_l3 = 1;                                 // to the bridge itself: L3 path
    }
    if (goto_l3 == 0) {
        u64 out_port = fdb_lookup({{ bridge_ifindex }}, ifindex, vid, dmac, 0);
        if (out_port == 0) { return {{ PASS }}; }    // FDB miss et al.: slow path
        return redirect(out_port, 0);
    }
{% else %}
    // no bridge MAC to divert to L3: every learned frame is forwarded here
    u64 out_port = fdb_lookup({{ bridge_ifindex }}, ifindex, vid, dmac, 0);
    if (out_port == 0) { return {{ PASS }}; }        // FDB miss et al.: slow path
    return redirect(out_port, 0);
{% endif %}
"""

MAIN_TEMPLATE = """
// synthesized by LinuxFP for {{ ifname }} ({{ hook }} hook)
// graph: {{ graph_summary }}
{% if has_router %}{{ router_fpm }}{% endif %}
{% if has_filter %}{{ filter_fpm }}{% endif %}
{% if has_ipvs %}{{ ipvs_fpm }}{% endif %}
u32 main(u8* pkt, u64 len, u64 ifindex) {
    if (len < 34) { return {{ PASS }}; }
    u64 ethertype = ld16(pkt, 12);
    u64 l3 = 14;
    u64 vid = 1;
{% if vlan_enabled %}
    if (ethertype == 0x8100) {
        vid = ld16(pkt, 14) & 0xfff;
        ethertype = ld16(pkt, 16);
        l3 = 18;
        if (len < 38) { return {{ PASS }}; }
    }
{% else %}
    if (ethertype == 0x8100) { return {{ PASS }}; }  // VLANs not configured
{% endif %}
{% if has_bridge %}
    u64 goto_l3 = 0;
{{ bridge_snippet }}
{% if not bridge_chains_l3 %}
    return {{ PASS }};
{% endif %}
{% endif %}
    if (ethertype != 0x0800) { return {{ PASS }}; }  // ARP etc.: slow path
{% if has_ipvs %}
    u64 lv = fpm_ipvs(pkt, len, l3);
    if (lv != {{ CONTINUE }}) { return lv; }
{% endif %}
{% if has_filter %}
    u64 fv = fpm_filter(pkt, len, ifindex);
    if (fv != {{ CONTINUE }}) { return fv; }
{% endif %}
{% if has_router %}
    return fpm_router(pkt, len, l3);
{% else %}
    return {{ PASS }};
{% endif %}
}
"""

DISPATCHER_TEMPLATE = """
// LinuxFP dispatcher for {{ ifname }}: a stable root program whose only job
// is to tail-call the current fast path. Swapping the prog-array slot is an
// atomic pointer update, so regenerating the data path never drops packets
// (paper Fig 4).
extern map jmp;
u32 main(u8* pkt, u64 len, u64 ifindex) {
    tail_call(pkt, jmp, 0);
    return {{ PASS }};   // empty slot: everything goes to Linux
}
"""

VERDICTS = {
    "xdp": {"PASS": 2, "DROP": 1},
    "tc": {"PASS": 0, "DROP": 2},
}


def render_fast_path(ifname: str, hook: str, nodes: Dict[str, Dict[str, Any]]) -> str:
    """Render the complete fast-path C source for one interface.

    ``nodes`` maps nf name → conf dict (the interface's processing graph).
    """
    verdicts = VERDICTS[hook]
    bridge_conf = nodes.get("bridge")
    filter_conf = nodes.get("filter")
    router_conf = nodes.get("router")
    ipvs_conf = nodes.get("ipvs")

    bridge_chains_l3 = bool(bridge_conf and bridge_conf.get("next_nf"))
    has_router = router_conf is not None or bridge_chains_l3
    vlan_enabled = bool(bridge_conf and bridge_conf["conf"].get("VLAN_enabled"))

    ctx: Dict[str, Any] = {
        "ifname": ifname,
        "hook": hook,
        "PASS": verdicts["PASS"],
        "DROP": verdicts["DROP"],
        "CONTINUE": CONTINUE,
        "graph_summary": " -> ".join(nodes.keys()) or "(empty)",
        "vlan_enabled": vlan_enabled,
        "has_bridge": bridge_conf is not None,
        "has_filter": filter_conf is not None,
        "has_router": has_router,
        "has_ipvs": ipvs_conf is not None,
        "bridge_chains_l3": bridge_chains_l3,
    }

    if bridge_conf is not None:
        conf = bridge_conf["conf"]
        mac_text = conf.get("bridge_mac")
        mac_u48 = None
        if bridge_chains_l3 and mac_text:
            mac_u48 = int(mac_text.replace(":", ""), 16)
        ctx["bridge_snippet"] = render(
            BRIDGE_SNIPPET,
            bridge_ifindex=conf["bridge_ifindex"],
            bridge_mac_u48=mac_u48,
            PASS=verdicts["PASS"],
        )
    if has_router:
        ctx["router_fpm"] = render(ROUTER_FPM, PASS=verdicts["PASS"])
    if filter_conf is not None:
        ctx["filter_fpm"] = render(FILTER_FPM, PASS=verdicts["PASS"], DROP=verdicts["DROP"], CONTINUE=CONTINUE)
    if ipvs_conf is not None:
        from repro.netsim.addresses import IPv4Addr

        services = [
            {"vip_u32": IPv4Addr.parse(s["vip"]).value, "port": s["port"]}
            for s in ipvs_conf["conf"].get("services", [])
        ]
        ctx["ipvs_fpm"] = render(
            IPVS_FPM, PASS=verdicts["PASS"], CONTINUE=CONTINUE, ipvs_services=services
        )

    return render(MAIN_TEMPLATE, **ctx)


def render_dispatcher(ifname: str, hook: str) -> str:
    return render(DISPATCHER_TEMPLATE, ifname=ifname, PASS=VERDICTS[hook]["PASS"])
