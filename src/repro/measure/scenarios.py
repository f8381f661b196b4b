"""Evaluation scenarios: virtual router and virtual gateway on every platform.

Each ``setup_*`` function configures the DUT of a :class:`LineTopology` for
one (platform, scenario) cell of the paper's Figs 5–8 / Tables III–IV:

- **linux** — standard kernel tools only (iproute2/iptables/ipset);
- **linuxfp** — identical standard-tool configuration, plus the LinuxFP
  controller watching netlink (that's the whole point);
- **polycube** — the custom ``pcn-*`` CLIs (its own state; note the
  duplicated next-hop/MAC knowledge the operator must provide);
- **vpp** — ``vppctl`` over bypassed NICs with dedicated worker cores.

The traffic matrix is the paper's: 50 prefixes for routing, a 100-address
blacklist for the gateway.
"""

from __future__ import annotations

from typing import Optional

from repro.core import Controller
from repro.measure.netperf import Netperf, measure_base_rtt_ns
from repro.measure.pktgen import Pktgen, ThroughputResult
from repro.measure.topology import LineTopology
from repro.platforms import Polycube, Vpp
from repro.tools import ip, ipset, iptables
NUM_PREFIXES = 50
NUM_RULES = 100
PLATFORMS = ("linux", "linuxfp", "polycube", "vpp")


def blacklist_address(index: int) -> str:
    return f"172.16.{index // 250}.{(index % 250) + 1}"


# ------------------------------------------------------------------- router

def setup_router(
    platform: str,
    num_prefixes: int = NUM_PREFIXES,
    num_queues: int = 1,
    hook: str = "xdp",
    jit: Optional[bool] = None,
) -> LineTopology:
    """Build the virtual-router DUT for one platform.

    ``jit`` enables the bytecode→Python JIT on the linuxfp controller
    (None defers to ``LINUXFP_JIT``).
    """
    topo = LineTopology(num_queues=num_queues, dut_forwarding=platform in ("linux", "linuxfp"))
    if platform in ("linux", "linuxfp"):
        for i in range(num_prefixes):
            ip(topo.dut, f"route add 10.{100 + i}.0.0/16 via 10.0.2.2")
        if platform == "linuxfp":
            topo.controller = Controller(topo.dut, hook=hook, jit=jit)
            topo.controller.start()
    elif platform == "polycube":
        pcn = Polycube(topo.dut)
        pcn.attach_port("eth0")
        pcn.attach_port("eth1")
        sink_mac = topo.sink_eth.mac
        src_mac = topo.src_eth.mac
        for i in range(num_prefixes):
            pcn.pcn_router(f"add route 10.{100 + i}.0.0/16 10.0.2.2 {sink_mac} eth1")
        pcn.pcn_router(f"add route 10.0.1.0/24 10.0.1.2 {src_mac} eth0")
        pcn.pcn_router(f"add route 10.0.2.0/24 10.0.2.2 {sink_mac} eth1")
        topo.polycube = pcn
    elif platform == "vpp":
        vpp = Vpp(topo.dut, workers=num_queues)
        vpp.take_over("eth0")
        vpp.take_over("eth1")
        vpp.vppctl("set interface state eth0 up")
        vpp.vppctl("set interface state eth1 up")
        sink_mac = topo.sink_eth.mac
        src_mac = topo.src_eth.mac
        for i in range(num_prefixes):
            vpp.vppctl(f"ip route add 10.{100 + i}.0.0/16 via 10.0.2.2 eth1 mac {sink_mac}")
        vpp.vppctl(f"ip route add 10.0.1.0/24 via 10.0.1.2 eth0 mac {src_mac}")
        vpp.vppctl(f"ip route add 10.0.2.0/24 via 10.0.2.2 eth1 mac {sink_mac}")
        topo.vpp = vpp
    else:
        raise ValueError(f"unknown platform {platform!r}")
    topo.prewarm_neighbors()
    return topo


# ------------------------------------------------------------------ gateway

def setup_gateway(
    platform: str,
    num_rules: int = NUM_RULES,
    use_ipset: bool = False,
    num_prefixes: int = NUM_PREFIXES,
    num_queues: int = 1,
    hook: str = "xdp",
    jit: Optional[bool] = None,
) -> LineTopology:
    """Router + IP-blacklist filtering (the virtual-gateway scenario)."""
    topo = setup_router(
        platform,
        num_prefixes=num_prefixes,
        num_queues=num_queues,
        hook=hook,
        jit=jit,
    )
    if platform in ("linux", "linuxfp"):
        if use_ipset:
            ipset(topo.dut, "create blacklist hash:ip")
            for i in range(num_rules):
                ipset(topo.dut, f"add blacklist {blacklist_address(i)}")
            iptables(topo.dut, "-A FORWARD -m set --match-set blacklist src -j DROP")
        else:
            for i in range(num_rules):
                iptables(topo.dut, f"-A FORWARD -s {blacklist_address(i)}/32 -j DROP")
    elif platform == "polycube":
        for i in range(num_rules):
            topo.polycube.pcn_iptables(f"-A FORWARD -s {blacklist_address(i)}/32 -j DROP")
    elif platform == "vpp":
        for i in range(num_rules):
            topo.vpp.vppctl(f"acl add deny src {blacklist_address(i)}/32")
    return topo


# --------------------------------------------------------------- measuring

def measure_throughput(
    topo: LineTopology,
    cores: int = 1,
    packet_size: int = 64,
    packets: int = 2000,
    num_prefixes: int = NUM_PREFIXES,
) -> ThroughputResult:
    generator = Pktgen(topo, packet_size=packet_size, num_prefixes=num_prefixes)
    return generator.throughput(cores=cores, packets=packets)


def measure_scaling(
    platform: str = "linuxfp",
    core_counts=(1, 2, 4, 8),
    num_flows: int = 256,
    packets: int = 1500,
    warmup: int = 150,
):
    """Measured throughput-vs-cores for the in-kernel platforms.

    One fresh router topology per core count, each driven through the
    RSS/RPS multi-core data plane (:meth:`Pktgen.measure_multicore`) — the
    reported rate comes from the bottleneck CPU's busy time, not from the
    modeled ``CORE_SCALING_LOSS`` extrapolation. Returns ``(topo, result)``
    pairs so callers can audit the per-CPU conservation ledger.
    """
    if platform not in ("linux", "linuxfp"):
        raise ValueError("measured scaling needs the kernel data plane")
    runs = []
    for cores in core_counts:
        topo = setup_router(platform, num_queues=cores)
        generator = Pktgen(topo, num_flows=num_flows)
        runs.append((topo, generator.measure_multicore(packets=packets, warmup=warmup)))
    return runs


def measure_latency(
    topo: LineTopology,
    sessions: int = 128,
    transactions: int = 4000,
    seed: int = 1,
    num_prefixes: int = NUM_PREFIXES,
):
    """128-session netperf TCP_RR against the DUT (Tables III/IV)."""
    platform_vpp = getattr(topo, "vpp", None)
    probe = Pktgen(topo, num_prefixes=num_prefixes).measure_per_packet_ns(packets=600, warmup=100)
    # the probe black-holed the sink; restore its stack for the RR probe
    topo.sink_eth.nic.attach(topo.sink_eth._on_nic_rx)
    if platform_vpp is not None:
        # VPP terminates nothing: RR endpoints stay on source/sink kernels,
        # but the DUT contribution is VPP's service time.
        base_rtt = 2 * probe.per_packet_ns + 30000.0  # endpoints + wire
    else:
        base_rtt = measure_base_rtt_ns(topo)
    return Netperf(
        dut_service_ns=probe.per_packet_ns,
        base_rtt_ns=base_rtt,
        sessions=sessions,
        seed=seed,
    ).run(transactions)
