"""The four benchmark workloads.

Each workload is a closed loop with one client: a request is a call into
the program's public API that returns only when the simulated device has
finished with it (the simulation runs synchronously in the caller's
thread). The generator draws every input from ``random.Random(seed)``;
the program sees only the generated frames and commands. ``check`` then
compares what came out against what the generator predicted.

A workload's life in one process: ``build()`` several times (set-up is
timed), ``start()`` once on the last build (inputs, collectors, warm-up),
then ``steps(i)`` / ``check(i)`` for request ``i = warmup, warmup+1, ...``.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from typing import Callable, Dict, List, Sequence, Tuple

from bench import frames as fr

#: IMIX frame sizes, 7:4:1 (the classic simple IMIX).
IMIX = (64,) * 7 + (576,) * 4 + (1500,)
#: Frames per arrival burst: one NAPI poll's worth.
BURST = 64

Step = Tuple[str, Callable[[], object]]


class Workload:
    """One traffic mix over one topology."""

    name = ""
    #: requests the simulated-clock metrics cover (fixed, so a seed gives
    #: the same simulated numbers however fast the host runs)
    sim_requests = 128
    #: untimed requests run before measuring
    warmup = 8
    #: what one unit of ``attempted`` is
    unit = "frame"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # -- set-up ---------------------------------------------------------
    def build(self) -> None:
        """One fresh set-up: topology, controller start, first deploy."""
        raise NotImplementedError

    def start(self) -> None:
        """Generate inputs for the current build, attach collectors."""
        raise NotImplementedError

    # -- requests -------------------------------------------------------
    def steps(self, i: int) -> List[Step]:
        """The timed calls of request ``i``, labelled ``traffic`` or
        ``reconfig``."""
        raise NotImplementedError

    def frames(self, i: int) -> int:
        """Frames request ``i`` offers to the device under test."""
        return BURST

    def check(self, i: int) -> Tuple[int, int, List[str]]:
        """(units attempted, units failed, problems) for request ``i``."""
        raise NotImplementedError

    # -- accounting -----------------------------------------------------
    def kernels(self) -> Dict[str, object]:
        raise NotImplementedError

    def dut_names(self) -> Sequence[str]:
        raise NotImplementedError

    def controllers(self) -> List[object]:
        raise NotImplementedError

    def clock(self):
        raise NotImplementedError

    def sim_snapshot(self) -> Tuple[int, List[float]]:
        """(simulated clock ns, busy ns of every DUT CPU)."""
        kernels = self.kernels()
        busy: List[float] = []
        for name in self.dut_names():
            busy.extend(kernels[name].cpus.busy_ns)
        return self.clock().now_ns, busy

    def ledger_problems(self) -> List[str]:
        """Every kernel's conservation ledger must settle:
        ``rx + tx_local == settled + pending``."""
        out = []
        for name, kernel in sorted(self.kernels().items()):
            stack = kernel.stack
            pending = stack.pending_packets()
            if stack.rx_packets + stack.tx_local_packets != stack.settled + pending:
                out.append(
                    f"{name}: ledger rx={stack.rx_packets} tx_local={stack.tx_local_packets} "
                    f"settled={stack.settled} pending={pending}"
                )
        return out

    def config(self) -> Dict[str, object]:
        """The effective data-plane configuration of the device under test."""
        kernels = self.kernels()
        dut = kernels[self.dut_names()[0]]
        ctrl = self.controllers()[0]
        return {
            "jit": dut.jit.enabled,
            "batching": dut.softirq.batching,
            "flow_cache": dut.flow_cache.enabled,
            "watchdog": dut.watchdog is not None,
            "optimize": ctrl.synthesizer.optimize,
            "hook": ctrl.hook,
            "dut_cpus": dut.cpus.num_cpus,
        }

    def info(self) -> Dict[str, object]:
        """Workload-specific numbers for the report (not gated)."""
        return {}


class _Outcome:
    """What the generator predicts for one burst."""

    __slots__ = ("egress", "sent", "drops", "icmp")

    def __init__(self) -> None:
        self.egress: List[bytes] = []
        #: expected egress frame -> the input frame it answers
        self.sent: Dict[bytes, bytes] = {}
        self.drops: Counter = Counter()
        self.icmp: Counter = Counter()


class _LineWorkload(Workload):
    """Workloads on the paper's source — DUT — sink line."""

    topo = None

    def kernels(self):
        t = self.topo
        return {k.hostname: k for k in (t.source, t.dut, t.sink)}

    def dut_names(self):
        return ("dut",)

    def controllers(self):
        return [self.topo.controller]

    def clock(self):
        return self.topo.clock

    def _wire_up(self) -> None:
        t = self.topo
        self.src_mac = t.src_eth.mac.to_bytes()
        self.dut_in_mac = t.dut_in.mac.to_bytes()
        self.dut_out_mac = t.dut_out.mac.to_bytes()
        self.sink_mac = t.sink_eth.mac.to_bytes()
        self.egress: List[bytes] = []
        self.returned: List[bytes] = []
        t.sink_eth.nic.attach(self._collect_egress)
        t.src_eth.nic.attach(self._collect_returned)
        self._drops = Counter(t.dut.stack.drops)

    def _collect_egress(self, frame: bytes, queue: int) -> None:
        self.egress.append(frame)

    def _collect_returned(self, frame: bytes, queue: int) -> None:
        self.returned.append(frame)

    def _frame(self, src_ip, dst_ip, sport, dport, size=64, ttl=64, ident=0) -> bytes:
        return fr.udp_frame(self.src_mac, self.dut_in_mac, src_ip, dst_ip, sport, dport, size, ttl, ident)

    def _expect_forward(self, out: _Outcome, frame: bytes) -> None:
        expected = fr.forwarded(frame, self.dut_out_mac, self.sink_mac)
        out.sent[expected] = frame
        out.egress.append(expected)

    def _check_outcome(self, want: _Outcome, frames: int) -> Tuple[int, List[str]]:
        """Failed frames of one burst and what went wrong."""
        egress, self.egress = self.egress, []
        returned, self.returned = self.returned, []
        problems: List[str] = []
        failed = 0
        if egress != want.egress:
            missing = Counter(want.egress) - Counter(egress)
            extra = list((Counter(egress) - Counter(want.egress)).elements())
            for expected in list(missing.elements()):
                sent = want.sent[expected]
                for j, got in enumerate(extra):
                    if fr.forward_ok(got, sent, self.dut_out_mac, self.sink_mac):
                        del extra[j]
                        missing[expected] -= 1
                        break
            lost = sum(n for n in missing.values() if n > 0)
            if lost or extra:
                failed += max(lost, len(extra))  # a corrupted frame is one of each
                problems.append(f"egress: {lost} expected frames missing, {len(extra)} unexpected")
        drops_now = Counter(self.topo.dut.stack.drops)
        drops = drops_now - self._drops
        self._drops = drops_now
        if drops != want.drops:
            diff = (drops - want.drops) + (want.drops - drops)
            failed += sum(diff.values())
            problems.append(f"drop reasons {dict(drops)} != expected {dict(want.drops)}")
        icmp = Counter(fr.icmp_error(f) for f in returned)
        if icmp != want.icmp:
            diff = (icmp - want.icmp) + (want.icmp - icmp)
            failed += sum(diff.values())
            problems.append(f"ICMP errors differ from expected by {sum(diff.values())}")
        return min(failed, frames), problems


# --------------------------------------------------------------- router-64B

class Router64B(_LineWorkload):
    """Bare XDP forwarding of 64 B frames: per-packet cost dominates, and
    there is no slow path, no netfilter and no controller."""

    name = "router-64B"
    sim_requests = 128
    FLOWS = 1024
    BURSTS = 1024

    def build(self) -> None:
        from repro.measure.scenarios import setup_router

        self.topo = setup_router("linuxfp", hook="xdp")

    def start(self) -> None:
        from repro.measure.scenarios import NUM_PREFIXES

        self._wire_up()
        rng = random.Random(self.seed)
        flows, sent = [], {}
        for __ in range(self.FLOWS):
            dst = f"10.{100 + rng.randrange(NUM_PREFIXES)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            frame = self._frame("10.0.1.2", dst, rng.randrange(1024, 65536), rng.randrange(1, 65536),
                                ident=rng.randrange(65536))
            want = fr.forwarded(frame, self.dut_out_mac, self.sink_mac)
            sent[want] = frame
            flows.append((frame, want))
        self.bursts = []
        for __ in range(self.BURSTS):
            picks = [flows[rng.randrange(self.FLOWS)] for __ in range(BURST)]
            out = _Outcome()
            out.egress = [want for __, want in picks]
            out.sent = sent
            self.bursts.append(([frame for frame, __ in picks], out))

    def steps(self, i):
        frames = self.bursts[i % self.BURSTS][0]
        nic = self.topo.dut_in.nic
        return [("traffic", lambda: nic.receive_burst(frames))]

    def check(self, i):
        failed, problems = self._check_outcome(self.bursts[i % self.BURSTS][1], BURST)
        return BURST, failed, problems


# -------------------------------------------------------------- gateway-mix

class GatewayMix(_LineWorkload):
    """100 FORWARD rules, 4 CPUs with RSS, IMIX sizes, Pareto flows, and 10%
    of frames leaving the fast path for ICMP errors."""

    name = "gateway-mix"
    sim_requests = 96
    FLOWS = 4096
    #: per 20 frames: 16 forwarded, 2 blacklisted, 1 TTL=1, 1 without a route
    CLASS_BLOCK = ("fwd",) * 16 + ("black",) * 2 + ("ttl", "noroute")
    PARETO_ALPHA = 1.16

    def build(self) -> None:
        from repro.measure.scenarios import setup_gateway

        self.topo = setup_gateway("linuxfp", hook="xdp", num_queues=4)

    def start(self) -> None:
        from repro.measure.scenarios import NUM_PREFIXES, NUM_RULES, blacklist_address

        self._wire_up()
        rng = random.Random(self.seed)
        share = Counter(self.CLASS_BLOCK)
        pools: Dict[str, list] = {}
        assigned = 0
        for j, cls in enumerate(sorted(share)):
            count = (self.FLOWS * share[cls]) // len(self.CLASS_BLOCK)
            if j == len(share) - 1:
                count = self.FLOWS - assigned
            assigned += count
            flows, cum, total = [], [], 0.0
            for __ in range(count):
                if cls == "noroute":
                    dst = f"10.{150 + rng.randrange(100)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
                else:
                    dst = f"10.{100 + rng.randrange(NUM_PREFIXES)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
                src = blacklist_address(rng.randrange(NUM_RULES)) if cls == "black" else "10.0.1.2"
                flows.append((src, dst, rng.randrange(1024, 65536), rng.randrange(1, 65536),
                              1 if cls == "ttl" else 64, rng.randrange(65536)))
                total += rng.paretovariate(self.PARETO_ALPHA)
                cum.append(total)
            pools[cls] = (flows, cum)

        self.pools = pools
        self.rng = rng
        self.classes: List[str] = []
        self.sizes: List[int] = []
        self.next_burst = 0
        self.burst: Tuple[List[bytes], _Outcome] = ([], _Outcome())

    def _generate(self, i: int) -> None:
        """Draw burst ``i`` from the stream. Bursts are drawn on demand and
        in order, so the inputs never sit in memory (peak RSS is the
        program's) and every block of 20 frames keeps the exact class mix."""
        if i != self.next_burst:
            raise ValueError(f"burst {i} requested, next in the stream is {self.next_burst}")
        self.next_burst += 1
        rng = self.rng
        frames, out = [], _Outcome()
        for __ in range(BURST):
            if not self.classes:
                self.classes = list(self.CLASS_BLOCK)
                rng.shuffle(self.classes)
            if not self.sizes:
                self.sizes = list(IMIX)
                rng.shuffle(self.sizes)
            cls, size = self.classes.pop(), self.sizes.pop()
            flows, cum = self.pools[cls]
            src, dst, sport, dport, ttl, ident = rng.choices(flows, cum_weights=cum)[0]
            frame = self._frame(src, dst, sport, dport, size, ttl, ident)
            frames.append(frame)
            self._expect(out, frame, cls)
        self.burst = (frames, out)

    def _expect(self, out: _Outcome, frame: bytes, cls: str) -> None:
        if cls == "fwd":
            self._expect_forward(out, frame)
        elif cls == "black":
            out.drops["xdp_drop"] += 1
        elif cls == "ttl":
            out.drops["ttl_exceeded"] += 1
            out.icmp[(11, 0, fr.quote_key(frame[14:34]))] += 1
        else:
            out.drops["no_route"] += 1
            out.icmp[(3, 0, fr.quote_key(frame[14:34]))] += 1

    def steps(self, i):
        self._generate(i)
        frames = self.burst[0]
        nic = self.topo.dut_in.nic
        return [("traffic", lambda: nic.receive_burst(frames))]

    def check(self, i):
        failed, problems = self._check_outcome(self.burst[1], BURST)
        return BURST, failed, problems


# --------------------------------------------------------------- k8s-pod-rr

class K8sPodRR(Workload):
    """Flannel pod-to-pod TCP_RR at the TC hook: skb path, bridge FDB and
    vxlan, one frame at a time, so XDP batching is bypassed."""

    name = "k8s-pod-rr"
    unit = "transaction"
    sim_requests = 256
    warmup = 3
    TRANSACTIONS = 8192
    PORT = 5201
    CLIENT_PORT = 40000

    def build(self) -> None:
        from repro.k8s import Cluster
        from repro.kernel.sockets import tcp_rr_server
        from repro.measure.k8s_bench import container_cost_model
        from repro.netsim.packet import IPPROTO_TCP

        cluster = Cluster(workers=2, costs=container_cost_model())
        w0, w1 = cluster.workers
        # two pairs on one node (bridge), two across nodes (vxlan)
        self.pairs = [
            (cluster.create_pod(a), cluster.create_pod(b))
            for a, b in ((w0, w0), (w1, w1), (w0, w1), (w1, w0))
        ]
        cluster.accelerate()
        self.responses: List[list] = [[] for __ in self.pairs]
        for k, (client, server) in enumerate(self.pairs):
            tcp_rr_server(server.kernel, self.PORT, response_size=8)
            client.kernel.sockets.bind(IPPROTO_TCP, self.CLIENT_PORT, self._collector(k))
        self.cluster = cluster

    def _collector(self, k: int):
        sink = self.responses[k]

        def collect(kernel, skb) -> None:
            pkt = skb.pkt
            sink.append((pkt.ip.src.to_bytes(), pkt.l4.sport, pkt.l4.dport, bytes(pkt.payload)))

        return collect

    def start(self) -> None:
        rng = random.Random(self.seed)
        self.txns = []
        for n in range(self.TRANSACTIONS):
            token = rng.getrandbits(64).to_bytes(8, "big")
            filler = bytes(rng.getrandbits(8) for __ in range(rng.randrange(57)))
            self.txns.append((n % len(self.pairs), token, token + filler))
        self.server_ip = [fr.ip_bytes(server.ip) for __, server in self.pairs]
        self.rtt_ns: List[List[int]] = [[] for __ in self.pairs]

    def _send(self, k: int, payload: bytes) -> None:
        from repro.netsim.addresses import ipv4
        from repro.netsim.packet import IPPROTO_TCP, IPv4, TCP

        client, server = self.pairs[k]
        clock = self.cluster.clock
        t0 = clock.now_ns
        client.kernel.send_ip(
            IPv4(src=ipv4(client.ip), dst=ipv4(server.ip), proto=IPPROTO_TCP),
            TCP(sport=self.CLIENT_PORT, dport=self.PORT, flags=TCP.ACK | TCP.PSH),
            payload,
        )
        self.rtt_ns[k].append(clock.now_ns - t0)

    def _round(self, i: int):
        n = len(self.pairs)
        return [self.txns[(i * n + k) % self.TRANSACTIONS] for k in range(n)]

    def steps(self, i):
        return [("traffic", lambda k=k, p=payload: self._send(k, p)) for k, __, payload in self._round(i)]

    def frames(self, i):
        return 2 * len(self.pairs)  # request + response per transaction

    def check(self, i):
        failed, problems = 0, []
        for k, token, __ in self._round(i):
            got = list(self.responses[k])
            self.responses[k].clear()
            want = [(self.server_ip[k], self.PORT, self.CLIENT_PORT, token)]
            if got != want:
                failed += 1
                problems.append(f"pair {k}: expected one response carrying its token, got {len(got)}")
        return len(self.pairs), failed, problems

    def kernels(self):
        out = {node.kernel.hostname: node.kernel for node in self.cluster.nodes}
        for client, server in self.pairs:
            out[client.kernel.hostname] = client.kernel
            out[server.kernel.hostname] = server.kernel
        return out

    def dut_names(self):
        return tuple(node.kernel.hostname for node in self.cluster.nodes)

    def controllers(self):
        return [node.controller for node in self.cluster.nodes]

    def clock(self):
        return self.cluster.clock

    def info(self):
        intra = [t for k in (0, 1) for t in self.rtt_ns[k]]
        inter = [t for k in (2, 3) for t in self.rtt_ns[k]]
        return {
            "sim_rr_rtt_us_intra": statistics.median(intra) / 1e3,
            "sim_rr_rtt_us_inter": statistics.median(inter) / 1e3,
        }


# ------------------------------------------------------------ control-churn

class ControlChurn(_LineWorkload):
    """iptables, route and bridge commands, each followed by a check burst:
    structural changes run the whole synthesis pipeline, routes only touch
    the FIB."""

    name = "control-churn"
    unit = "command"
    sim_requests = 90
    warmup = 9
    CYCLES = 128
    MARKED = 8  # frames per burst from the blocked source / to the churned prefix

    def build(self) -> None:
        from repro.measure.scenarios import setup_router
        from repro.tools import ip

        self.topo = setup_router("linuxfp", hook="xdp")
        ip(self.topo.dut, "link add veth0 type veth peer name veth1")
        ip(self.topo.dut, "link set veth0 up")
        ip(self.topo.dut, "link set veth1 up")

    def start(self) -> None:
        from repro.measure.scenarios import NUM_PREFIXES
        from repro.tools import brctl, ip, iptables

        self._wire_up()
        rng = random.Random(self.seed)

        def normal_dst() -> str:
            return f"10.{100 + rng.randrange(NUM_PREFIXES)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"

        def flow(src: str, dst: str) -> bytes:
            return self._frame(src, dst, rng.randrange(1024, 65536), rng.randrange(1, 65536),
                               ident=rng.randrange(65536))

        normal = [flow("10.0.1.2", normal_dst()) for __ in range(512)]
        self.requests = []
        for __ in range(self.CYCLES):
            blocked = f"172.16.{rng.randrange(1, 255)}.{rng.randrange(1, 255)}"
            octet = 150 + rng.randrange(100)
            prefix = f"10.{octet}.0.0/16"
            bridge = f"br{rng.randrange(1000)}"
            from_blocked = [flow(blocked, normal_dst()) for __ in range(self.MARKED)]
            to_prefix = [flow("10.0.1.2", f"10.{octet}.{rng.randrange(256)}.{rng.randrange(1, 255)}")
                         for __ in range(self.MARKED)]
            cycle = (
                (iptables, f"-A FORWARD -s {blocked}/32 -j DROP", True, False),
                (ip, f"route add {prefix} via 10.0.2.2", True, True),
                (brctl, f"addbr {bridge}", True, True),
                (ip, f"link set {bridge} up", True, True),
                (brctl, f"addif {bridge} veth0", True, True),
                (iptables, "-F FORWARD", False, True),
                (ip, f"route del {prefix}", False, False),
                (brctl, f"delif {bridge} veth0", False, False),
                (brctl, f"delbr {bridge}", False, False),
            )
            for tool, command, rule, route in cycle:
                frames = from_blocked + to_prefix + rng.sample(normal, BURST - 2 * self.MARKED)
                rng.shuffle(frames)
                out = _Outcome()
                for frame in frames:
                    if frame in from_blocked and rule:
                        out.drops["xdp_drop"] += 1
                    elif frame in to_prefix and not route:
                        out.drops["no_route"] += 1
                        out.icmp[(3, 0, fr.quote_key(frame[14:34]))] += 1
                    else:
                        self._expect_forward(out, frame)
                self.requests.append((tool, command, frames, out))
        self.incidents_seen = self.topo.controller.incidents_total

    def _command(self, i: int) -> None:
        tool, command = self.requests[i % len(self.requests)][:2]
        tool(self.topo.dut, command)

    def steps(self, i):
        frames = self.requests[i % len(self.requests)][2]
        nic = self.topo.dut_in.nic
        return [
            ("reconfig", lambda: self._command(i)),
            ("traffic", lambda: nic.receive_burst(frames)),
        ]

    def check(self, i):
        tool, command, __, out = self.requests[i % len(self.requests)]
        failed, problems = self._check_outcome(out, BURST)
        health = self.topo.controller.health()
        incidents = health["incidents_total"] - self.incidents_seen
        self.incidents_seen = health["incidents_total"]
        bad = bool(failed) or not health["ok"] or incidents > 0
        if bad:
            problems.append(f"after {tool.__name__} {command}: health ok={health['ok']}, "
                            f"{incidents} new incidents")
        return 1, int(bad), problems


WORKLOADS = {cls.name: cls for cls in (Router64B, GatewayMix, K8sPodRR, ControlChurn)}


def make(name: str, seed: int) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}") from None
    return cls(seed)
