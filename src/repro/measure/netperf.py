"""netperf-style TCP_RR latency measurement.

The paper loads each network function with 128 parallel netperf TCP_RR
sessions on a single DUT core and reports mean / P99 / stddev RTT. We model
that as a *closed-loop single-server queue*:

- the DUT core is the server; each transaction occupies it twice (request
  and response crossing), with per-service jitter drawn from a seeded gamma
  distribution (hardware service times are right-skewed);
- each session re-submits as soon as its previous transaction finishes plus
  the un-contended endpoint time (client/server stacks + wire), which is
  measured by running one real transaction through the simulated kernels.

With one session the mean RTT collapses to the measured base RTT; with 128
sessions the DUT saturates and RTT ≈ sessions × 2 × service — which is the
regime the paper's Tables III/IV sit in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List
import random

from repro.measure.stats import summarize

# Service-time jitter calibration. A gamma body with occasional long stalls
# (softirq storms / scheduler preemption) reproduces the paper's tails:
# P99/mean ≈ 1.5, stddev/mean ≈ 0.2-0.3 under 128-session saturation.
JITTER_SHAPE = 2.0
TAIL_PROB = 0.02
TAIL_MULT = 20.0


@dataclass
class LatencyResult:
    avg_us: float
    p99_us: float
    std_us: float
    transactions_per_s: float
    sessions: int

    def row(self) -> str:
        return f"{self.avg_us:10.3f} {self.p99_us:10.3f} {self.std_us:10.3f}"


class Netperf:
    """Closed-loop TCP_RR simulation over a measured service/base time."""

    def __init__(
        self,
        dut_service_ns: float,
        base_rtt_ns: float,
        sessions: int = 128,
        seed: int = 1,
    ) -> None:
        if sessions < 1:
            raise ValueError("need at least one session")
        if dut_service_ns < 0 or base_rtt_ns < 0:
            raise ValueError("times must be non-negative")
        self.dut_service_ns = dut_service_ns
        self.base_rtt_ns = base_rtt_ns
        self.sessions = sessions
        self.seed = seed

    def run(self, transactions: int = 4000) -> LatencyResult:
        rng = random.Random(self.seed)
        shape = JITTER_SHAPE
        scale = 1.0 / shape
        # Each transaction crosses the DUT twice (request + response).
        per_transaction_service = 2.0 * self.dut_service_ns
        # Endpoint time: the un-contended remainder of the base RTT.
        endpoint_ns = max(0.0, self.base_rtt_ns - per_transaction_service)

        # session heap: (ready_time, session_id)
        ready: List = [(0.0, s) for s in range(self.sessions)]
        heapq.heapify(ready)
        server_free = 0.0
        rtts: List[float] = []
        last_done = 0.0
        for __ in range(transactions):
            arrival, session = heapq.heappop(ready)
            service = per_transaction_service * rng.gammavariate(shape, scale)
            if rng.random() < TAIL_PROB:
                service *= TAIL_MULT
            start = max(arrival, server_free)
            done = start + service
            server_free = done
            rtt = (done - arrival) + endpoint_ns
            rtts.append(rtt)
            heapq.heappush(ready, (done + endpoint_ns, session))
            last_done = done

        summary = summarize(rtts)
        elapsed_s = max(last_done, 1.0) / 1e9
        return LatencyResult(
            avg_us=summary.mean / 1e3,
            p99_us=summary.p99 / 1e3,
            std_us=summary.std / 1e3,
            transactions_per_s=len(rtts) / elapsed_s,
            sessions=self.sessions,
        )


def measure_base_rtt_ns(topo, port: int = 5201, probes: int = 32) -> float:
    """Measure one un-contended TCP_RR transaction through the real stack.

    Binds a netperf-style responder on the sink and a client socket on the
    source, then times full request→response round trips on the simulated
    clock (including both endpoints, as real netperf RTTs do).
    """
    from repro.kernel.sockets import tcp_rr_server
    from repro.netsim.packet import IPPROTO_TCP, IPv4, TCP
    from repro.netsim.addresses import ipv4

    tcp_rr_server(topo.sink, port)
    responses: List[int] = []
    topo.source.sockets.bind(IPPROTO_TCP, 45000, lambda k, skb: responses.append(k.clock.now_ns))
    topo.prewarm_neighbors()

    samples = []
    for i in range(probes):
        t0 = topo.clock.now_ns
        topo.source.send_ip(
            IPv4(src=ipv4("10.0.1.2"), dst=ipv4("10.0.2.2"), proto=IPPROTO_TCP),
            TCP(sport=45000, dport=port, flags=TCP.ACK | TCP.PSH),
            b"\x01",
        )
        if len(responses) == i + 1:
            samples.append(responses[-1] - t0)
    topo.source.sockets.unbind(IPPROTO_TCP, 45000)
    topo.sink.sockets.unbind(IPPROTO_TCP, port)
    if not samples:
        raise RuntimeError("RR probe produced no responses; topology broken?")
    # add wire propagation both ways (4 hops total)
    return sum(samples) / len(samples) + 4 * topo.costs.wire_latency_ns
