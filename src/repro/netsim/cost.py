"""The calibrated per-operation cost model.

Each constant is the simulated cost in nanoseconds of one operation on one
core. The calibration targets the *shapes* reported in the LinuxFP paper
(ICDCS 2024) on CloudLab c6525-25g hosts:

- Linux kernel forwarding ≈ 1.0 Mpps/core (sum of the slow-path stage costs);
- the synthesized XDP fast path ≈ 1.77 Mpps/core (77 % faster, Fig 5 /
  Table VII);
- TC-hook fast paths pay sk_buff allocation and early-stack costs on top
  (Table VII);
- iptables evaluation is linear in the rule count (Fig 8), ipset is O(1);
- tail calls cost ~1 % of a typical fast path per call (Fig 10);
- VPP amortizes per-packet overhead over a vector of packets (Fig 5/6/7).

All values are plain attributes so experiments and tests can override them on
an instance without monkey-patching the module. Whole-ns costs are ints, so
the clock converts them to femtoseconds by an integer multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass
class CostModel:
    """Per-operation simulated costs (nanoseconds unless noted)."""

    # --- NIC / driver ---
    driver_rx: int = 150              # DMA + descriptor handling, per packet
    driver_tx: int = 90               # TX descriptor + doorbell

    # --- Linux slow path stages ---
    # Calibrated so the full forwarding path (incl. one netfilter hook) sums
    # to ~1000 ns → 1.0 Mpps/core, giving the paper's 1.77x fast-path ratio.
    skb_alloc: int = 180              # allocate + populate sk_buff
    netif_receive: int = 40           # __netif_receive_skb_core dispatch
    ip_rcv: int = 70                  # validation, checksum, pskb_may_pull
    ip_forward: int = 60              # TTL, dst handling
    fib_lookup: int = 120             # fib_table_lookup (LPM)
    neigh_lookup: int = 50            # neighbor table hit
    ip_output: int = 50               # ip_output/ip_finish_output
    dev_queue_xmit: int = 140         # qdisc + driver handoff
    local_deliver: int = 150          # ip_local_deliver + socket demux
    socket_wakeup: int = 350          # scheduling a blocked reader
    bridge_rx: int = 350              # br_handle_frame + br_netfilter hooks
    bridge_fdb_lookup: int = 200      # hash lookup under the bridge lock
    bridge_fdb_learn: int = 150       # learning/refresh (cache-line dirtying)
    bridge_vlan_filter: int = 30
    bridge_stp_check: int = 15
    nf_hook_overhead: int = 50        # per traversed netfilter hook
    nf_rule_cost: int = 2             # per linearly-scanned iptables rule
    ipset_lookup: int = 20            # hash set membership test
    conntrack_lookup: int = 120
    conntrack_create: int = 300
    ipvs_schedule: int = 180
    vxlan_encap: int = 220            # encap/decap for overlay networking
    veth_xmit: int = 120              # veth pair crossing (incl. softirq)

    # --- eBPF runtime ---
    ebpf_insn: float = 0.2            # per executed instruction: JITed eBPF
                                      # on a 4-wide ~3 GHz core retires
                                      # several insns/cycle, and our naive
                                      # codegen's spill/reload traffic is
                                      # store-forwarded (~free) on real CPUs
    ebpf_prog_entry: int = 25         # dispatch into a loaded program
    ebpf_tail_call: int = 6           # prog_array tail call (Fig 10)
    ebpf_map_lookup: int = 35         # generic hash map lookup
    ebpf_map_update: int = 55
    ebpf_lpm_lookup: int = 70         # LPM trie map walk
    helper_fib_lookup: int = 150      # bpf_fib_lookup (kernel FIB + neigh)
    helper_fdb_lookup: int = 65       # bpf_fdb_lookup (paper's new helper;
                                      # called twice per frame: src + dst)
    helper_ipt_base: int = 45         # bpf_ipt_lookup fixed cost
    helper_ipt_per_rule: int = 2      # + linear scan, same as the kernel
    helper_ipset_lookup: int = 40     # bpf_ipt_lookup hitting an ipset rule
    helper_conntrack: int = 110
    xdp_redirect: int = 100           # ndo_xdp_xmit path
    xdp_pass_to_stack: int = 90       # convert xdp_buff → sk_buff (extra)
    tc_redirect: int = 160            # tc egress redirect

    # --- batched fast path: no discount ---
    # NAPI-budget batching and the JIT amortize host time, not simulated
    # work: a burst charges every frame's per-frame costs above.

    # --- multi-core data plane (Documentation/networking/scaling.rst) ---
    rps_steer: int = 30               # get_rps_cpu: flow hash + table lookup
    rps_ipi: int = 120                # cross-CPU backlog enqueue + IPI wakeup

    # --- Polycube-style platform (custom maps, tail-call chaining) ---
    polycube_classifier: int = 95         # bitvector classification (rule-count ~flat)
    polycube_classifier_per_rule: float = 0.06

    # --- VPP-style platform (userspace, DPDK-like, vector processing) ---
    vpp_vector_size: int = 256            # packets per vector (not ns)
    vpp_per_vector_overhead: int = 9000   # poll + graph dispatch per vector
    vpp_per_packet: int = 240             # per-packet work inside nodes
    vpp_per_rule: float = 0.35            # ACL plugin per-rule cost

    # --- Link model ---
    line_rate_gbps: float = 25.0
    framing_overhead_bytes: int = 20      # preamble + IFG + FCS per frame
    wire_latency_ns: float = 300.0        # one-way propagation per hop

    # --- Containers ---
    app_rr_turnaround_ns: float = 18000.0  # netperf-style app think time per RR

    def line_rate_pps(self, frame_len: int) -> float:
        """Maximum packets/s at line rate for a given frame length."""
        bits = (frame_len + self.framing_overhead_bytes) * 8
        return self.line_rate_gbps * 1e9 / bits

    def copy(self) -> "CostModel":
        return CostModel(**vars(self))


DEFAULT_COSTS = CostModel()
