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
an instance without monkey-patching the module.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass
class CostModel:
    """Per-operation simulated costs (nanoseconds unless noted)."""

    # --- NIC / driver ---
    driver_rx: float = 150.0          # DMA + descriptor handling, per packet
    driver_tx: float = 90.0           # TX descriptor + doorbell
    byte_touch: float = 0.012         # per-byte cost of copying/checksumming

    # --- Linux slow path stages ---
    # Calibrated so the full forwarding path (incl. one netfilter hook) sums
    # to ~1000 ns → 1.0 Mpps/core, giving the paper's 1.77x fast-path ratio.
    skb_alloc: float = 180.0          # allocate + populate sk_buff
    skb_free: float = 40.0
    netif_receive: float = 40.0       # __netif_receive_skb_core dispatch
    ip_rcv: float = 70.0              # validation, checksum, pskb_may_pull
    ip_forward: float = 60.0          # TTL, dst handling
    fib_lookup: float = 120.0         # fib_table_lookup (LPM)
    neigh_lookup: float = 50.0        # neighbor table hit
    ip_output: float = 50.0           # ip_output/ip_finish_output
    dev_queue_xmit: float = 140.0     # qdisc + driver handoff
    local_deliver: float = 150.0      # ip_local_deliver + socket demux
    socket_wakeup: float = 350.0      # scheduling a blocked reader
    bridge_rx: float = 350.0          # br_handle_frame + br_netfilter hooks
    bridge_fdb_lookup: float = 200.0  # hash lookup under the bridge lock
    bridge_fdb_learn: float = 150.0   # learning/refresh (cache-line dirtying)
    bridge_vlan_filter: float = 30.0
    bridge_stp_check: float = 15.0
    nf_hook_overhead: float = 50.0    # per traversed netfilter hook
    nf_rule_cost: float = 2.0         # per linearly-scanned iptables rule
    ipset_lookup: float = 20.0        # hash set membership test
    conntrack_lookup: float = 120.0
    conntrack_create: float = 300.0
    ipvs_schedule: float = 180.0
    vxlan_encap: float = 220.0        # encap/decap for overlay networking
    veth_xmit: float = 120.0          # veth pair crossing (incl. softirq)

    # --- eBPF runtime ---
    ebpf_insn: float = 0.2            # per executed instruction: JITed eBPF
                                      # on a 4-wide ~3 GHz core retires
                                      # several insns/cycle, and our naive
                                      # codegen's spill/reload traffic is
                                      # store-forwarded (~free) on real CPUs
    ebpf_prog_entry: float = 25.0     # dispatch into a loaded program
    ebpf_tail_call: float = 6.0       # prog_array tail call (Fig 10)
    ebpf_map_lookup: float = 35.0     # generic hash map lookup
    ebpf_map_update: float = 55.0
    ebpf_lpm_lookup: float = 70.0     # LPM trie map walk
    helper_fib_lookup: float = 150.0  # bpf_fib_lookup (kernel FIB + neigh)
    helper_fdb_lookup: float = 65.0   # bpf_fdb_lookup (paper's new helper;
                                      # called twice per frame: src + dst)
    helper_ipt_base: float = 45.0     # bpf_ipt_lookup fixed cost
    helper_ipt_per_rule: float = 2.0  # + linear scan, same as the kernel
    helper_ipset_lookup: float = 40.0  # bpf_ipt_lookup hitting an ipset rule
    helper_conntrack: float = 110.0
    xdp_redirect: float = 100.0       # ndo_xdp_xmit path
    xdp_pass_to_stack: float = 90.0   # convert xdp_buff → sk_buff (extra)
    tc_redirect: float = 160.0        # tc egress redirect

    # --- batched fast path ---
    # NAPI-budget batching and the bytecode→Python JIT amortize *host*
    # interpreter overhead (wall clock), not simulated work: every packet
    # still charges its full per-packet costs above, so batched and
    # per-frame runs read identical simulated clocks. That cost parity is
    # a tested invariant (tests/ebpf/test_jit_differential.py), which is
    # why there is deliberately no "batched driver_rx discount" here.

    # --- multi-core data plane (Documentation/networking/scaling.rst) ---
    rps_steer: float = 30.0           # get_rps_cpu: flow hash + table lookup
    rps_ipi: float = 120.0            # cross-CPU backlog enqueue + IPI wakeup
    cross_cpu_lock: float = 90.0      # contended cacheline bounce on a shared
                                      # (non-per-CPU) map mutation

    # --- megaflow-style flow cache (extension beyond the paper) ---
    flow_cache_lookup: float = 40.0   # hash + gen revalidation + replay
    flow_cache_insert: float = 25.0   # record an entry after a full run

    # --- Polycube-style platform (custom maps, tail-call chaining) ---
    polycube_map_ctrl_sync: float = 30.0  # per-packet cost of custom map state
    polycube_classifier: float = 95.0     # bitvector classification (rule-count ~flat)
    polycube_classifier_per_rule: float = 0.06

    # --- VPP-style platform (userspace, DPDK-like, vector processing) ---
    vpp_vector_size: int = 256            # packets per vector (not ns)
    vpp_per_vector_overhead: float = 9000.0  # poll + graph dispatch per vector
    vpp_per_packet: float = 240.0         # per-packet work inside nodes
    vpp_per_rule: float = 0.35            # ACL plugin per-rule cost

    # --- Link model ---
    line_rate_gbps: float = 25.0
    framing_overhead_bytes: int = 20      # preamble + IFG + FCS per frame
    wire_latency_ns: float = 300.0        # one-way propagation per hop

    # --- Containers ---
    container_netns_switch: float = 180.0
    app_rr_turnaround_ns: float = 18000.0  # netperf-style app think time per RR

    def line_rate_pps(self, frame_len: int) -> float:
        """Maximum packets/s at line rate for a given frame length."""
        bits = (frame_len + self.framing_overhead_bytes) * 8
        return self.line_rate_gbps * 1e9 / bits

    def copy(self) -> "CostModel":
        return CostModel(**vars(self))


DEFAULT_COSTS = CostModel()
