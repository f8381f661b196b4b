"""The megaflow-style flow cache for synthesized fast paths.

The synthesized FPM chain re-derives the same verdict for every packet of a
flow. This cache — inspired by OVS's megaflow cache, and an extension beyond
the LinuxFP paper — runs the chain once per flow, derives the *semantic
actions* the program applied (MAC rewrite, TTL decrement + incremental
checksum update, DNAT), and replays them on subsequent packets of the flow
for a single O(1) dict lookup.

Correctness rests on three mechanisms:

1. **Generation tags.** Every mutable kernel table (FIB, bridge FDB,
   netfilter, conntrack, ipset registry, neighbor table, device table) bumps
   a generation counter on semantically-visible mutation. Helpers record
   which tables a run consulted (``Env.note_dep``); the entry snapshots
   those tables' generations and a hit revalidates them. A stale generation
   drops the entry and falls back to the full FPM run.

2. **Deadline expiry.** Time-based staleness (bridge FDB ageing, conntrack
   timeouts) is invisible to generation tags, so helpers also record the
   earliest deadline at which a consulted entry would expire
   (``Env.note_expiry``); hits past the deadline re-run the chain.

3. **Verified derivation.** Actions are derived by diffing the input and
   output frames of the recording run, then re-applied to the input frame
   and checked for byte-equality against the program's actual output. A
   diff the action model cannot express (or a run that touched per-packet
   state: maps, ktime) yields an *uncacheable* marker entry, and
   that flow takes the full run forever.

Partitions are keyed by (hook, ifindex) so the deployer's atomic prog-array
swap can flush exactly the traffic whose program changed. Each partition
additionally carries an **epoch**: flushing a partition bumps it, entries
are stamped with the epoch they were recorded under, and a lookup rejects
any entry from an older epoch. The flush already deletes matching entries,
so the epoch is the belt-and-suspenders guarantee the watchdog's quarantine
relies on — no verdict recorded under a withdrawn program can ever be
served, even if an entry were re-inserted by an in-flight recording run.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.ebpf.vm import Env
from repro.kernel.hooks_api import (
    TC_ACT_REDIRECT,
    TcResult,
    XDP_ABORTED,
    XDP_REDIRECT,
    XdpResult,
)
from repro.netsim.flowkey import FlowKey, extract_flow_key
from repro.netsim.packet import Packet, PacketError

DEFAULT_CAPACITY = 4096

# Which FPM a table dependency implicates (for per-FPM hit attribution).
_FPM_FOR_DEP = {
    "fib": "router",
    "netfilter": "filter",
    "bridge": "bridge",
    "conntrack": "ipvs",
}

# Frame offsets (eth + option-less IPv4, guaranteed by extract_flow_key)
_TTL_OFF = 22
_CSUM_OFF = 24
_DST_OFF = 30
_DPORT_OFF = 36


class CachedActions:
    """The value-relative rewrite a fast-path run applied to a frame.

    Mirrors the FPM templates' write set exactly: DNAT (absolute dst ip +
    dst port stores, one RFC 1624 checksum fold), TTL decrement (one more
    fold), and absolute MAC stores. Anything else fails derivation.
    """

    __slots__ = ("eth_dst", "eth_src", "ttl_dec", "dnat_dst", "dnat_dport")

    def __init__(
        self,
        eth_dst: Optional[bytes] = None,
        eth_src: Optional[bytes] = None,
        ttl_dec: bool = False,
        dnat_dst: Optional[bytes] = None,
        dnat_dport: Optional[bytes] = None,
    ) -> None:
        self.eth_dst = eth_dst
        self.eth_src = eth_src
        self.ttl_dec = ttl_dec
        self.dnat_dst = dnat_dst
        self.dnat_dport = dnat_dport

    @property
    def is_noop(self) -> bool:
        return not (self.eth_dst or self.eth_src or self.ttl_dec or self.dnat_dst or self.dnat_dport)

    def apply(self, frame: bytes) -> Optional[bytes]:
        """Replay onto ``frame``; None when a guard forces the full run."""
        if self.ttl_dec and frame[_TTL_OFF] <= 1:
            return None  # the router FPM punts expiring TTLs to the slow path
        if self.is_noop:
            return frame
        buf = bytearray(frame)
        if self.dnat_dst is not None or self.dnat_dport is not None:
            if self.dnat_dst is not None:
                buf[_DST_OFF:_DST_OFF + 4] = self.dnat_dst
            if self.dnat_dport is not None:
                buf[_DPORT_OFF:_DPORT_OFF + 2] = self.dnat_dport
            _csum_fold(buf)
        if self.ttl_dec:
            buf[_TTL_OFF] -= 1
            _csum_fold(buf)
        if self.eth_dst is not None:
            buf[0:6] = self.eth_dst
        if self.eth_src is not None:
            buf[6:12] = self.eth_src
        return bytes(buf)


def _csum_fold(buf: bytearray) -> None:
    """The templates' incremental checksum update: csum += 0x100, fold once."""
    csum = ((buf[_CSUM_OFF] << 8) | buf[_CSUM_OFF + 1]) + 0x100
    csum = (csum & 0xFFFF) + (csum >> 16)
    buf[_CSUM_OFF] = (csum >> 8) & 0xFF
    buf[_CSUM_OFF + 1] = csum & 0xFF


class FlowEntry:
    """One cached flow: verdict + actions + the state it depends on."""

    __slots__ = (
        "key", "verdict", "redirect_ifindex", "actions", "deps", "expires_ns",
        "eth_match", "rules", "ct_entries", "fpms", "full_ns", "insns", "hits",
        "epoch",
    )

    def __init__(
        self,
        key: FlowKey,
        verdict: int,
        redirect_ifindex: Optional[int],
        actions: Optional[CachedActions],
        deps: Dict[str, int],
        expires_ns: Optional[int],
        eth_match: Optional[bytes],
        rules: Tuple,
        ct_entries: Tuple,
        fpms: Tuple[str, ...],
        full_ns: float,
        insns: int,
        epoch: int = 0,
    ) -> None:
        self.key = key
        self.verdict = verdict
        self.redirect_ifindex = redirect_ifindex
        self.actions = actions  # None marks an uncacheable flow
        self.deps = deps
        self.expires_ns = expires_ns
        self.eth_match = eth_match
        self.rules = rules
        self.ct_entries = ct_entries
        self.fpms = fpms
        self.full_ns = full_ns
        self.insns = insns
        self.epoch = epoch
        self.hits = 0

    @property
    def uncacheable(self) -> bool:
        return self.actions is None


class FlowCacheStats:
    """Per-hook / per-FPM perf counters for the cache."""

    def __init__(self) -> None:
        self.hits: Counter = Counter()       # hook -> cache hits
        self.misses: Counter = Counter()     # hook -> misses (full run + record attempt)
        self.bypasses: Counter = Counter()   # hook -> unkeyable/guarded/uncacheable
        self.records: Counter = Counter()    # hook -> entries recorded
        self.fpm_hits: Counter = Counter()   # fpm name -> FPM runs avoided
        self.invalidations: Counter = Counter()  # reason ("gen:fib", "expired") -> count
        self.evictions = 0
        self.flushes = 0
        self.flushed_entries = 0
        self.insns_avoided = 0
        self.ns_saved = 0.0

    def reset(self) -> None:
        self.__init__()

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "bypasses": dict(self.bypasses),
            "records": dict(self.records),
            "fpm_hits": dict(self.fpm_hits),
            "invalidations": dict(self.invalidations),
            "evictions": self.evictions,
            "flushes": self.flushes,
            "flushed_entries": self.flushed_entries,
            "insns_avoided": self.insns_avoided,
            "ns_saved": self.ns_saved,
        }

    def hit_rate(self, hook: Optional[str] = None) -> float:
        hits = self.hits[hook] if hook else sum(self.hits.values())
        misses = self.misses[hook] if hook else sum(self.misses.values())
        total = hits + misses
        return hits / total if total else 0.0


class FlowCache:
    """Per-kernel flow cache over the XDP and TC-ingress hook points."""

    def __init__(self, kernel, capacity: int = DEFAULT_CAPACITY) -> None:
        self.kernel = kernel
        self.capacity = capacity
        self.enabled = False
        self.stats = FlowCacheStats()
        # One shard per data-plane CPU, each (hook, ifindex, FlowKey) ->
        # FlowEntry in LRU order (oldest first). RPS steering pins a flow to
        # one CPU, so its entry only ever lives in (and is only looked up
        # from) that CPU's shard — no cross-CPU sharing on the fast path.
        # The global ``capacity`` budget is split evenly across shards.
        self.num_shards = max(1, getattr(kernel, "num_cores", 1))
        self._shards: List["OrderedDict[Tuple[str, int, FlowKey], FlowEntry]"] = [
            OrderedDict() for _ in range(self.num_shards)
        ]
        # (hook, ifindex) -> partition epoch; bumped by every flush touching
        # the partition. Entries from older epochs never serve. Epochs are
        # global across shards: a withdraw must silence every CPU at once.
        self._epochs: Counter = Counter()

    def _shard(self) -> "OrderedDict[Tuple[str, int, FlowKey], FlowEntry]":
        """The executing CPU's shard (control-plane context uses CPU 0's)."""
        cpu = self.kernel.cpus.current_cpu
        return self._shards[0 if cpu is None else cpu % self.num_shards]

    @property
    def shard_capacity(self) -> int:
        return max(1, self.capacity // self.num_shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # ------------------------------------------------------------ hook entry
    #
    # The XDP and TC-ingress attachments (repro.ebpf.hooks) call these for
    # every run made without an Env; the cache runs the program with its own
    # Env, so the attachment serves that run itself.

    def _trace(self, event: str, detail: str = "") -> None:
        obs = getattr(self.kernel, "observability", None)
        if obs is not None and obs.tracer.recording:
            obs.tracer.event(event, detail)

    def run_xdp(self, dev, frame: bytes) -> XdpResult:
        """Serve an XDP-hook frame from the cache, else run ``dev.xdp_prog``."""
        return self._serve("xdp", dev, frame, frame, dev.xdp_prog.run_xdp, XdpResult, XDP_REDIRECT)

    def run_tc(self, dev, skb) -> TcResult:
        """Serve a TC-ingress skb from the cache, else run ``dev.tc_ingress_prog``."""
        wire = getattr(skb, "wire_frame", None)
        frame = wire() if wire is not None else skb.pkt.to_bytes()
        return self._serve("tc", dev, frame, skb, dev.tc_ingress_prog.run_tc, TcResult, TC_ACT_REDIRECT)

    def _serve(self, hook: str, dev, frame: bytes, ctx, run, result_type, redirect_verdict: int):
        """One hook's consult: a hit replays the entry onto ``frame``; a miss
        runs ``run(kernel, dev, ctx, env)`` and records the flow; anything
        else runs the program unrecorded (a bypass)."""
        kernel = self.kernel
        key = extract_flow_key(frame, dev.ifindex)
        if key is not None:
            full_key = (hook, dev.ifindex, key)
            shard = self._shard()
            entry = shard.get(full_key)
            if entry is not None:
                if entry.epoch != self._epochs[(hook, dev.ifindex)]:
                    reason = "epoch"
                else:
                    reason = self._staleness(entry)
                if reason is not None:
                    del shard[full_key]
                    self.stats.invalidations[reason] += 1
                    entry = None
            # The 5-tuple alone cannot distinguish a well-formed packet from
            # one with, say, a truncated TCP header — which the full pipeline
            # treats differently (bpf_ipt_lookup punts, the slow path drops).
            # Only frames that parse cleanly may consult or seed the cache.
            if _parses(frame):
                if entry is None:
                    self.stats.misses[hook] += 1
                    self._trace("flow_cache", "miss")
                    env = Env(kernel, redirect_verdict=redirect_verdict)
                    t0 = kernel.clock.now_ns
                    result = run(kernel, dev, ctx, env)
                    self._record(shard, full_key, frame, result, env, kernel.clock.now_ns - t0)
                    return result
                replayed = self._replay(shard, full_key, entry, frame)
                if replayed is not None:
                    self._trace("flow_cache", f"hit fpms={','.join(entry.fpms) or '-'}")
                    return result_type(entry.verdict, replayed, entry.redirect_ifindex)
        # unkeyable or unparseable frame, uncacheable flow, L2 or TTL guard
        self.stats.bypasses[hook] += 1
        self._trace("flow_cache", "bypass")
        return run(kernel, dev, ctx, Env(kernel, redirect_verdict=redirect_verdict))

    # ------------------------------------------------------------ lifecycle

    def flush(self, hook: Optional[str] = None, ifindex: Optional[int] = None) -> int:
        """Drop entries matching (hook, ifindex); None matches everything."""
        doomed = []
        for shard in self._shards:
            shard_doomed = [
                k for k in shard
                if (hook is None or k[0] == hook) and (ifindex is None or k[1] == ifindex)
            ]
            for k in shard_doomed:
                del shard[k]
            doomed.extend(shard_doomed)
        self._bump_epochs(hook, ifindex, doomed)
        self.stats.flushes += 1
        self.stats.flushed_entries += len(doomed)
        return len(doomed)

    def _bump_epochs(self, hook: Optional[str], ifindex: Optional[int], doomed) -> None:
        partitions = {(k[0], k[1]) for k in doomed}
        if hook is not None and ifindex is not None:
            partitions.add((hook, ifindex))  # bump even when currently empty
        else:
            partitions.update(
                p for p in self._epochs
                if (hook is None or p[0] == hook) and (ifindex is None or p[1] == ifindex)
            )
        for p in partitions:
            self._epochs[p] += 1

    def drop_shard(self, cpu: int, reason: str = "cpu_offline") -> int:
        """Discard one CPU's shard (hotplug offline).

        After the CPU goes offline RPS never steers to it again, so its
        entries could only go stale — and when the CPU comes *back*, flows
        that re-steer there must re-record rather than find pre-offline
        verdicts. Cache entries are pure derived state, so dropping them is
        always safe (the next packet takes the full run). Returns entries
        dropped.
        """
        shard = self._shards[cpu % self.num_shards]
        dropped = len(shard)
        shard.clear()
        if dropped:
            self.stats.invalidations[reason] += dropped
        return dropped

    def epoch(self, hook: str, ifindex: int) -> int:
        """The current epoch of a (hook, ifindex) partition."""
        return self._epochs[(hook, ifindex)]

    def entries(self) -> List[FlowEntry]:
        return [entry for shard in self._shards for entry in shard.values()]

    # ------------------------------------------------------------- internals

    def _replay(self, shard, full_key, entry: FlowEntry, frame: bytes) -> Optional[bytes]:
        """A live entry's actions applied to ``frame`` (counted as a hit), or
        None when the flow must take the full run."""
        if entry.uncacheable:
            return None
        if entry.eth_match is not None and frame[0:12] != entry.eth_match:
            # L2-sensitive entry (the program consulted the FDB) seeing new
            # MACs: not the same megaflow; take the full run.
            return None
        replayed = entry.actions.apply(frame)
        if replayed is None:
            return None  # TTL guard
        self.kernel.costs_charge("flow_cache_lookup")
        shard.move_to_end(full_key)
        entry.hits += 1
        self.stats.hits[full_key[0]] += 1
        self.stats.fpm_hits.update(entry.fpms)
        self.stats.insns_avoided += entry.insns
        self.stats.ns_saved += max(0.0, entry.full_ns - self.kernel.costs.flow_cache_lookup)
        # Mirror the helper side effects the skipped run would have had.
        for rule in entry.rules:
            rule.packets += 1
        for ct in entry.ct_entries:
            ct.packets += 1
        return replayed

    def _staleness(self, entry: FlowEntry) -> Optional[str]:
        """Why the entry is stale ("gen:<table>" / "expired"), or None."""
        if entry.expires_ns is not None and self.kernel.clock.now_ns >= entry.expires_ns:
            return "expired"
        for name, gen in entry.deps.items():
            if self._generation(name) != gen:
                return f"gen:{name}"
        return None

    def _generation(self, name: str) -> int:
        kernel = self.kernel
        if name == "fib":
            return kernel.fib.gen
        if name == "neighbor":
            return kernel.neighbors.gen
        if name == "netfilter":
            return kernel.netfilter.gen
        if name == "conntrack":
            return kernel.conntrack.gen
        if name == "ipset":
            return kernel.ipsets.gen
        if name == "devices":
            return kernel.devices.gen
        if name == "bridge":
            from repro.kernel.interfaces import BridgeDevice

            return sum(
                d.bridge.gen for d in kernel.devices.all() if isinstance(d, BridgeDevice)
            )
        return 0  # unknown dependency: never invalidates (helpers control names)

    def _record(self, shard, full_key, in_frame: bytes, result, env, full_ns: float) -> None:
        hook, ifindex, key = full_key
        verdict, out_frame = result.verdict, result.frame
        if env.aborted or (hook == "xdp" and verdict == XDP_ABORTED):
            return  # never cache an aborted run's verdict
        actions: Optional[CachedActions]
        if env.uncacheable:
            actions = None  # marker entry: this flow always takes the full run
        else:
            actions = _derive_actions(in_frame, out_frame)
            if actions is not None:
                replayed = actions.apply(in_frame)
                if replayed != out_frame:
                    actions = None  # derivation failed verification
        deps = {name: self._generation(name) for name in env.deps}
        eth_match = in_frame[0:12] if "bridge" in env.deps else None
        fpms = tuple(sorted({_FPM_FOR_DEP[d] for d in env.deps if d in _FPM_FOR_DEP}))
        entry = FlowEntry(
            key=key,
            verdict=verdict,
            redirect_ifindex=result.redirect_ifindex,
            actions=actions,
            deps=deps,
            expires_ns=env.expires_ns,
            eth_match=eth_match,
            rules=tuple(env.matched_rules),
            ct_entries=tuple(env.ct_entries),
            fpms=fpms,
            full_ns=full_ns,
            insns=env.insns_executed,
            epoch=self._epochs[(hook, ifindex)],
        )
        if full_key not in shard and len(shard) >= self.shard_capacity:
            shard.popitem(last=False)  # evict this shard's LRU entry
            self.stats.evictions += 1
        shard[full_key] = entry
        shard.move_to_end(full_key)
        self.kernel.costs_charge("flow_cache_insert")
        self.stats.records[hook] += 1


def _parses(frame: bytes) -> bool:
    try:
        Packet.from_bytes(frame)
    except PacketError:
        return False
    return True


def _derive_actions(in_frame: bytes, out_frame: bytes) -> Optional[CachedActions]:
    """Diff input/output frames into the template action model, or None."""
    if len(in_frame) != len(out_frame):
        return None
    actions = CachedActions()
    if out_frame[0:6] != in_frame[0:6]:
        actions.eth_dst = out_frame[0:6]
    if out_frame[6:12] != in_frame[6:12]:
        actions.eth_src = out_frame[6:12]
    if out_frame[_TTL_OFF] != in_frame[_TTL_OFF]:
        if out_frame[_TTL_OFF] != in_frame[_TTL_OFF] - 1:
            return None  # only a single decrement is expressible
        actions.ttl_dec = True
    if out_frame[_DST_OFF:_DST_OFF + 4] != in_frame[_DST_OFF:_DST_OFF + 4]:
        actions.dnat_dst = out_frame[_DST_OFF:_DST_OFF + 4]
    if out_frame[_DPORT_OFF:_DPORT_OFF + 2] != in_frame[_DPORT_OFF:_DPORT_OFF + 2]:
        actions.dnat_dport = out_frame[_DPORT_OFF:_DPORT_OFF + 2]
    # Any other differing byte (outside the checksum field, which the
    # verification replay reproduces) is beyond the model.
    allowed = set(range(0, 12)) | {_TTL_OFF, _CSUM_OFF, _CSUM_OFF + 1}
    allowed |= set(range(_DST_OFF, _DST_OFF + 4)) | {_DPORT_OFF, _DPORT_OFF + 1}
    for i in range(len(in_frame)):
        if in_frame[i] != out_frame[i] and i not in allowed:
            return None
    return actions
