"""Netfilter: iptables-style tables, chains, and first-match rules.

Only the ``filter`` table semantics the paper exercises are modelled:
built-in chains INPUT / FORWARD / OUTPUT with a default policy, rules with
the classic 5-tuple-ish matches (src/dst prefix, protocol, ports, in/out
interface) plus ipset matches. The simulated cost of rule evaluation stays
linear, charged per rule up to the first match: the paper's Fig 8 measures
exactly this cost, and LinuxFP's ``bpf_ipt_lookup`` helper inherits it
(while ipset aggregation avoids it).

One first-match scan, :meth:`Netfilter.scan`, serves both the helper and
the slow path's :meth:`Netfilter.evaluate`. The host does not walk the
rules: the chain's :class:`~repro.kernel.firstmatch.FirstMatchIndex`
yields the candidates whose src, dst and protocol match, and the scan
visits only those. It returns how many rules a linear walk would have
visited, and its caller charges that in one step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.kernel.firstmatch import FirstMatchIndex, set_bits
from repro.netsim.addresses import IPv4Prefix
from repro.netsim.packet import IPv4, TCP, UDP
from repro.netsim.skbuff import SKBuff

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.ipset import IpsetRegistry

# hook names (filter table)
INPUT = "INPUT"
FORWARD = "FORWARD"
OUTPUT = "OUTPUT"
BUILTIN_CHAINS = (INPUT, FORWARD, OUTPUT)

ACCEPT = "ACCEPT"
DROP = "DROP"
RETURN = "RETURN"

# The callers of Netfilter.scan, as the scan counters label them.
HELPER = "helper"  # bpf_ipt_lookup, on the fast path
SLOW = "slow"  # Netfilter.evaluate, on the slow path


class NetfilterError(ValueError):
    """Raised for invalid rule/chain operations."""


@dataclass
class Rule:
    """One iptables rule. ``None`` fields are wildcards."""

    target: str
    src: Optional[IPv4Prefix] = None
    dst: Optional[IPv4Prefix] = None
    proto: Optional[int] = None
    sport: Optional[int] = None
    dport: Optional[int] = None
    in_iface: Optional[str] = None
    out_iface: Optional[str] = None
    match_set: Optional[str] = None  # ipset name
    set_dir: str = "src"  # which address the set matches
    ct_state: Optional[str] = None  # "NEW" | "ESTABLISHED" (stateful match)
    handle: int = 0
    packets: int = 0

    def __post_init__(self) -> None:
        if self.target not in (ACCEPT, DROP, RETURN):
            raise NetfilterError(f"unsupported target {self.target!r}")
        if self.set_dir not in ("src", "dst"):
            raise NetfilterError(f"bad set direction {self.set_dir!r}")
        if self.ct_state is not None and self.ct_state not in ("NEW", "ESTABLISHED"):
            raise NetfilterError(f"unsupported conntrack state {self.ct_state!r}")

    def matches(
        self,
        ip: IPv4,
        skb: SKBuff,
        in_name: Optional[str],
        out_name: Optional[str],
        ipsets: "IpsetRegistry",
    ) -> bool:
        if self.src is not None and not self.src.contains(ip.src):
            return False
        if self.dst is not None and not self.dst.contains(ip.dst):
            return False
        if self.proto is not None and ip.proto != self.proto:
            return False
        if self.sport is not None or self.dport is not None:
            l4 = skb.pkt.l4
            if not isinstance(l4, (TCP, UDP)):
                return False
            if self.sport is not None and l4.sport != self.sport:
                return False
            if self.dport is not None and l4.dport != self.dport:
                return False
        if self.in_iface is not None and in_name != self.in_iface:
            return False
        if self.out_iface is not None and out_name != self.out_iface:
            return False
        if self.match_set is not None:
            ipset = ipsets.get(self.match_set)
            if ipset is None:
                return False
            addr = ip.src if self.set_dir == "src" else ip.dst
            if not ipset.test(addr):
                return False
        if self.ct_state is not None:
            entry = skb.conntrack
            state = getattr(entry, "state", None)
            if self.ct_state == "ESTABLISHED":
                if state != "ESTABLISHED":
                    return False
            else:  # NEW: untracked or explicitly new connections
                if state not in (None, "NEW"):
                    return False
        return True


@dataclass
class Chain:
    """One chain. Its rules and policy change only through the
    :class:`Netfilter` mutators, which bump ``Netfilter.gen``: the compiled
    form the scan reads is rebuilt only when ``gen`` moves."""

    name: str
    policy: str = ACCEPT
    rules: List[Rule] = field(default_factory=list)


@dataclass(frozen=True)
class CompiledChain:
    """A chain's rules as :meth:`Netfilter.scan` reads them, valid for one
    ``Netfilter.gen``.

    ``index`` holds the rules' src and dst prefixes and protocol. Bit i of
    ``full`` marks rule i as one that also matches ports, interfaces, an
    ipset or conntrack state, which :meth:`Rule.matches` decides. Ipset
    membership is read live, so ``ipset add``/``del`` need no recompile.
    """

    gen: int
    rules: Tuple[Rule, ...]
    index: FirstMatchIndex
    full: int
    # how many rules precede the first ct_state rule: the helper's scan range
    stateless: int
    # ipsets_before[k]: how many of the first k rules match an ipset
    ipsets_before: Tuple[int, ...]

    @property
    def stateful(self) -> bool:
        """True when some rule matches conntrack state."""
        return self.stateless < len(self.rules)

    @classmethod
    def build(cls, gen: int, rules: List[Rule]) -> "CompiledChain":
        full = 0
        ipsets_before = [0]
        stateless = len(rules)
        for i, rule in enumerate(rules):
            if (
                rule.sport is not None
                or rule.dport is not None
                or rule.in_iface is not None
                or rule.out_iface is not None
                or rule.match_set is not None
                or rule.ct_state is not None
            ):
                full |= 1 << i
            ipsets_before.append(ipsets_before[-1] + (rule.match_set is not None))
            if stateless == len(rules) and rule.ct_state is not None:
                stateless = i
        index = FirstMatchIndex((rule.src, rule.dst, rule.proto) for rule in rules)
        return cls(gen, tuple(rules), index, full, stateless, tuple(ipsets_before))


class Netfilter:
    """The filter table for one kernel.

    Rules and policies change only through the mutators below
    (``append_rule``, ``insert_rule``, ``delete_rule``, ``flush``,
    ``set_policy``); each bumps ``gen``, which invalidates the compiled
    chains.
    """

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        self.chains: Dict[str, Chain] = {name: Chain(name) for name in BUILTIN_CHAINS}
        self._next_handle = 1
        # Generation tag for the compiled chains: bumped on every ruleset
        # mutation.
        self.gen = 0
        # Per-chain verdict counters (observability): chain -> verdict -> n.
        from collections import Counter

        self.verdicts: Dict[str, Counter] = {name: Counter() for name in BUILTIN_CHAINS}
        # Scan counters (observability): compiles per chain; scans, rules
        # scanned and rules the index passed to a match decision (tested),
        # per chain and caller path (HELPER or SLOW); and per chain, the
        # helper lookups that parsed their frame in full.
        self.compiles: Counter = Counter()
        self.scans: Dict[str, Counter] = {name: Counter() for name in BUILTIN_CHAINS}
        self.rules_scanned: Dict[str, Counter] = {name: Counter() for name in BUILTIN_CHAINS}
        self.rules_tested: Dict[str, Counter] = {name: Counter() for name in BUILTIN_CHAINS}
        self.helper_parses: Counter = Counter()
        self._compiled: Dict[str, CompiledChain] = {}

    def chain(self, name: str) -> Chain:
        try:
            return self.chains[name]
        except KeyError:
            raise NetfilterError(f"no chain {name!r}") from None

    def set_policy(self, chain_name: str, policy: str) -> None:
        if policy not in (ACCEPT, DROP):
            raise NetfilterError(f"bad policy {policy!r}")
        self.chain(chain_name).policy = policy
        self.gen += 1

    def append_rule(self, chain_name: str, rule: Rule) -> Rule:
        rule.handle = self._next_handle
        self._next_handle += 1
        self.chain(chain_name).rules.append(rule)
        self.gen += 1
        return rule

    def insert_rule(self, chain_name: str, rule: Rule, position: int = 0) -> Rule:
        rule.handle = self._next_handle
        self._next_handle += 1
        self.chain(chain_name).rules.insert(position, rule)
        self.gen += 1
        return rule

    def delete_rule(self, chain_name: str, handle: int) -> Rule:
        chain = self.chain(chain_name)
        for i, rule in enumerate(chain.rules):
            if rule.handle == handle:
                self.gen += 1
                return chain.rules.pop(i)
        raise NetfilterError(f"no rule with handle {handle} in {chain_name}")

    def flush(self, chain_name: Optional[str] = None) -> None:
        """Empty one chain, or every chain when ``chain_name`` is None."""
        chains = self.chains.values() if chain_name is None else (self.chain(chain_name),)
        for chain in chains:
            if chain.rules:
                self.gen += 1
                chain.rules.clear()

    def rule_count(self, chain_name: Optional[str] = None) -> int:
        if chain_name is not None:
            return len(self.chain(chain_name).rules)
        return sum(len(c.rules) for c in self.chains.values())

    def has_stateful_rules(self, chain_name: str) -> bool:
        """True when the chain needs conntrack state to evaluate."""
        return self._compiled_chain(chain_name).stateful

    def _compiled_chain(self, chain_name: str) -> CompiledChain:
        """The chain's compiled form, rebuilt on first use after ``gen``
        moved (never inside the mutators: set-up appends rules one by one)."""
        compiled = self._compiled.get(chain_name)
        if compiled is None or compiled.gen != self.gen:
            compiled = CompiledChain.build(self.gen, self.chain(chain_name).rules)
            self._compiled[chain_name] = compiled
            self.compiles[chain_name] += 1
        return compiled

    def scan(
        self,
        chain_name: str,
        path: str,
        fields: Tuple[int, int, int],
        skb_of: Callable[[], SKBuff],
        in_name: Optional[str],
        out_name: Optional[str],
    ) -> Tuple[Optional[Rule], int, int]:
        """The first-match scan; returns ``(rule, scanned, ipset_scanned)``.

        ``fields`` is the packet's ``(src, dst, proto)`` as integers, and
        ``skb_of()`` returns its :class:`SKBuff`: the scan calls it at most
        once, and only for a candidate that :meth:`Rule.matches` decides.

        ``rule`` is the first matching rule (its packet counter is bumped),
        or None when no rule matches. On the ``HELPER`` path the scan stops
        at the first ``ct_state`` rule, whose conntrack context the helper
        does not carry, and returns that rule unmatched: it counts as
        scanned, its ipset does not. ``scanned`` counts the rules a linear
        walk visits, the match included, and ``ipset_scanned`` those of
        them matching an ipset; the caller charges both in one step, which
        the exact integer clock sums the same as per-rule charges.
        """
        compiled = self._compiled_chain(chain_name)
        src, dst, proto = fields
        candidates = compiled.index.candidates(src, dst, proto)
        if path == HELPER:
            scanned = compiled.stateless
            candidates &= (1 << scanned) - 1
        else:
            scanned = len(compiled.rules)
        ipsets = self._kernel.ipsets
        rule = None
        skb = None
        tested = 0
        for i in set_bits(candidates):
            tested += 1
            candidate = compiled.rules[i]
            if compiled.full >> i & 1:
                if skb is None:
                    skb = skb_of()
                if not candidate.matches(skb.pkt.ip, skb, in_name, out_name, ipsets):
                    continue
            rule = candidate
            rule.packets += 1
            scanned = i + 1
            break
        ipset_scanned = compiled.ipsets_before[scanned]
        if rule is None and scanned < len(compiled.rules):
            rule = compiled.rules[scanned]  # the helper's stop
            scanned += 1
        self.scans[chain_name][path] += 1
        self.rules_scanned[chain_name][path] += scanned
        self.rules_tested[chain_name][path] += tested
        return rule, scanned, ipset_scanned

    def evaluate(
        self,
        chain_name: str,
        skb: SKBuff,
        in_name: Optional[str] = None,
        out_name: Optional[str] = None,
    ) -> Tuple[str, int]:
        """Traverse a chain; returns (verdict, rules_scanned).

        Charges the per-hook overhead plus the per-rule linear-scan cost to
        the simulated clock, which is what makes Fig 8's rule-count scaling
        measurable. A matching ``RETURN`` rule ends the traversal at the
        chain's policy.
        """
        kernel = self._kernel
        kernel.costs_charge("nf_hook_overhead")
        chain = self.chain(chain_name)
        ip = skb.pkt.ip
        if ip is None:
            self.verdicts[chain_name][ACCEPT] += 1
            return ACCEPT, 0
        if not self._compiled_chain(chain_name).rules:
            # an empty chain gives its policy. The counters move as a scan
            # moves them: it adds 0 to the two rule counts, creating their keys
            self.scans[chain_name][SLOW] += 1
            self.rules_scanned[chain_name].setdefault(SLOW, 0)
            self.rules_tested[chain_name].setdefault(SLOW, 0)
            self.verdicts[chain_name][chain.policy] += 1
            return chain.policy, 0
        rule, scanned, ipset_scanned = self.scan(
            chain_name, SLOW, (ip.src.value, ip.dst.value, ip.proto), lambda: skb, in_name, out_name
        )
        if scanned:
            costs = kernel.costs
            kernel.charge_ns(scanned * costs.nf_rule_cost + ipset_scanned * costs.ipset_lookup)
        verdict = chain.policy if rule is None or rule.target == RETURN else rule.target
        self.verdicts[chain_name][verdict] += 1
        return verdict, scanned
