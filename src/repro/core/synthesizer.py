"""The Fast Path Synthesizer (paper §IV-B3, §V).

Input: the processing graph. Output: one compiled, verified
:class:`~repro.ebpf.program.Program` per interface, built by rendering the
FPM template library into C and compiling it with minic. The Capability
Manager prunes FPMs the kernel cannot host; if an interface's graph prunes
to nothing, no program is synthesized (Linux handles everything, which is
always correct).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.capability import CapabilityManager
from repro.core.fpm.library import render_fast_path
from repro.core.graph import InterfaceGraph, ProcessingGraph
from repro.ebpf.analysis.lint import lint_program
from repro.ebpf.jit import JitReport, compile_program
from repro.ebpf.jit.engine import jit_env_default
from repro.ebpf.maps import BpfMap, HashMap, LruHashMap, PercpuLruHashMap
from repro.ebpf.minic import compile_c
from repro.ebpf.program import Program
from repro.ebpf.verifier import verify

#: Placeholder with nothing behind it: bench/trace.py wraps this name on traced runs.
optimize_program = None


@dataclass
class SynthesizedPath:
    ifname: str
    program: Program
    source: str
    pruned_nfs: List[str]
    #: lint diagnostics for the verified program (dead code, redundant
    #: checks, unused maps). Library templates synthesize clean; a finding
    #: here means a woven-in custom FPM carries code it does not need.
    lint_findings: List[str] = field(default_factory=list)
    #: (custom, clones) for unpinned customs: the maps this synthesis
    #: compiled against. The Deployer rebinds ``custom.maps`` to the clones
    #: once this path is serving, so userspace reads live state.
    custom_rebinds: List[tuple] = field(default_factory=list)
    #: What the bytecode→Python JIT said about this program (None when the
    #: JIT was not enabled). ``status == "fallback"`` means the program will
    #: run under the interpreter — fail-closed, the interface still deploys.
    jit_report: Optional[JitReport] = None

    def rebind_custom_maps(self) -> None:
        for custom, clones in self.custom_rebinds:
            custom.maps = dict(clones)


class Synthesizer:
    #: Placeholder with nothing behind it: bench/workloads.py reports it in Workload.config.
    optimize = False

    def __init__(
        self,
        capabilities: Optional[CapabilityManager] = None,
        customs: Optional[list] = None,
        num_cpus: int = 1,
        jit: Optional[bool] = None,
    ) -> None:
        self.capabilities = capabilities or CapabilityManager.linuxfp()
        self.customs = list(customs or [])  # CustomFpm modules to weave in
        self.num_cpus = max(1, num_cpus)  # target kernel's data-plane CPUs
        if jit is None:
            jit = jit_env_default()
        #: Opt-in bytecode→Python JIT: compile-checked here so deploys
        #: surface a ``jit-fallback`` incident immediately instead of on
        #: the first packet (the engine itself also fails closed).
        self.jit = jit

    def _prepare_custom_maps(self) -> tuple:
        """The map set a synthesis compiles against.

        Flow-keyed maps are upgraded to LRU semantics first (in place on the
        custom, so the choice is stable across redeploys); on a multi-core
        kernel they are upgraded further to the *per-CPU* LRU flavour —
        per-flow counters are written on every packet, and RPS steering
        already confines each flow to one CPU, so per-CPU slots remove the
        only shared-map write on the fast path (the cross-CPU contention
        charge). Pinned customs contribute their own map objects — every
        synthesized program shares them. Unpinned customs get fresh clones
        per synthesis; the returned rebind list lets the Deployer point the
        custom at the clones that actually went live (after migrating the
        old program's state in).
        """
        custom_maps: Dict[str, BpfMap] = {}
        rebinds: List[tuple] = []
        for custom in self.customs:
            for name in getattr(custom, "flow_keyed", ()):
                m = custom.maps.get(name)
                if isinstance(m, HashMap) and not isinstance(m, LruHashMap):
                    m = custom.maps[name] = LruHashMap.from_hash(m)
                if (
                    self.num_cpus > 1
                    and isinstance(m, LruHashMap)
                    and not isinstance(m, PercpuLruHashMap)
                ):
                    custom.maps[name] = PercpuLruHashMap.from_lru(m, self.num_cpus)
            if getattr(custom, "pin_maps", True):
                custom_maps.update(custom.maps)
            else:
                clones = {name: m.clone_empty() for name, m in custom.maps.items()}
                custom_maps.update(clones)
                rebinds.append((custom, clones))
        return custom_maps, rebinds

    def synthesize_interface(self, iface_graph: InterfaceGraph, hook: str) -> Optional[SynthesizedPath]:
        nodes: Dict[str, dict] = {}
        pruned: List[str] = []
        for node in iface_graph.nodes:
            if self.capabilities.supports(node.nf):
                nodes[node.nf] = {"conf": node.conf, "next_nf": node.next_nf}
            else:
                pruned.append(node.nf)
        # Chaining integrity: if the bridge FPM was pruned, everything behind
        # it on the L2 path is unreachable from the fast path; if a filter
        # was pruned but routing kept, forwarding without filtering would be
        # INCORRECT — prune the router too (slow path keeps semantics).
        if pruned:
            if "bridge" in pruned:
                nodes.clear()
            if "filter" in pruned:
                nodes.pop("router", None)
                nodes.pop("ipvs", None)
        if not nodes and not self.customs:
            return None
        source = render_fast_path(iface_graph.ifname, hook, nodes, customs=self.customs)
        custom_maps, rebinds = self._prepare_custom_maps()
        program = compile_c(
            source, name=f"linuxfp_{iface_graph.ifname}_{hook}", hook=hook, maps=custom_maps
        )
        verify(program)
        jit_report = None
        if self.jit:
            __, jit_report = compile_program(program)
        return SynthesizedPath(
            ifname=iface_graph.ifname,
            program=program,
            source=source,
            pruned_nfs=pruned,
            lint_findings=[str(f) for f in lint_program(program)],
            custom_rebinds=rebinds,
            jit_report=jit_report,
        )

    def synthesize(self, graph: ProcessingGraph, hook: str) -> Dict[str, SynthesizedPath]:
        out: Dict[str, SynthesizedPath] = {}
        for ifname, iface_graph in sorted(graph.interfaces.items()):
            if iface_graph.empty and not self.customs:
                continue  # nothing configured and no monitoring: pure Linux
            path = self.synthesize_interface(iface_graph, hook)
            if path is not None:
                out[ifname] = path
        return out
