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
from repro.ebpf.minic import compile_c
from repro.ebpf.program import Program
from repro.ebpf.verifier import verify

#: Placeholder with nothing behind it: bench/trace.py wraps this name on traced runs.
optimize_program = None
#: Placeholder with nothing behind it: bench/trace.py wraps this name on traced runs.
compile_program = None


@dataclass
class SynthesizedPath:
    ifname: str
    program: Program
    source: str
    pruned_nfs: List[str]
    #: lint diagnostics for the verified program (dead code, redundant
    #: checks, unused maps). Library templates synthesize clean.
    lint_findings: List[str] = field(default_factory=list)


class Synthesizer:
    #: Placeholder with nothing behind it: bench/workloads.py reports it in Workload.config.
    optimize = False

    def __init__(self, capabilities: Optional[CapabilityManager] = None) -> None:
        self.capabilities = capabilities or CapabilityManager.linuxfp()

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
        if not nodes:
            return None
        source = render_fast_path(iface_graph.ifname, hook, nodes)
        program = compile_c(source, name=f"linuxfp_{iface_graph.ifname}_{hook}", hook=hook)
        verify(program)
        return SynthesizedPath(
            ifname=iface_graph.ifname,
            program=program,
            source=source,
            pruned_nfs=pruned,
            lint_findings=[str(f) for f in lint_program(program)],
        )

    def synthesize(self, graph: ProcessingGraph, hook: str) -> Dict[str, SynthesizedPath]:
        out: Dict[str, SynthesizedPath] = {}
        for ifname, iface_graph in sorted(graph.interfaces.items()):
            if iface_graph.empty:
                continue  # nothing configured: pure Linux
            path = self.synthesize_interface(iface_graph, hook)
            if path is not None:
                out[ifname] = path
        return out
