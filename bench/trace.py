"""Layer-by-layer tracing from outside the program.

:meth:`Tracer.install` wraps the public functions of each module (the
layers below) before any topology is built, and records a span for every
call made while :attr:`Tracer.active` is set: name, layer, kernel, parent,
request id, and start/end on both the host clock (thread CPU ns) and the
simulated clock. Calls made on a kernel that is not a device under test
(source, sink, pods) are booked to the ``harness`` layer.

Aggregates cover every call. Full span records are kept for one request in
:data:`SAMPLE_EVERY` and written in Chrome trace-event format at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Layer name -> whether its spans can fail (a raised exception, an aborted
#: hook result, a refused deploy). Order is the report order.
LAYERS: Tuple[Tuple[str, bool], ...] = (
    ("nic", False),
    ("softirq", False),
    ("stack.rx", False),
    ("stack.slow", False),
    ("hooks.xdp", True),
    ("hooks.tc", True),
    ("exec", True),
    ("helpers.fib_lookup", False),
    ("helpers.ipt_lookup", False),
    ("helpers.fdb_lookup", False),
    ("helpers.conntrack_lookup", False),
    ("helpers.map_lookup", False),
    ("helpers.map_update", False),
    ("helpers.redirect", False),
    ("fib", False),
    ("netfilter", False),
    ("bridge", False),
    ("flowcache", False),
    ("observability", False),
    ("control.graph", False),
    ("control.render", False),
    ("control.compile", True),
    ("control.verify", True),
    ("control.lint", False),
    ("control.optimize", False),
    ("control.jit", False),
    ("control.deploy", True),
    ("control.netlink", False),
    ("harness", False),
)
#: helper registry name -> layer
HELPER_LAYERS = {
    "fib_lookup": "helpers.fib_lookup",
    "ipt_lookup": "helpers.ipt_lookup",
    "fdb_lookup": "helpers.fdb_lookup",
    "conntrack_lookup": "helpers.conntrack_lookup",
    "map_lookup": "helpers.map_lookup",
    "map_read": "helpers.map_lookup",
    "map_update": "helpers.map_update",
    "map_delete": "helpers.map_update",
    "redirect": "helpers.redirect",
    "redirect_map": "helpers.redirect",
}
#: names bound in ``repro.core.synthesizer`` -> layer
SYNTH_LAYERS = {
    "render_fast_path": "control.render",
    "compile_c": "control.compile",
    "verify": "control.verify",
    "lint_program": "control.lint",
    "optimize_program": "control.optimize",
    "compile_program": "control.jit",
}

#: Design claims the traced run asserts, so a change that moves a workload
#: off the layer it exists to stress (or silently stops a wrapper firing)
#: fails loudly.
MUST_FIRE = {
    "router-64B": ("nic", "softirq", "stack.rx", "hooks.xdp", "exec", "helpers.fib_lookup",
                   "helpers.redirect", "observability", "harness", "clock.calls", "memory.calls"),
    "gateway-mix": ("nic", "softirq", "stack.rx", "stack.slow", "hooks.xdp", "exec",
                    "helpers.fib_lookup", "helpers.ipt_lookup", "helpers.redirect", "fib",
                    "netfilter", "observability", "harness"),
    "k8s-pod-rr": ("nic", "softirq", "stack.rx", "stack.slow", "hooks.tc", "exec",
                   "helpers.fdb_lookup", "helpers.fib_lookup", "helpers.redirect", "fib",
                   "netfilter", "observability", "harness"),
    "control-churn": ("control.graph", "control.render", "control.compile", "control.verify",
                      "control.lint", "control.deploy", "control.netlink", "hooks.xdp",
                      "helpers.ipt_lookup", "fib", "netfilter"),
}
MUST_NOT_FIRE = {
    "router-64B": ("hooks.tc", "helpers.ipt_lookup", "stack.slow"),
    "gateway-mix": ("hooks.tc",),
    "k8s-pod-rr": ("hooks.xdp",),
}
#: Layers no workload reaches in the default configuration, reported but not
#: asserted: the flow cache, optimizer and JIT are off by default; the
#: conntrack and map helpers serve ipvs and custom FPMs only; the slow-path
#: bridge is idle once the TC bridge FPM has learned every pod (k8s-pod-rr
#: warm-up), because bpf_fdb_lookup then answers each frame.
NEVER_FIRE_OK = ("flowcache", "control.optimize", "control.jit", "helpers.conntrack_lookup",
                 "helpers.map_lookup", "helpers.map_update", "bridge")
#: (metric, low, high) ranges the traced run asserts
RANGES = {
    "router-64B": (("stack.slow_share", 0.0, 0.0),),
    "gateway-mix": (("stack.slow_share", 0.09, 0.11),),
}

#: full spans are kept for one request in this many
SAMPLE_EVERY = 64

_clock_ns = time.thread_time_ns


class _Agg:
    __slots__ = ("calls", "outer", "fails", "host_ns", "self_host_ns", "sim_ns", "self_sim_ns")

    def __init__(self) -> None:
        #: ``outer`` counts the calls entered from another layer
        self.calls = self.outer = self.fails = 0
        self.host_ns = self.self_host_ns = 0
        self.sim_ns = self.self_sim_ns = 0


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.active = False
        self.agg: Dict[Tuple[str, str], _Agg] = {}
        self.counts: Counter = Counter()
        self.spans: List[tuple] = []
        #: instructions executed and programs run (for exec.insns_per_run)
        self.insns = 0
        self.program_runs = 0
        self._stack: List[list] = []
        self._clock = None
        self._dut: frozenset = frozenset()
        self._owner: Dict[int, str] = {}
        self._request = -1
        self._sampled = False
        self._next_id = 0
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ topology
    def register(self, kernels: Dict[str, object], dut_names: Iterable[str], clock) -> None:
        """Name the kernels of the measured build. Objects that carry no
        kernel reference (NICs, FIBs, netfilter) are mapped to their owner."""
        self._dut = frozenset(dut_names)
        self._clock = clock
        self._owner = {}
        for name, kernel in kernels.items():
            self._owner[id(kernel.fib)] = name
            self._owner[id(kernel.netfilter)] = name
            for dev in kernel.devices.all():
                nic = getattr(dev, "nic", None)
                if nic is not None:
                    self._owner[id(nic)] = name

    def owner(self, obj) -> Optional[str]:
        return self._owner.get(id(obj))

    # ---------------------------------------------------------------- spans
    def _sim(self) -> int:
        return self._clock.now_ns if self._clock is not None else 0

    def enter(self, layer: str, name: str, kernel: Optional[str]) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        if kernel is None and parent is not None:
            kernel = parent[2]
        if kernel is not None and kernel not in self._dut:
            layer = "harness"
        self._next_id += 1
        frame = [layer, name, kernel, _clock_ns(), self._sim(), 0, 0, self._next_id,
                 parent[7] if parent is not None else 0]
        stack.append(frame)
        return frame

    def exit(self, frame: list, failed: bool = False) -> None:
        host1, sim1 = _clock_ns(), self._sim()
        self._stack.pop()
        layer, name, kernel, host0, sim0, child_host, child_sim, span_id, parent_id = frame
        host, sim = host1 - host0, sim1 - sim0
        key = (layer, name)
        agg = self.agg.get(key)
        if agg is None:
            agg = self.agg[key] = _Agg()
        agg.calls += 1
        agg.fails += failed
        if not self._stack or self._stack[-1][0] != layer:
            agg.outer += 1
        agg.host_ns += host
        agg.self_host_ns += host - child_host
        agg.sim_ns += sim
        agg.self_sim_ns += sim - child_sim
        if self._stack:
            parent = self._stack[-1]
            parent[5] += host
            parent[6] += sim
        if self._sampled:
            self.spans.append((name, layer, kernel, parent_id, self._request, span_id,
                               host0, host1, sim0, sim1))

    def parent_name(self) -> Optional[str]:
        return self._stack[-1][1] if self._stack else None

    def begin_request(self, i: int) -> list:
        self._request = i
        self._sampled = i % SAMPLE_EVERY == 0
        return self.enter("harness", "request", None)

    def end_request(self, frame: list) -> None:
        self.exit(frame)
        self._sampled = False

    # ---------------------------------------------------------- wrapping
    def _wrap(self, fn: Callable, layer: str, name: str,
              kernel_of: Optional[Callable] = None,
              failed: Optional[Callable] = None,
              post: Optional[Callable] = None,
              skip_under: Optional[str] = None) -> Callable:
        """``fn`` recording a span per call; none when the caller's span is
        ``skip_under``, so a call already inside its own layer counts once."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (skip_under is not None and tracer.parent_name() == skip_under):
                return fn(*args, **kwargs)
            frame = tracer.enter(layer, name, kernel_of(args) if kernel_of is not None else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(frame, True)
                raise
            tracer.exit(frame, failed is not None and failed(result))
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _counter(self, fn: Callable, key: str, dut_only: bool) -> Callable:
        """A call counter without a span, for layers (the clock, VM memory)
        whose calls are too cheap to time: a span would cost more than the
        call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active and (not dut_only or args[0].hostname in tracer._dut):
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _method(self, cls, attr: str, layer: str, kernel_of=None, failed=None, post=None,
                skip_under=None) -> None:
        fn = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        self._patch(cls, attr, self._wrap(fn, layer, name, kernel_of, failed, post, skip_under))

    def install(self) -> None:
        """Wrap every layer's public functions. Call before building any
        topology: kernels bind some callbacks (the stage observer) and the
        JIT binds helpers when they are created."""
        from repro.core import synthesizer
        from repro.core.deployer import Deployer
        from repro.core.graph import TopologyManager
        from repro.ebpf import helpers
        from repro.ebpf.hooks import TcAttachment, XdpAttachment
        from repro.ebpf.jit.engine import JitEngine
        from repro.ebpf.memory import Region
        from repro.ebpf.vm import VM
        from repro.fastpath.flowcache import FlowCache
        from repro.kernel.bridge import Bridge
        from repro.kernel.fib import Fib
        from repro.kernel.kernel import Kernel
        from repro.kernel.netfilter import Netfilter
        from repro.kernel.softirq import SoftirqSet
        from repro.kernel.stack import Stack
        from repro.netsim.nic import NIC
        from repro.observability.monitor import Observability

        def own(args):
            return self.owner(args[0])

        def kernel_attr(args):  # self.kernel, or a helper's env.kernel
            return args[0].kernel.hostname

        def kernel_arg(args):
            return args[1].hostname

        def aborted(result):
            return bool(getattr(result, "aborted", False))

        for attr in ("receive_burst", "receive_from_wire", "rss_queue"):
            self._method(NIC, attr, "nic", own)
        for attr in ("rx_burst", "rx", "enqueue", "process_backlogs"):
            self._method(SoftirqSet, attr, "softirq", kernel_attr)
        for attr in ("receive_batch", "receive"):
            self._method(Stack, attr, "stack.rx", kernel_attr)
        for attr in ("receive_after_xdp", "netif_receive", "ip_rcv", "ip_forward",
                     "ip_finish_output", "local_deliver", "vxlan_rcv", "vxlan_encap_out"):
            self._method(Stack, attr, "stack.slow", kernel_attr)
        self._method(XdpAttachment, "run_xdp", "hooks.xdp", kernel_arg, aborted)
        self._method(XdpAttachment, "run_xdp_burst", "hooks.xdp", kernel_arg,
                     lambda results: any(aborted(r) for r in results))
        self._method(TcAttachment, "run_tc", "hooks.tc", kernel_arg, aborted)

        def after_execute(args, result):
            self.insns += result[1]
            self.program_runs += 1

        def after_vm(args, result):
            self.insns += args[0].insns_executed
            self.program_runs += 1

        # JitEngine.execute falls back to VM.run; that inner run is part of
        # the execute span, not a second program run
        self._method(JitEngine, "execute", "exec", kernel_attr, post=after_execute)
        self._method(VM, "run", "exec", kernel_attr, post=after_vm, skip_under="JitEngine.execute")

        for hid, (hname, fn) in list(helpers.HELPERS.items()):
            layer = HELPER_LAYERS.get(hname)
            if layer is None:
                continue
            self._installed.append((helpers.HELPERS, hid, (hname, fn)))
            helpers.HELPERS[hid] = (hname, self._wrap(fn, layer, f"bpf_{hname}", kernel_attr))

        self._method(Fib, "lookup", "fib", own)
        self._method(Netfilter, "evaluate", "netfilter", own)
        self._method(Bridge, "handle_frame", "bridge", kernel_attr)
        self._method(FlowCache, "run_xdp", "flowcache", kernel_attr)
        self._method(FlowCache, "run_tc", "flowcache", kernel_attr)
        self._method(Observability, "record_stage", "observability", kernel_attr)
        self._method(Observability, "record_fpm", "observability", kernel_attr)

        self._patch(Kernel, "charge_ns", self._counter(Kernel.__dict__["charge_ns"], "clock.calls", True))
        self._patch(Kernel, "costs_charge",
                    self._counter(Kernel.__dict__["costs_charge"], "clock.costs_charge", True))
        for attr in ("load_word", "store_word", "read_bytes", "write_bytes"):
            self._patch(Region, attr, self._counter(Region.__dict__[attr], "memory.calls", False))

        self._method(TopologyManager, "build", "control.graph")
        for attr, layer in SYNTH_LAYERS.items():
            fn = synthesizer.__dict__[attr]
            self._patch(synthesizer, attr, self._wrap(fn, layer, attr))
        self._method(Deployer, "deploy", "control.deploy", kernel_attr, failed=lambda ok: not ok)
        self._method(Deployer, "withdraw", "control.deploy", kernel_attr)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ reports
    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        """Per layer: calls, calls entered from another layer, fails, self
        host ns and self simulated ns."""
        out = {layer: {"calls": 0, "outer": 0, "fails": 0, "self_host_ns": 0, "self_sim_ns": 0}
               for layer, __ in LAYERS}
        for (layer, __), agg in self.agg.items():
            row = out[layer]
            row["calls"] += agg.calls
            row["outer"] += agg.outer
            row["fails"] += agg.fails
            row["self_host_ns"] += agg.self_host_ns
            row["self_sim_ns"] += agg.self_sim_ns
        return out

    def aggregates(self) -> List[dict]:
        return [
            {"layer": layer, "name": name, "calls": a.calls, "fails": a.fails,
             "host_ns": a.host_ns, "self_host_ns": a.self_host_ns,
             "sim_ns": a.sim_ns, "self_sim_ns": a.self_sim_ns}
            for (layer, name), a in sorted(self.agg.items())
        ]

    def chrome_events(self) -> List[dict]:
        """Sampled spans as Chrome trace-event complete ("X") events; the
        timestamp is host thread-CPU microseconds since the first span."""
        if not self.spans:
            return []
        origin = min(s[6] for s in self.spans)
        return [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": (host0 - origin) / 1e3, "dur": (host1 - host0) / 1e3,
             "args": {"kernel": kernel, "span": span_id, "parent": parent_id,
                      "request": request, "sim_start_ns": sim0, "sim_end_ns": sim1}}
            for name, layer, kernel, parent_id, request, span_id, host0, host1, sim0, sim1 in self.spans
        ]

    def write(self, path: str, summary: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"summary": summary, "aggregates": self.aggregates(),
                       "counts": dict(self.counts), "traceEvents": self.chrome_events()}, fh)
            fh.write("\n")


def coverage_problems(workload: str, fired: Dict[str, int], metrics: Dict[str, float]) -> List[str]:
    """Where a traced run breaks the design claims above. ``fired`` maps
    each layer (and counter) to its calls in the measured phase."""
    problems = []
    for layer in MUST_FIRE.get(workload, ()):
        if not fired.get(layer):
            problems.append(f"{layer} never fired on {workload}, which exists to stress it")
    silent = list(MUST_NOT_FIRE.get(workload, ()))
    if workload != "control-churn":
        silent += [layer for layer, __ in LAYERS if layer.startswith("control.")]
    for layer in silent:
        if fired.get(layer):
            problems.append(f"{layer} fired {fired[layer]} times on {workload}; it must not")
    for metric, low, high in RANGES.get(workload, ()):
        if not low <= metrics[metric] <= high:
            problems.append(f"{metric} = {metrics[metric]:.4f} on {workload}, outside [{low}, {high}]")
    return problems
