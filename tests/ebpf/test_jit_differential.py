"""Observational equivalence of the JIT fast path vs the interpreter.

Four layers of proof, from single programs up to the full pipeline:

1. **Corpus differential** — every FPM template config (the fpmlint matrix
   plus the prog-array dispatcher) runs a seeded mixed corpus (well-formed,
   truncated, garbage frames) through the JIT engine and a twin interpreter;
   verdicts, output frames, redirect targets, executed-insn counts, and
   abort types/messages must agree sample for sample.
2. **Cost parity** — with ``charge_costs=True`` the engine must advance the
   simulated clock by *exactly* the interpreter's nanoseconds, per config.
   The JIT amortizes host overhead, never simulated work.
3. **Property-based** — Hypothesis drives arbitrary byte strings (and
   structured mutations) through both sides of the router fast path and the
   tail-call dispatcher.
4. **End-to-end** — twin router topologies (JIT vs an interpreter-only
   engine) forward an identical traffic mix, including runs with armed
   data-plane faults; the conservation ledger, drop tables, per-NIC
   counters, and the simulated clock must match exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fpm.library import render_dispatcher, render_fast_path
from repro.ebpf.jit import JitEngine
from repro.ebpf.maps import ProgArray
from repro.ebpf.memory import Pointer, Region
from repro.ebpf.minic import compile_c
from repro.ebpf.vm import VM, Env, VMError
from repro.kernel import Kernel
from repro.measure.scenarios import setup_router
from repro.netsim.addresses import IPv4Addr, MacAddr
from repro.netsim.packet import TCP, UDP, Ethernet, IPv4, make_udp
from repro.testing import faults
from repro.tools.fpmlint import HOOKS, _configurations


def _udp_frame(rng, ttl):
    src = IPv4Addr((10 << 24) | (0 << 16) | (1 << 8) | rng.randrange(2, 250))
    dst = IPv4Addr(((10 << 24) | ((100 + rng.randrange(8)) << 16)) | rng.randrange(1, 1 << 16))
    payload = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 40)))
    udp = UDP(sport=rng.randrange(1024, 65536), dport=rng.choice((53, 80, 443, 8080)))
    ip = IPv4(src=src, dst=dst, proto=17, ttl=ttl)
    eth = Ethernet(dst=MacAddr(rng.getrandbits(48)), src=MacAddr(rng.getrandbits(48)))
    return eth.pack() + ip.pack(UDP.HDR_LEN + len(payload)) + udp.pack(payload, src, dst) + payload


def _tcp_frame(rng):
    src = IPv4Addr(rng.getrandbits(32))
    dst = IPv4Addr((10 << 24) | (96 << 16) | rng.randrange(1, 3))  # hits the ipvs VIPs
    tcp = TCP(sport=rng.randrange(1024, 65536), dport=rng.choice((80, 53, 22)), flags=TCP.SYN)
    ip = IPv4(src=src, dst=dst, proto=6, ttl=rng.choice((1, 2, 64)))
    eth = Ethernet(dst=MacAddr(rng.getrandbits(48)), src=MacAddr(rng.getrandbits(48)))
    body = tcp.pack(b"", src, dst)
    return eth.pack() + ip.pack(len(body)) + body


def frame_corpus(packets, seed):
    """A deterministic mixed corpus: well-formed, hostile, and garbage."""
    rng = random.Random(seed)
    corpus = []
    for i in range(packets):
        kind = i % 4
        if kind == 0:
            corpus.append(_udp_frame(rng, ttl=rng.choice((1, 2, 64, 255))))
        elif kind == 1:
            corpus.append(_tcp_frame(rng))
        elif kind == 2:
            # Truncation attack: a valid frame cut mid-header.
            frame = _udp_frame(rng, ttl=64)
            corpus.append(frame[: rng.randrange(0, len(frame))])
        else:
            corpus.append(bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 128))))
    return corpus


CORPUS = frame_corpus(96, seed=7)


def _programs():
    """(label, hook, source, maps kind) per fpmlint template config."""
    out = [
        (label, hook, render_fast_path("eth0", hook, nodes), None)
        for label, nodes in _configurations().items()
        for hook in HOOKS
    ]
    return out + [("dispatcher", hook, render_dispatcher("eth0", hook), "jmp") for hook in HOOKS]


def _compile(label, hook, source, maps_kind):
    maps = {"jmp": ProgArray("jmp")} if maps_kind else None
    return compile_c(source, name=f"{label}@{hook}", hook=hook, maps=maps)


def _all_configs():
    """(name, freshly-compiled program) per template config; the dispatcher
    gets a populated prog array so tail calls actually chain."""
    out = []
    for label, hook, source, maps_kind in _programs():
        program = _compile(label, hook, source, maps_kind)
        if maps_kind:  # dispatcher: point slot 0 at a real fast path
            r_label, r_hook, r_source, _ = _programs()[0]
            target = _compile(r_label, hook, r_source if r_hook == hook else r_source, None)
            for m in program.maps:
                if isinstance(m, ProgArray):
                    m.set_prog(0, target)
        out.append((f"{label}@{hook}", program))
    return out


def _sample_interp(kernel, program, frame, charge):
    region = Region("pkt", bytearray(frame))
    env = Env(kernel, redirect_verdict=4)
    vm = VM(kernel, charge_costs=charge)
    try:
        verdict = vm.run(program, [Pointer(region, 0), len(frame), 1], env)
    except VMError as exc:
        return ("abort", str(exc), vm.insns_executed)
    return ("ok", int(verdict), bytes(region.data), env.redirect_ifindex, vm.insns_executed)


def _sample_jit(kernel, engine, program, frame, charge):
    region = Region("pkt", bytearray(frame))
    env = Env(kernel, redirect_verdict=4)
    try:
        verdict, executed = engine.execute(
            program, [Pointer(region, 0), len(frame), 1], env, charge_costs=charge
        )
    except VMError as exc:
        # the engine does not expose the count on abort; compare message only
        return ("abort", str(exc), None)
    return ("ok", int(verdict), bytes(region.data), env.redirect_ifindex, executed)


def _abort_tolerant_eq(a, b):
    if a[0] == "abort" and b[0] == "abort":
        return a[1] == b[1]
    return a == b


# -------------------------------------------------- corpus differential

@pytest.mark.parametrize("name,program", _all_configs(), ids=lambda v: v if isinstance(v, str) else "")
def test_corpus_differential(name, program):
    k_int, k_jit = Kernel("diff-int"), Kernel("diff-jit")
    engine = JitEngine(k_jit)
    for i, frame in enumerate(CORPUS):
        ref = _sample_interp(k_int, program, frame, charge=False)
        got = _sample_jit(k_jit, engine, program, frame, charge=False)
        assert _abort_tolerant_eq(got, ref), f"{name} packet {i}: {got!r} != {ref!r}"
    assert engine.stats["fallbacks"] == 0


@pytest.mark.parametrize("name,program", _all_configs(), ids=lambda v: v if isinstance(v, str) else "")
def test_cost_parity(name, program):
    """Acceptance: the JIT charges exactly the interpreter's nanoseconds."""
    k_int, k_jit = Kernel("cost-int"), Kernel("cost-jit")
    engine = JitEngine(k_jit)
    for i, frame in enumerate(CORPUS):
        before = (k_int.clock.now_ns, k_jit.clock.now_ns)
        try:
            _sample_interp(k_int, program, frame, charge=True)
        except faults.InjectedFault:  # pragma: no cover - no faults armed
            pass
        _sample_jit(k_jit, engine, program, frame, charge=True)
        charged_int = k_int.clock.now_ns - before[0]
        charged_jit = k_jit.clock.now_ns - before[1]
        assert charged_jit == charged_int, (
            f"{name} packet {i}: jit charged {charged_jit}ns, "
            f"interpreter {charged_int}ns"
        )
    assert engine.stats["jit_runs"] > 0


# ------------------------------------------------------ injected faults

def test_differential_under_armed_fault_sites():
    """Helper-boundary faults must abort identically on both sides: the
    JIT flushes its batched counters before every call, so an injected
    fault observes (and charges) exactly the interpreter's state."""
    configs = [c for c in _all_configs() if "router" in c[0] or "gateway" in c[0]]
    frame = CORPUS[0]
    for name, program in configs:
        for site in ("map_update",):
            def run(side_kernel, use_jit):
                with faults.injected(seed=11) as inj:
                    inj.arm(site, count=1)
                    if use_jit:
                        engine = JitEngine(side_kernel)
                        try:
                            out = _sample_jit(side_kernel, engine, program, frame, charge=True)
                        except faults.InjectedFault as exc:
                            out = ("fault", str(exc))
                    else:
                        try:
                            out = _sample_interp(side_kernel, program, frame, charge=True)
                        except faults.InjectedFault as exc:
                            out = ("fault", str(exc))
                return out

            k_int, k_jit = Kernel("fault-int"), Kernel("fault-jit")
            ref = run(k_int, use_jit=False)
            got = run(k_jit, use_jit=True)
            if ref[0] == "abort" and got[0] == "abort":
                assert got[1] == ref[1], f"{name}/{site}"
            else:
                assert got[:2] == ref[:2], f"{name}/{site}: {got!r} != {ref!r}"
            assert k_jit.clock.now_ns == k_int.clock.now_ns, f"{name}/{site}"


# ------------------------------------------------------- property-based

ROUTER = _all_configs()[0][1]
DISPATCHER = [p for n, p in _all_configs() if n.startswith("dispatcher@xdp")][0]


@settings(max_examples=60, deadline=None)
@given(frame=st.binary(min_size=0, max_size=128))
def test_property_arbitrary_bytes(frame):
    k_int, k_jit = Kernel("prop-int"), Kernel("prop-jit")
    engine = JitEngine(k_jit)
    ref = _sample_interp(k_int, ROUTER, frame, charge=True)
    got = _sample_jit(k_jit, engine, ROUTER, frame, charge=True)
    assert _abort_tolerant_eq(got, ref)
    assert k_jit.clock.now_ns == k_int.clock.now_ns


@settings(max_examples=40, deadline=None)
@given(
    dst_low=st.integers(min_value=0, max_value=0xFFFF),
    ttl=st.sampled_from([0, 1, 2, 64, 255]),
    cut=st.integers(min_value=0, max_value=80),
)
def test_property_structured_udp(dst_low, ttl, cut):
    pkt = make_udp(
        "02:00:00:00:00:01", "02:00:00:00:00:02",
        "10.0.1.2", f"10.100.{dst_low >> 8}.{dst_low & 0xFF}", dport=9, ttl=ttl,
    )
    frame = pkt.to_bytes()[: max(0, len(pkt.to_bytes()) - cut)]
    for program in (ROUTER, DISPATCHER):
        k_int, k_jit = Kernel("prop2-int"), Kernel("prop2-jit")
        engine = JitEngine(k_jit)
        ref = _sample_interp(k_int, program, frame, charge=True)
        got = _sample_jit(k_jit, engine, program, frame, charge=True)
        assert _abort_tolerant_eq(got, ref)
        assert k_jit.clock.now_ns == k_int.clock.now_ns


# ----------------------------------------------------------- end-to-end

def _drive(topo, packets=200, oddballs=True):
    nic = topo.dut_in.nic
    src_mac, dst_mac = topo.src_eth.mac, topo.dut_in.mac
    frames = []
    for i in range(packets):
        pkt = make_udp(
            src_mac, dst_mac, "10.0.1.2", topo.flow_destination(i % 32),
            sport=1024 + (i % 32), dport=9,
        )
        frames.append(pkt.to_bytes())
    if oddballs:
        frames.append(make_udp(src_mac, dst_mac, "10.0.1.2", "10.100.0.1", dport=9, ttl=1).to_bytes())
        frames.append(make_udp(src_mac, dst_mac, "10.0.1.2", "192.0.2.1", dport=9).to_bytes())
        frames.append(b"\x00" * 10)
    # NAPI-coalesced arrival in chunks: engages the batched drain
    for i in range(0, len(frames), 64):
        nic.receive_burst(frames[i:i + 64])


def _ledger(topo):
    stack = topo.dut.stack
    obs = topo.dut.observability
    return {
        "rx": stack.rx_packets,
        "tx_local": stack.tx_local_packets,
        "settled": stack.settled,
        "dropped": stack.dropped,
        "pending": stack.pending_packets(),
        "drops": obs.drops.table(),
        "dut_out_tx": topo.dut_out.nic.stats.tx_packets,
        "sink_rx": topo.sink_eth.nic.stats.rx_packets,
        "clock_ns": topo.dut.clock.now_ns,
    }


def _interpreter_twin(topo, monkeypatch):
    """Make the twin's engine run every program in the interpreter."""
    monkeypatch.setattr(topo.dut.jit, "unit_for", lambda program: None)
    return topo


def test_end_to_end_batched_jit_matches_seed_interpreter(monkeypatch):
    fast = setup_router("linuxfp", hook="xdp")
    slow = _interpreter_twin(setup_router("linuxfp", hook="xdp"), monkeypatch)

    _drive(fast)
    _drive(slow)

    ledger_fast, ledger_slow = _ledger(fast), _ledger(slow)
    assert ledger_fast == ledger_slow
    # conservation survives on both sides
    assert ledger_fast["rx"] + ledger_fast["tx_local"] == (
        ledger_fast["settled"] + ledger_fast["pending"]
    )
    # the fast side ran compiled, the twin interpreted
    stats = fast.dut.jit.stats
    assert stats["jit_runs"] > 0 and stats["interp_runs"] == 0
    assert stats["fallbacks"] == 0
    assert slow.dut.jit.stats["jit_runs"] == 0


def test_end_to_end_equivalence_under_data_plane_faults(monkeypatch):
    """With backlog-overflow faults armed (same seed both sides), the JIT
    pipeline drops exactly the frames the interpreter pipeline drops and
    the ledger still balances."""
    def run(jit_on):
        with faults.injected(seed=23) as inj:
            inj.arm("backlog_overflow", probability=0.05)
            topo = setup_router("linuxfp", hook="xdp")
            if not jit_on:
                _interpreter_twin(topo, monkeypatch)
            _drive(topo, packets=150, oddballs=False)
            return _ledger(topo), inj.fired_at("backlog_overflow")

    ledger_fast, fired_fast = run(True)
    ledger_slow, fired_slow = run(False)
    assert fired_fast == fired_slow  # same chaos on both sides
    assert ledger_fast == ledger_slow
    assert ledger_fast["rx"] + ledger_fast["tx_local"] == (
        ledger_fast["settled"] + ledger_fast["pending"]
    )


def test_tc_hook_end_to_end_parity(monkeypatch):
    fast = setup_router("linuxfp", hook="tc")
    slow = _interpreter_twin(setup_router("linuxfp", hook="tc"), monkeypatch)
    _drive(fast, packets=120)
    _drive(slow, packets=120)
    assert _ledger(fast) == _ledger(slow)
