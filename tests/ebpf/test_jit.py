"""Tests for the bytecode→Python JIT.

Covers the compiler's reports and fail-closed fallback, the per-program
unit record, the entry-ABI guard, interpreter resume mid-tail-chain,
tail-call-limit parity, and the burst hook entry point; then the deployed
system: every template family runs compiled with no silent fallback, set-up
compiles nothing, each program compiles once, and a retired program is
freed by reference counting alone.
"""

import gc
import weakref

import pytest

from repro.core import Controller
from repro.core.fpm.library import render_dispatcher, render_fast_path
from repro.ebpf.hooks import XdpAttachment
from repro.ebpf.isa import mov_imm
from repro.ebpf.jit import JitEngine, JitReport, compile_program
from repro.ebpf.jit import compiler as jit_compiler
from repro.ebpf.maps import ProgArray
from repro.ebpf.memory import Pointer, Region
from repro.ebpf.minic import compile_c
from repro.ebpf.program import Program
from repro.ebpf.vm import VM, Env, VMError
from repro.k8s import Cluster
from repro.kernel import Kernel
from repro.kernel.sockets import tcp_rr_server
from repro.measure.scenarios import setup_gateway, setup_router
from repro.netsim.addresses import ipv4
from repro.netsim.packet import IPPROTO_TCP, IPv4, TCP, make_udp
from repro.tools import iptables
from repro.tools.fpmlint import HOOKS, _configurations

READER_SRC = """
u32 main(u8* pkt, u64 len, u64 ifindex) {
    if (len < 14) { return 2; }
    u64 t = ld16(pkt, 12);
    if (t == 0x0800) { return 2; }
    return 1;
}
"""


def compile_src(source, name="jit-test", hook="xdp", maps=None):
    return compile_c(source, name=name, hook=hook, maps=maps)


def frame_args(frame):
    region = Region("pkt", bytearray(frame))
    return region, [Pointer(region, 0), len(frame), 1]


FRAME = bytes(range(64))


def interpreter_only(kernel, monkeypatch):
    """Make ``kernel``'s engine run every program in the interpreter."""
    monkeypatch.setattr(kernel.jit, "unit_for", lambda program: None)
    return kernel.jit


# ------------------------------------------------------------- compiler

class TestCompiler:
    def test_every_template_config_compiles(self):
        for label, nodes in _configurations().items():
            for hook in HOOKS:
                program = compile_src(
                    render_fast_path("eth0", hook, nodes), name=f"{label}@{hook}", hook=hook
                )
                unit, report = compile_program(program)
                assert unit is not None, f"{label}@{hook}: {report.error}"
                assert report.status == "compiled"
                assert report.insns == len(program)
                assert report.blocks > 0
                assert report.inline_mem_ops > 0

    def test_dispatcher_compiles(self):
        program = compile_src(
            render_dispatcher("eth0", "xdp"), name="disp", maps={"jmp": ProgArray("jmp")}
        )
        unit, report = compile_program(program)
        assert unit is not None
        assert report.status == "compiled"

    def test_unverifiable_program_falls_back(self):
        # No exit instruction: check_structure refuses it, the JIT declines.
        bad = Program(name="bad", insns=[mov_imm(0, 0)], hook="xdp")
        unit, report = compile_program(bad)
        assert unit is None
        assert report.status == "fallback"
        assert report.error

    def test_null_checks_folded_on_router(self):
        nodes = _configurations()["router"]
        program = compile_src(render_fast_path("eth0", "xdp", nodes), hook="xdp")
        _, report = compile_program(program)
        assert report.folded_null_checks >= 0  # fact is reported
        assert report.inline_mem_ops > report.generic_ops


# --------------------------------------------------------------- engine

class TestEngine:
    def test_unit_cache_hits_by_identity(self):
        kernel = Kernel("jit-cache")
        engine = JitEngine(kernel)
        program = compile_src(READER_SRC)
        first = engine.unit_for(program)
        second = engine.unit_for(program)
        assert first is second
        assert program.jit[0] is first  # the unit lives on its program
        assert engine.stats["compiled"] == 1
        # an equal but distinct program gets its own unit
        twin = compile_src(READER_SRC)
        assert twin == program and engine.unit_for(twin) is not first

    def test_execute_matches_interpreter(self):
        k_jit, k_int = Kernel("jit-a"), Kernel("jit-b")
        engine = JitEngine(k_jit)
        program = compile_src(READER_SRC)
        region, args = frame_args(FRAME)
        verdict, executed = engine.execute(program, args, Env(k_jit, 4))
        region2, args2 = frame_args(FRAME)
        vm = VM(k_int)
        expected = vm.run(program, args2, Env(k_int, 4))
        assert verdict == expected
        assert executed == vm.insns_executed
        assert engine.stats["jit_runs"] == 1

    def test_execute_charges_interpreter_clock(self):
        k_jit, k_int = Kernel("jit-clk-a"), Kernel("jit-clk-b")
        engine = JitEngine(k_jit)
        program = compile_src(READER_SRC)
        _, args = frame_args(FRAME)
        engine.execute(program, args, Env(k_jit, 4), charge_costs=True)
        _, args2 = frame_args(FRAME)
        VM(k_int, charge_costs=True).run(program, args2, Env(k_int, 4))
        assert k_jit.clock.now_ns == k_int.clock.now_ns

    def test_abi_guard_falls_back_to_interpreter(self):
        kernel = Kernel("jit-abi")
        engine = JitEngine(kernel)
        program = compile_src(READER_SRC)
        region = Region("pkt", bytearray(FRAME))
        # Nonzero base offset: not the ABI the code was specialized for.
        args = [Pointer(region, 4), len(FRAME) - 4, 1]
        verdict, _ = engine.execute(program, args, Env(kernel, 4))
        assert engine.stats["interp_runs"] == 1
        k2 = Kernel("jit-abi-ref")
        region2 = Region("pkt", bytearray(FRAME))
        expected = VM(k2).run(program, [Pointer(region2, 4), len(FRAME) - 4, 1], Env(k2, 4))
        assert verdict == expected

    def test_disabled_engine_uses_interpreter(self, monkeypatch):
        kernel = Kernel("jit-off")
        engine = interpreter_only(kernel, monkeypatch)
        program = compile_src(READER_SRC)
        _, args = frame_args(FRAME)
        engine.execute(program, args, Env(kernel, 4))
        assert engine.stats["jit_runs"] == 0
        assert engine.stats["interp_runs"] == 1


# ----------------------------------------------------------- tail chain

class TestTailChain:
    def _chain(self, target_src=READER_SRC):
        jmp = ProgArray("jmp")
        disp = compile_src(render_dispatcher("eth0", "xdp"), name="disp", maps={"jmp": jmp})
        target = compile_src(target_src, name="target")
        jmp.set_prog(0, target)
        return disp, target

    def test_compiled_chain_matches_interpreter(self):
        disp, _ = self._chain()
        k_jit, k_int = Kernel("jit-tc-a"), Kernel("jit-tc-b")
        engine = JitEngine(k_jit)
        _, args = frame_args(FRAME)
        verdict, executed = engine.execute(disp, args, Env(k_jit, 4))
        _, args2 = frame_args(FRAME)
        vm = VM(k_int)
        expected = vm.run(disp, args2, Env(k_int, 4))
        assert (verdict, executed) == (expected, vm.insns_executed)
        assert k_jit.clock.now_ns == k_int.clock.now_ns

    def test_interpreter_resumes_uncompilable_tail_target(self):
        disp, target = self._chain()
        k_jit, k_int = Kernel("jit-res-a"), Kernel("jit-res-b")
        engine = JitEngine(k_jit)
        # Poison the target's record: the dispatcher stays compiled but
        # the tail call must hand over to the interpreter mid-chain.
        target.jit = (None, JitReport(status="fallback"))
        _, args = frame_args(FRAME)
        verdict, executed = engine.execute(disp, args, Env(k_jit, 4))
        _, args2 = frame_args(FRAME)
        vm = VM(k_int)
        expected = vm.run(disp, args2, Env(k_int, 4))
        assert (verdict, executed) == (expected, vm.insns_executed)
        assert k_jit.clock.now_ns == k_int.clock.now_ns
        assert engine.stats["jit_runs"] == 1
        assert engine.stats["interp_runs"] == 1

    def test_tail_call_limit_message_parity(self):
        jmp = ProgArray("jmp")
        disp = compile_src(render_dispatcher("eth0", "xdp"), name="disp", maps={"jmp": jmp})
        jmp.set_prog(0, disp)  # self-referential: chains forever
        k_jit, k_int = Kernel("jit-lim-a"), Kernel("jit-lim-b")
        engine = JitEngine(k_jit)
        _, args = frame_args(FRAME)
        with pytest.raises(VMError) as jit_err:
            engine.execute(disp, args, Env(k_jit, 4))
        _, args2 = frame_args(FRAME)
        with pytest.raises(VMError) as int_err:
            VM(k_int).run(disp, args2, Env(k_int, 4))
        assert str(jit_err.value) == str(int_err.value)
        assert k_jit.clock.now_ns == k_int.clock.now_ns


# ------------------------------------------------------------ burst hook

class TestBurstHook:
    def test_burst_matches_per_frame(self, monkeypatch):
        program = compile_src(READER_SRC, name="burst")
        frames = [FRAME, bytes(10), bytes(range(40))]

        k_jit = Kernel("jit-burst")
        attach_jit = XdpAttachment(program)
        dev = k_jit.add_physical("eth0")
        burst = attach_jit.run_xdp_burst(k_jit, dev, frames)

        k_ref = Kernel("jit-burst-ref")
        interpreter_only(k_ref, monkeypatch)
        attach_ref = XdpAttachment(program)
        dev_ref = k_ref.add_physical("eth0")
        single = [attach_ref.run_xdp(k_ref, dev_ref, frame) for frame in frames]

        assert [(r.verdict, bytes(r.frame)) for r in burst] == [
            (r.verdict, bytes(r.frame)) for r in single
        ]
        assert attach_jit.invocations == len(frames)
        assert k_jit.jit.stats["jit_runs"] == len(frames)
        assert k_jit.clock.now_ns == k_ref.clock.now_ns


# ------------------------------------------------------- deployed system

def _send_bursts(topo, bursts=2, size=32):
    nic = topo.dut_in.nic
    for b in range(bursts):
        nic.receive_burst([
            make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", topo.flow_destination(i),
                     sport=1024 + i, dport=9).to_bytes()
            for i in range(b * size, (b + 1) * size)
        ])


def _bridge_vlan_dut():
    """br0 with VLAN filtering over two veth ports; frames tagged 100."""
    kernel = Kernel("vlanbr")
    kernel.add_bridge("br0")
    kernel.set_link("br0", True)
    peers = []
    for i in range(2):
        __, peer = kernel.add_veth_pair(f"veth{i}", f"peer{i}")
        kernel.set_link(f"veth{i}", True)
        kernel.set_link(f"peer{i}", True)
        kernel.enslave(f"veth{i}", "br0")
        peers.append(peer)
    kernel.set_bridge_attrs("br0", vlan_filtering=True)
    bridge = kernel.devices.by_name("br0").bridge
    for port in bridge.ports.values():
        port.allowed_vlans.add(100)
    controller = Controller(kernel, hook="xdp")
    controller.start()
    a_to_b = make_udp("02:aa:00:00:00:01", "02:aa:00:00:00:02", "10.0.0.1", "10.0.0.2", vlan=100)
    b_to_a = make_udp("02:aa:00:00:00:02", "02:aa:00:00:00:01", "10.0.0.2", "10.0.0.1", vlan=100)
    for __ in range(4):
        peers[0].transmit(a_to_b.to_bytes())
        peers[1].transmit(b_to_a.to_bytes())
    return [(kernel, controller)]


def _k8s_tc_nodes():
    """A Flannel cluster accelerated at the TC hook; intra- and inter-node
    TCP_RR rounds."""
    cluster = Cluster(workers=2)
    cluster.accelerate()
    for intra in (True, False):
        client, server = cluster.pod_pair(intra=intra)
        tcp_rr_server(server.kernel, 5201)
        for __ in range(3):
            client.kernel.send_ip(
                IPv4(src=ipv4(client.ip), dst=ipv4(server.ip), proto=IPPROTO_TCP),
                TCP(sport=40000, dport=5201, flags=TCP.ACK | TCP.PSH),
                b"\x01",
            )
    return [(node.kernel, node.controller) for node in cluster.nodes]


def _line(setup):
    topo = setup("linuxfp")
    _send_bursts(topo)
    return [(topo.dut, topo.controller)]


FAMILIES = {
    "router": lambda: _line(setup_router),
    "gateway": lambda: _line(setup_gateway),
    "bridge-vlan": _bridge_vlan_dut,
    "k8s-tc": _k8s_tc_nodes,
}


class TestDeployedPrograms:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_runs_compiled_by_default(self, family):
        kernels = FAMILIES[family]()
        assert sum(kernel.jit.stats["jit_runs"] for kernel, __ in kernels) > 0
        for kernel, controller in kernels:
            summary = controller.deployer.jit_summary()
            assert summary, f"{kernel.hostname}: nothing deployed"
            assert {info["status"] for info in summary.values()} == {"compiled"}, summary
            stats = kernel.jit.stats
            assert stats["interp_runs"] == 0, (kernel.hostname, stats)
            assert stats["fallbacks"] == 0, (kernel.hostname, stats)

    def test_setup_compiles_nothing_and_each_program_compiles_once(self, monkeypatch):
        compiled = []
        real = jit_compiler._Compiler.compile

        def counting(self):
            compiled.append(self.program)
            return real(self)

        monkeypatch.setattr(jit_compiler._Compiler, "compile", counting)
        topo = setup_router("linuxfp")
        assert compiled == []
        _send_bursts(topo, bursts=2)
        entry = topo.controller.deployer.deployed["eth0"]
        ran = [entry.dispatcher.program, entry.current.program]
        assert sorted(map(id, compiled)) == sorted(map(id, ran))

    def test_retired_program_freed_without_cyclic_gc(self):
        topo = setup_router("linuxfp")
        _send_bursts(topo, bursts=1)
        entry = topo.controller.deployer.deployed["eth0"]
        assert topo.dut.jit.stats["jit_runs"] > 0
        retired = weakref.ref(entry.current.program)
        retired_fn = weakref.ref(retired().jit[0].fn)
        gc.disable()
        try:
            iptables(topo.dut, "-A FORWARD -s 172.16.0.1/32 -j DROP")  # structural change
            assert entry.current.program is not retired()
            _send_bursts(topo, bursts=1)
            assert retired() is None
            assert retired_fn() is None
        finally:
            gc.enable()
