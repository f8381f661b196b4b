"""Tests for the bytecode→Python JIT.

Covers the compiler's reports and fail-closed fallback (including the
decline of an operand whose kind differs across paths), the counters that
prove each codegen pass fires, a layout deeper than Python's indentation
limit, a copy that keeps its value while one instruction reads it and its
source after the source loaded a packet byte, the per-program unit record, the entry-ABI guard, interpreter resume
mid-tail-chain, the fresh stack frame of every tail-call target,
tail-call-limit parity, and the burst hook entry point; then the deployed
system: every template family runs compiled with no silent fallback and
keeps stack slots in Python locals, a router burst spills nothing through
the stack region and calls ``charge_ns`` only for its driver, the Python
lines one forwarded frame executes stay under a pinned ceiling, the
packet tracer names the executor that served each run, set-up compiles
nothing, each program compiles once and is analyzed once, a served
program keeps no constant facts, a warm router burst converts one cost to
femtoseconds, and a retired program is freed by reference counting alone.
"""

import contextlib
import gc
import io
import sys
import weakref
from collections import Counter

import pytest

from repro.core import Controller
from repro.core.fpm.library import render_dispatcher, render_fast_path
from repro.ebpf.analysis import interp
from repro.ebpf.hooks import XdpAttachment
from repro.ebpf.helpers import HELPER_IDS
from repro.ebpf.isa import Insn, Op, call, exit_, ldx, mov_imm, mov_reg, stx
from repro.ebpf.jit import JitEngine, JitReport, compile_program
from repro.ebpf.jit import engine as engine_mod
from repro.ebpf.maps import ProgArray
from repro.ebpf.memory import Pointer, Region
from repro.ebpf.minic import compile_c
from repro.ebpf.program import Program
from repro.ebpf.verifier import verify
from repro.ebpf.vm import VM, Env, VMError
from repro.k8s import Cluster
from repro.kernel import Kernel
from repro.kernel.sockets import tcp_rr_server
from repro.measure.scenarios import setup_gateway, setup_router
from repro.netsim.addresses import ipv4
from repro.netsim.packet import IPPROTO_TCP, IPv4, TCP, make_udp
from repro.testing import faults
from repro.tools import fpmtool, iptables
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
                assert report.stack_locals > 0

    def test_router_counters_show_every_pass(self):
        # The router FPM: constants fold (pkt + 22 becomes a literal
        # offset), spills nobody reads are dropped, the two 6-byte MAC
        # moves fuse from 2 + 4 bytes, and every join is a short exit
        # tail copied into its predecessors, so no block tests _g.
        program = compile_src(render_fast_path("eth0", "xdp", _configurations()["router"]), name="r")
        unit, report = compile_program(program)
        assert report.folded > 0 and report.dead_stores > 0
        assert report.fused_moves == 2
        assert report.guards == 0 and "_g" not in unit.source
        assert "_pkd[0:6] = _skd[" in unit.source and "_pkd[6:12] = _skd[" in unit.source
        assert "_pkd[22]" in unit.source

    def test_joins_that_are_jumped_past_keep_a_guard(self):
        guards = {}
        for label, nodes in _configurations().items():
            program = compile_src(render_fast_path("eth0", "xdp", nodes), name=label)
            unit, report = compile_program(program)
            guards[label] = report.guards
            assert unit.source.count("if _g <= ") == report.guards, label
        assert any(guards.values()), guards

    def test_nesting_deeper_than_python_allows_still_compiles(self):
        # 130 nested conditionals: each taken edge jumps to one shared join
        # that is too long to copy, so both arms of every branch stay open
        # and a layout nesting one level per branch would pass Python's
        # 100 indentation levels; the compiler starts guarded joins instead.
        depth = 130
        insns = [Insn(Op.JGE_IMM, dst=2, imm=32, off=2), mov_imm(0, 1), exit_(), mov_imm(6, 0)]
        jumps = []
        for i in range(depth):
            insns.append(ldx(7, 1, i % 32, 1))
            jumps.append(len(insns))
            insns.append(Insn(Op.JEQ_IMM, dst=7, imm=(i * 37) % 256))
            insns.append(Insn(Op.ADD_IMM, dst=6, imm=i + 1))
        insns += [mov_reg(0, 6), exit_()]
        join = len(insns)
        insns += [Insn(Op.MUL_IMM, dst=6, imm=3), Insn(Op.ADD_IMM, dst=6, imm=7),
                  Insn(Op.XOR_IMM, dst=6, imm=0x55), Insn(Op.AND_IMM, dst=6, imm=0xFFFF),
                  mov_reg(0, 6), exit_()]
        for at in jumps:
            insns[at].off = join - at - 1
        program = Program(name="deep", insns=insns, hook="xdp")
        verify(program)
        unit, report = compile_program(program)
        assert unit is not None, report.error
        assert report.guards > 0
        assert max(len(line) - len(line.lstrip()) for line in unit.source.splitlines()) < 4 * 100
        for frame in (bytes(64), bytes(range(64)), bytes([37 * i % 256 for i in range(64)])):
            k_jit, k_int = Kernel("deep-jit"), Kernel("deep-int")
            _, args = frame_args(frame)
            got = JitEngine(k_jit).execute(program, args, Env(k_jit, 4))
            _, args2 = frame_args(frame)
            vm = VM(k_int)
            assert got == (vm.run(program, args2, Env(k_int, 4)), vm.insns_executed)
            assert k_jit.clock._fs == k_int.clock._fs

    @pytest.mark.parametrize("form", ["alu", "branch", "store", "call"])
    def test_copy_keeps_its_value_when_the_source_loads(self, form):
        # r7 copies r6 while r6's value sits in its variable; r6 then loads
        # a packet byte, and one instruction reads r7 and r6 while r6 stays
        # live. Reading r6 into its variable must not change what r7 reads.
        computed = [ldx(6, 1, 12, 2), Insn(Op.ADD_REG, dst=6, src=2)]
        body = {
            "alu": computed + [mov_reg(7, 6), ldx(6, 1, 14, 1), Insn(Op.ADD_REG, dst=7, src=6),
                               Insn(Op.ADD_REG, dst=7, src=6), mov_reg(0, 7), exit_()],
            "branch": computed + [mov_reg(7, 6), ldx(6, 1, 14, 1), Insn(Op.JGT_REG, dst=7, src=6, off=2),
                                  mov_reg(0, 6), exit_(), mov_reg(0, 6), Insn(Op.ADD_IMM, dst=0, imm=100), exit_()],
            # r7 is a packet pointer at a variable offset; the store goes through it
            "store": [ldx(3, 1, 0, 1), Insn(Op.AND_IMM, dst=3, imm=7), mov_reg(6, 1),
                      Insn(Op.ADD_REG, dst=6, src=3), mov_reg(7, 6), ldx(6, 1, 14, 1),
                      stx(7, 6, 0, 1), mov_reg(0, 6), exit_()],
            # r1 = r6 is bpf_redirect's ifindex argument
            "call": computed + [mov_reg(7, 1), mov_reg(1, 6), ldx(6, 7, 14, 1), mov_imm(2, 0),
                                call(HELPER_IDS["redirect"]), mov_reg(0, 6), exit_()],
        }[form]
        guard = [Insn(Op.JGE_IMM, dst=2, imm=32, off=2), mov_imm(0, 1), exit_()]
        program = Program(name="alias-" + form, insns=guard + body, hook="xdp")
        verify(program)
        unit, report = compile_program(program)
        assert unit is not None, report.error
        frame = bytes((7 * i + 3) % 256 for i in range(64))
        runs = []
        for engine in (JitEngine, None):
            kernel = Kernel("alias-" + form)
            region, args = frame_args(frame)
            env = Env(kernel, 4)
            if engine is None:
                vm = VM(kernel)
                outcome = (vm.run(program, args, env), vm.insns_executed)
            else:
                outcome = engine(kernel).execute(program, args, env)
            runs.append((outcome, bytes(region.data), env.redirect_ifindex, kernel.clock._fs))
        assert runs[0] == runs[1]

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

    def test_mixed_operand_declines_to_interpreter(self):
        # r6 is the packet pointer on one path and a scalar on the other:
        # the verifier accepts ``add r6, 1`` on both, but the JIT has no
        # typed form for a mixed operand, so it declines the program.
        program = Program(name="mixed", insns=[
            Insn(Op.JEQ_IMM, dst=3, imm=0, off=2),
            mov_reg(6, 1),
            Insn(Op.JA, off=1),
            mov_imm(6, 7),
            Insn(Op.ADD_IMM, dst=6, imm=1),
            mov_imm(0, 2),
            exit_(),
        ], hook="xdp")
        verify(program)
        unit, report = compile_program(program)
        assert unit is None
        assert report.status == "fallback"
        assert "pc 4" in report.error
        for ifindex in (0, 1):  # both paths through the join
            k_jit, k_int = Kernel("jit-mixed-a"), Kernel("jit-mixed-b")
            engine = JitEngine(k_jit)
            _, args = frame_args(FRAME)
            args[2] = ifindex
            verdict, executed = engine.execute(program, args, Env(k_jit, 4))
            _, args2 = frame_args(FRAME)
            args2[2] = ifindex
            vm = VM(k_int)
            assert verdict == vm.run(program, args2, Env(k_int, 4))
            assert executed == vm.insns_executed
            assert k_jit.clock.now_ns == k_int.clock.now_ns
            assert engine.stats["interp_runs"] == 1


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
        engine.execute(program, args, Env(k_jit, 4))
        _, args2 = frame_args(FRAME)
        VM(k_int).run(program, args2, Env(k_int, 4))
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

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
    def test_tail_target_cannot_read_its_callers_stack(self, compiled):
        # The dispatcher spills its packet pointer at r10-8; the callee
        # reads that slot without ever writing it. Each program runs on a
        # fresh zeroed frame, so the callee reads 0 on both executors.
        jmp = ProgArray("jmp")
        disp = compile_src(render_dispatcher("eth0", "xdp"), name="disp", maps={"jmp": jmp})
        callee = Program(name="callee", insns=[
            ldx(0, 10, -8, 8),
            Insn(Op.ADD_IMM, dst=0, imm=2),
            exit_(),
        ], hook="xdp")
        verify(callee)
        jmp.set_prog(0, callee)
        if not compiled:
            callee.jit = (None, JitReport(status="fallback"))
        k_jit, k_int = Kernel("jit-frame-a"), Kernel("jit-frame-b")
        engine = JitEngine(k_jit)
        _, args = frame_args(FRAME)
        got = engine.execute(disp, args, Env(k_jit, 4))
        _, args2 = frame_args(FRAME)
        vm = VM(k_int)
        expected = (vm.run(disp, args2, Env(k_int, 4)), vm.insns_executed)
        assert got == expected == (2, 14)
        assert k_jit.clock.now_ns == k_int.clock.now_ns
        assert engine.stats["interp_runs"] == (0 if compiled else 1)

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

    def test_router_burst_keeps_the_stack_in_locals(self, monkeypatch):
        # Per forwarded frame: no spill goes through Region.store_word, and
        # the only Pointers are the hook's argument and bpf_fib_lookup's
        # out buffer.
        topo = setup_router("linuxfp", hook="xdp")
        _send_bursts(topo, bursts=1, size=64)  # resolves the next hop
        counts = Counter()
        real_store, real_init = Region.store_word, Pointer.__init__

        def store_word(self, *args):
            counts["store_word"] += 1
            return real_store(self, *args)

        def init(self, *args):
            counts["Pointer"] += 1
            real_init(self, *args)

        monkeypatch.setattr(Region, "store_word", store_word)
        monkeypatch.setattr(Pointer, "__init__", init)
        sent = topo.sink_eth.nic.stats.rx_packets
        runs = topo.dut.jit.stats["jit_runs"]
        _send_bursts(topo, bursts=1, size=64)
        assert topo.sink_eth.nic.stats.rx_packets - sent == 64
        assert topo.dut.jit.stats["jit_runs"] - runs == 64
        assert counts["store_word"] == 0
        assert counts["Pointer"] <= 2 * 64
        summary = topo.controller.deployer.jit_summary()
        assert summary["eth0"]["stack_locals"] > 0

    def test_router_burst_calls_charge_ns_once(self, monkeypatch):
        # A 64-frame burst charges the driver once through charge_ns. Every
        # program run charges its entry, its instruction counts and its
        # tail call as whole fs through charge_fs, so none pays charge_ns's
        # ns -> fs conversion (the parent called charge_ns 385 times).
        topo = setup_router("linuxfp", hook="xdp")
        _send_bursts(topo, bursts=1, size=64)  # resolves the next hop
        calls = Counter()
        real_charge_ns = Kernel.charge_ns

        def charge_ns(self, ns):
            calls[self.hostname] += 1
            real_charge_ns(self, ns)

        monkeypatch.setattr(Kernel, "charge_ns", charge_ns)
        sent = topo.sink_eth.nic.stats.rx_packets
        runs = topo.dut.jit.stats["jit_runs"]
        _send_bursts(topo, bursts=1, size=64)
        assert topo.sink_eth.nic.stats.rx_packets - sent == 64
        assert topo.dut.jit.stats["jit_runs"] - runs == 64
        assert calls[topo.dut.hostname] == 1

    def test_router_burst_calls_to_fs_once(self, to_fs_calls):
        # Named charges and program runs read the cost model's femtosecond
        # table, so a warm 64-frame burst converts only receive_batch's one
        # driver charge (the parent called to_fs 641 times, 385 on the DUT).
        topo = setup_router("linuxfp", hook="xdp")
        _send_bursts(topo, bursts=1, size=64)  # resolves the next hop, fills the table
        del to_fs_calls[:]
        sent = topo.sink_eth.nic.stats.rx_packets
        _send_bursts(topo, bursts=1, size=64)
        assert topo.sink_eth.nic.stats.rx_packets - sent == 64
        assert to_fs_calls == [topo.dut.costs.driver_rx * 64]

    @pytest.mark.parametrize("setup,ceiling", [(setup_router, (4, 30)), (setup_gateway, (4, 38))],
                             ids=["router", "router+iptables"])
    def test_python_lines_per_forwarded_frame(self, setup, ceiling):
        # The work the compiled code does per forwarded 64 B frame, counted
        # as the line events it executes in <jit:...> code: the dispatcher,
        # then the FPM it tail-calls. The ceilings are the counts of the
        # block layout with constant folding; a codegen change that
        # inflates the output again fails here.
        topo = setup("linuxfp", hook="xdp")
        _send_bursts(topo, bursts=1, size=4)  # compiles, resolves the next hop
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", topo.flow_destination(100),
                         sport=2000, dport=9, payload=bytes(22)).to_bytes()
        assert len(frame) == 64
        entry = topo.controller.deployer.deployed["eth0"]
        names = ["<jit:%s>" % p.name for p in (entry.dispatcher.program, entry.current.program)]
        counts = Counter()

        def tracer(frame_, event, arg):
            name = frame_.f_code.co_filename
            if name.startswith("<jit:"):
                if event == "line":
                    counts[name] += 1
                return tracer
            return None

        delivered = topo.sink_eth.nic.stats.rx_packets
        sys.settrace(tracer)
        try:
            topo.dut_in.nic.receive_from_wire(frame)
        finally:
            sys.settrace(None)
        assert topo.sink_eth.nic.stats.rx_packets == delivered + 1
        assert set(counts) == set(names)
        assert counts[names[0]] <= ceiling[0] and counts[names[1]] <= ceiling[1], counts

    @pytest.mark.parametrize("declined,served", [
        ((), "jit"), (("linuxfp_eth0_xdp",), "jit+interp"), (("linuxfp_eth0_xdp", "linuxfp_dispatch_eth0"), "interp"),
    ], ids=["jit", "jit+interp", "interp"])
    def test_trace_names_the_executor(self, monkeypatch, declined, served):
        # fpmtool trace shows, on each fpm event, what served the run: the
        # JIT, the interpreter for a program the JIT declined, or both when
        # the dispatcher's chain resumed in the interpreter.
        real = engine_mod.compile_program

        def compile_some(program):
            if program.name in declined:
                return None, JitReport(status="fallback", error="declined by the test")
            return real(program)

        monkeypatch.setattr(engine_mod, "compile_program", compile_some)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert fpmtool.main(["--packets", "4", "trace", "--filter", "proto=udp", "--limit", "2"]) == 0
        events = [line.split("fpm ", 1)[1] for line in out.getvalue().splitlines() if " fpm " in line]
        assert events and set(events) == {"linuxfp_dispatch_eth0 [%s]" % served}

    def test_setup_compiles_nothing_and_each_program_compiles_once(self, monkeypatch):
        compiled = []
        real = engine_mod.compile_program

        def counting(program):
            compiled.append(program)
            return real(program)

        monkeypatch.setattr(engine_mod, "compile_program", counting)
        topo = setup_router("linuxfp")
        assert compiled == []
        _send_bursts(topo, bursts=2)
        entry = topo.controller.deployer.deployed["eth0"]
        ran = [entry.dispatcher.program, entry.current.program]
        assert sorted(map(id, compiled)) == sorted(map(id, ran))

    def test_each_program_analyzed_once_with_unchanged_fault_sites(self, monkeypatch):
        # Synthesis verifies and lints, the deployer and the loader verify
        # again, and the JIT compiles: one analysis serves all of them,
        # while every fault site fires as often as each step asks.
        runs = []
        real = interp._Interp.run

        def counting(self, *args):
            runs.append(self.name)
            return real(self, *args)

        monkeypatch.setattr(interp._Interp, "run", counting)
        sites = ("compile", "verify", "load", "prog_array")
        counts = []

        def step(action):
            before = dict(inj.evaluated)
            del runs[:]
            action()
            counts.append(
                (len(runs), tuple(inj.evaluated[s] - before.get(s, 0) for s in sites))
            )

        with faults.injected(seed=0) as inj:
            box = {}
            step(lambda: box.setdefault("topo", setup_router("linuxfp", hook="xdp")))
            topo = box["topo"]
            step(lambda: _send_bursts(topo, bursts=2))
            step(lambda: iptables(topo.dut, "-A FORWARD -s 10.9.9.9/32 -j DROP"))
            step(lambda: _send_bursts(topo, bursts=1))
        assert counts == [
            (4, (4, 8, 4, 2)),  # set-up: two fast paths, two dispatchers
            (0, (0, 0, 0, 0)),  # the JIT compiles from the kept analyses
            (2, (2, 6, 2, 2)),  # a structural change: two new fast paths
            (0, (0, 0, 0, 0)),
        ]

    def test_a_served_program_keeps_no_constant_facts(self):
        # Only the JIT's one compile reads the verifier's constant facts:
        # a served program holds neither, still runs compiled, and a later
        # compile of it proves it afresh into the same code.
        topo = setup_router("linuxfp", hook="xdp")
        _send_bursts(topo, bursts=1)
        entry = topo.controller.deployer.deployed["eth0"]
        programs = [entry.dispatcher.program, entry.current.program]
        for program in programs:
            assert program.jit[0] is not None
            assert program.analysis.consts is None
            assert program.analysis.results is None
        stats = dict(topo.dut.jit.stats)
        sent = topo.sink_eth.nic.stats.rx_packets
        _send_bursts(topo, bursts=1)
        assert topo.sink_eth.nic.stats.rx_packets - sent == 32
        assert topo.dut.jit.stats["jit_runs"] - stats["jit_runs"] == 32
        assert topo.dut.jit.stats["interp_runs"] == stats["interp_runs"]
        for program in programs:
            unit, report = compile_program(program)
            assert report.status == "compiled"
            assert unit.source == program.jit[0].source

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
