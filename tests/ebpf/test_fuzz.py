"""Fuzz-style robustness tests: hostile inputs must fail *cleanly*.

The safety story of the eBPF substrate is that nothing a program (or a
malformed message) does can crash the host — errors surface as typed
exceptions (VerifierError/VMError/CodecError/PacketError), never as
arbitrary Python faults.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Controller
from repro.ebpf.isa import MEM_SIZES, NUM_REGS, Insn, Op
from repro.ebpf.program import Program, ProgramError
from repro.ebpf.verifier import VerifierError, verify
from repro.ebpf.vm import VM, Env, VMError
from repro.kernel import Kernel
from repro.measure.topology import LineTopology
from repro.netlink.codec import CodecError, unpack_attrs
from repro.netlink.messages import NetlinkMsg
from repro.netsim.packet import Packet, PacketError, make_udp

SIMPLE_OPS = [
    Op.MOV_IMM, Op.MOV_REG, Op.ADD_IMM, Op.ADD_REG, Op.SUB_IMM, Op.MUL_REG,
    Op.DIV_REG, Op.AND_IMM, Op.OR_REG, Op.LSH_IMM, Op.RSH_IMM, Op.NEG,
    Op.LDX, Op.STX, Op.ST_IMM, Op.JA, Op.JEQ_IMM, Op.JNE_REG, Op.JGT_IMM,
    Op.JSET_IMM, Op.CALL, Op.EXIT,
]

random_insns = st.lists(
    st.builds(
        Insn,
        op=st.sampled_from(SIMPLE_OPS),
        dst=st.integers(min_value=0, max_value=NUM_REGS - 1),
        src=st.integers(min_value=0, max_value=NUM_REGS - 1),
        off=st.integers(min_value=-16, max_value=16),
        imm=st.integers(min_value=-256, max_value=256),
    ),
    min_size=1,
    max_size=24,
)


class TestVerifierVmFuzz:
    @settings(max_examples=200, deadline=None)
    @given(insns=random_insns)
    def test_verifier_never_crashes(self, insns):
        program = Program("fuzz", insns, hook="xdp")
        try:
            verify(program)
        except VerifierError:
            pass  # rejection is the expected outcome for garbage

    @settings(max_examples=150, deadline=None)
    @given(insns=random_insns)
    def test_verified_programs_execute_safely(self, insns):
        """Anything the verifier accepts must run to completion or abort
        with VMError — no other exception, no hang."""
        program = Program("fuzz", insns, hook="xdp")
        try:
            verify(program)
        except VerifierError:
            return
        kernel = Kernel("fuzz")
        vm = VM(kernel, insn_limit=10_000)
        try:
            result = vm.run(program, [0, 0, 0], Env(kernel, 4))
            assert isinstance(result, int)
        except VMError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(insns=random_insns)
    @example(insns=[Insn(Op.MOV_IMM, dst=0), Insn(Op.STX, dst=10, src=0, imm=-1)])  # negative access size
    def test_unverified_execution_only_raises_vmerror(self, insns):
        """Even bypassing the verifier (as baselines may), the VM defends
        itself: VMError is the only failure mode."""
        program = Program("fuzz", insns, hook="xdp")
        kernel = Kernel("fuzz")
        vm = VM(kernel, insn_limit=10_000)
        try:
            vm.run(program, [0, 0, 0], Env(kernel, 4))
        except VMError:
            pass


class TestDecoderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=120))
    def test_attr_decoder_never_crashes(self, data):
        try:
            unpack_attrs(data)
        except CodecError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=120))
    def test_netlink_parse_never_crashes(self, data):
        try:
            NetlinkMsg.parse_stream(data)
        except CodecError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=120))
    def test_packet_parse_never_crashes(self, data):
        try:
            Packet.from_bytes(data)
        except PacketError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(min_size=14, max_size=200))
    def test_stack_survives_arbitrary_frames(self, data):
        """Garbage off the wire must never take the kernel down."""
        kernel = Kernel("fuzz")
        dev = kernel.add_physical("eth0")
        kernel.set_link("eth0", True)
        kernel.add_address("eth0", "10.0.0.1/24")
        dev.nic.receive_from_wire(bytes(data))  # must not raise

def _accelerated_dut(flow_cache):
    """A LineTopology DUT running the synthesized XDP fast path."""
    topo = LineTopology()
    topo.install_prefixes(4)
    Controller(topo.dut, hook="xdp", flow_cache=flow_cache).start()
    topo.prewarm_neighbors()
    out = []
    topo.sink_eth.nic.attach(lambda frame, q: out.append(frame))
    return topo, out


def _good_frame(topo):
    """A canonical forwardable UDP frame (the flow the cache will hold)."""
    return make_udp(
        topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2",
        topo.flow_destination(0, 4), sport=1234, dport=53, ttl=32,
    ).to_bytes()


def _ipv4_payloads(frames):
    return [f[14:] for f in frames if f[12:14] == b"\x08\x00"]


class TestFlowCacheFuzz:
    """Hostile frames through the flow-cache path: the cache must fail open
    (bypass to the full program), never raise, and never serve a verdict
    recorded for a different packet (cache poisoning)."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=6))
    def test_arbitrary_frames_never_raise_or_poison(self, data):
        on_topo, on_out = _accelerated_dut(flow_cache=True)
        off_topo, off_out = _accelerated_dut(flow_cache=False)
        good_on, good_off = _good_frame(on_topo), _good_frame(off_topo)
        # seed the cache with a legitimate flow, then batter it with garbage
        on_topo.dut_in.nic.receive_from_wire(good_on)
        off_topo.dut_in.nic.receive_from_wire(good_off)
        for frame in data:
            on_topo.dut_in.nic.receive_from_wire(bytes(frame))   # must not raise
            off_topo.dut_in.nic.receive_from_wire(bytes(frame))
        # the cached entry must still replay the *original* verdict
        on_topo.dut_in.nic.receive_from_wire(good_on)
        off_topo.dut_in.nic.receive_from_wire(good_off)
        assert _ipv4_payloads(on_out) == _ipv4_payloads(off_out)

    @settings(max_examples=80, deadline=None)
    @given(
        mutations=st.lists(
            st.tuples(st.integers(min_value=0, max_value=59), st.integers(min_value=0, max_value=255)),
            min_size=1,
            max_size=4,
        )
    )
    def test_mutations_of_cached_flow_frame(self, mutations):
        """Bit-flipped variants of a cached flow's frame must never be served
        that flow's cached actions: cache-on and cache-off agree exactly."""
        on_topo, on_out = _accelerated_dut(flow_cache=True)
        off_topo, off_out = _accelerated_dut(flow_cache=False)
        good_on, good_off = _good_frame(on_topo), _good_frame(off_topo)
        # hot cache: the entry for this exact flow exists and has been hit
        for _ in range(3):
            on_topo.dut_in.nic.receive_from_wire(good_on)
            off_topo.dut_in.nic.receive_from_wire(good_off)

        def mutate(frame):
            buf = bytearray(frame)
            for pos, val in mutations:
                buf[pos % len(buf)] = val
            return bytes(buf)

        on_topo.dut_in.nic.receive_from_wire(mutate(good_on))    # must not raise
        off_topo.dut_in.nic.receive_from_wire(mutate(good_off))
        assert _ipv4_payloads(on_out) == _ipv4_payloads(off_out)

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=59))
    def test_truncated_frames_bypass_cleanly(self, cut):
        """Every truncation of a valid frame is handled without raising and
        agrees with the cache-off DUT."""
        on_topo, on_out = _accelerated_dut(flow_cache=True)
        off_topo, off_out = _accelerated_dut(flow_cache=False)
        good_on, good_off = _good_frame(on_topo), _good_frame(off_topo)
        on_topo.dut_in.nic.receive_from_wire(good_on)
        off_topo.dut_in.nic.receive_from_wire(good_off)
        on_topo.dut_in.nic.receive_from_wire(good_on[:cut])
        off_topo.dut_in.nic.receive_from_wire(good_off[:cut])
        assert _ipv4_payloads(on_out) == _ipv4_payloads(off_out)

    def test_unkeyable_garbage_never_enters_cache(self):
        """Frames that fail flow-key extraction are bypasses: they must not
        create cache entries, only bump the bypass counter."""
        topo, _ = _accelerated_dut(flow_cache=True)
        cache = topo.dut.flow_cache
        topo.dut_in.nic.receive_from_wire(_good_frame(topo))
        assert len(cache) == 1
        hostile = [
            b"",                                   # empty
            b"\x00" * 13,                          # shorter than an Ethernet header
            b"\xff" * 64,                          # broadcast garbage, bad ethertype
            _good_frame(topo)[:20],                # truncated mid-IP-header
            b"\x00" * 12 + b"\x08\x00" + b"\x46" + b"\x00" * 50,  # IHL != 5
        ]
        before = dict(cache.stats.bypasses)
        for frame in hostile:
            topo.dut_in.nic.receive_from_wire(frame)
        assert len(cache) == 1  # nothing new was recorded
        assert sum(cache.stats.bypasses.values()) > sum(before.values())

    def test_checksum_corruption_misses_cache(self):
        """A frame whose IP checksum is wrong must not hit the cached entry
        for the same 5-tuple — the kernel drops it on both paths."""
        on_topo, on_out = _accelerated_dut(flow_cache=True)
        off_topo, off_out = _accelerated_dut(flow_cache=False)
        good_on, good_off = _good_frame(on_topo), _good_frame(off_topo)
        on_topo.dut_in.nic.receive_from_wire(good_on)
        off_topo.dut_in.nic.receive_from_wire(good_off)

        def corrupt(frame):
            buf = bytearray(frame)
            buf[24] ^= 0xFF  # IP header checksum byte
            return bytes(buf)

        hits_before = dict(on_topo.dut.flow_cache.stats.hits)
        on_topo.dut_in.nic.receive_from_wire(corrupt(good_on))
        off_topo.dut_in.nic.receive_from_wire(corrupt(good_off))
        assert dict(on_topo.dut.flow_cache.stats.hits) == hits_before
        assert _ipv4_payloads(on_out) == _ipv4_payloads(off_out)


class TestProgramConstruction:
    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError):
            Program("empty", [], hook="xdp")

    def test_bad_hook_rejected(self):
        with pytest.raises(ProgramError):
            Program("x", [Insn(Op.EXIT)], hook="socket")


class TestDifferentialFuzz:
    """The verifier's prize property, checked differentially: a program the
    range-tracking pass *accepts* can never fault memory at runtime. A
    fat-pointer violation (VMError) on an accepted program is a verifier
    soundness bug and fails the test — it is not an acceptable drop."""

    @settings(max_examples=300, deadline=None)
    @given(insns=random_insns, frame=st.binary(max_size=64))
    def test_accepted_programs_never_fault(self, insns, frame):
        from repro.ebpf.memory import Pointer, Region

        program = Program("fuzz", insns, hook="xdp")
        try:
            verify(program)
        except VerifierError:
            return
        kernel = Kernel("fuzz")
        vm = VM(kernel, insn_limit=10_000)
        region = Region("pkt", bytearray(frame))
        # run with the real hook ABI: r1=packet ptr, r2=length, r3=ifindex
        result = vm.run(program, [Pointer(region, 0), len(frame), 4], Env(kernel, 4))
        assert isinstance(result, int)

    def test_rejected_template_mutant_fails_closed(self):
        """Stripping the packet-length guard from a synthesized fast path
        makes the verifier reject it; deploy() degrades instead of serving
        the unsafe program, and traffic still forwards via the slow path."""
        from repro.core.synthesizer import SynthesizedPath
        from repro.ebpf.minic import compile_c

        topo = LineTopology()
        topo.install_prefixes(4)
        controller = Controller(topo.dut, hook="xdp", flow_cache=False)
        controller.start()
        topo.prewarm_neighbors()
        out = []
        topo.sink_eth.nic.attach(lambda frame, q: out.append(frame))

        deployer = controller.deployer
        ifname, entry = next(
            (name, e) for name, e in deployer.deployed.items() if e.current is not None
        )
        mutant_source = entry.current.source.replace("if (len < 34) { return 2; }", "")
        assert mutant_source != entry.current.source
        mutant = SynthesizedPath(
            ifname=ifname,
            program=compile_c(mutant_source, name="mutant", hook="xdp"),
            source=mutant_source,
            pruned_nfs=[],
        )

        assert deployer.deploy(mutant) is False
        failure = deployer.failures[ifname]
        assert failure.stage == "verify"
        assert failure.detail is not None
        assert failure.detail["code"] == "packet-out-of-bounds"

        topo.dut_in.nic.receive_from_wire(_good_frame(topo))
        assert out, "slow path must keep forwarding after a rejected deploy"
