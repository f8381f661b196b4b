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

def _dut(accelerated):
    """A LineTopology DUT, on the synthesized XDP fast path or plain."""
    topo = LineTopology()
    topo.install_prefixes(4)
    if accelerated:
        Controller(topo.dut, hook="xdp").start()
    topo.prewarm_neighbors()
    out = []
    topo.sink_eth.nic.attach(lambda frame, q: out.append(frame))
    return topo, out


def _good_frame(topo):
    """A canonical forwardable UDP frame."""
    return make_udp(
        topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2",
        topo.flow_destination(0, 4), sport=1234, dport=53, ttl=32,
    ).to_bytes()


def _ipv4_payloads(frames):
    return [f[14:] for f in frames if f[12:14] == b"\x08\x00"]


def _outputs(frames_for, accelerated):
    """The IPv4 frames a DUT sends to the sink for ``frames_for(topo)``,
    one list per input frame."""
    topo, out = _dut(accelerated)
    per_frame = []
    for frame in frames_for(topo):
        sent = len(out)
        topo.dut_in.nic.receive_from_wire(frame)  # must not raise
        per_frame.append(_ipv4_payloads(out[sent:]))
    return per_frame


def _agree(frames_for, skip=()):
    """Send ``frames_for(topo)`` through an accelerated and a plain DUT:
    nothing raises, and the sink gets the same IPv4 frames from both for
    every input frame whose index is not in ``skip``."""
    fast, slow = _outputs(frames_for, True), _outputs(frames_for, False)
    assert [o for i, o in enumerate(fast) if i not in skip] == [o for i, o in enumerate(slow) if i not in skip]


class TestHostileFramesAcceleratedVsPlain:
    """Hostile frames between well-formed ones: the fast path never raises,
    and forwards what the plain kernel forwards. The property tests compare
    every frame around a damaged one; :meth:`test_damaged_header_agrees`
    compares the damaged frames themselves."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=6))
    def test_arbitrary_frames(self, data):
        _agree(lambda topo: [_good_frame(topo), *map(bytes, data), _good_frame(topo)])

    @settings(max_examples=80, deadline=None)
    @given(
        mutations=st.lists(
            st.tuples(st.integers(min_value=0, max_value=59), st.integers(min_value=0, max_value=255)),
            min_size=1,
            max_size=4,
        )
    )
    def test_mutations_of_a_forwarded_frame(self, mutations):
        def frames(topo):
            buf = bytearray(_good_frame(topo))
            for pos, val in mutations:
                buf[pos % len(buf)] = val
            return [_good_frame(topo)] * 3 + [bytes(buf)] + [_good_frame(topo)] * 2

        _agree(frames, skip={3})

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=59))
    def test_truncated_frames(self, cut):
        _agree(lambda topo: [_good_frame(topo), _good_frame(topo)[:cut], _good_frame(topo)], skip={1})

    def test_malformed_frames(self):
        _agree(lambda topo: [
            _good_frame(topo),
            b"",                                   # empty
            b"\x00" * 13,                          # shorter than an Ethernet header
            b"\xff" * 64,                          # broadcast garbage, bad ethertype
            _good_frame(topo)[:20],                # truncated mid-IP-header
            b"\x00" * 12 + b"\x08\x00" + b"\x46" + b"\x00" * 50,  # IHL 6, zeros
        ])

    def test_checksum_corruption(self):
        def frames(topo):
            good = _good_frame(topo)
            return [good, good[:24] + bytes([good[24] ^ 0xFF]) + good[25:], good]

        _agree(frames, skip={1})

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the router FPM checks neither the IPv4 header checksum, the version "
        "and IHL nor the total length against the frame, all of which ip_rcv "
        "drops; and the slow path recomputes the L4 checksum of a frame it "
        "forwards, which Linux leaves as it came"))
    @pytest.mark.parametrize("field", ["header-checksum", "version", "total-length", "udp-checksum"])
    def test_damaged_header_agrees(self, field):
        def frames(topo):
            good = bytearray(_good_frame(topo))
            if field == "total-length":
                return [bytes(good[:34])]
            offset = {"header-checksum": 24, "version": 14, "udp-checksum": 40}[field]
            good[offset] ^= 0xFF
            return [bytes(good)]

        _agree(frames)


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
        controller = Controller(topo.dut, hook="xdp")
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
