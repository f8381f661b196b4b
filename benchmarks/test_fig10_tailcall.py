"""Fig 10: chaining N trivial network functions — function call vs tail call.

The paper's platform-independent microbenchmark: N trivial NFs in front of
one function that rewrites Ethernet/IP headers and XDP_REDIRECTs out the
other interface. Inlined function calls keep throughput ~steady; tail calls
lose ~1 % per added function.
"""

from repro.ebpf.loader import Loader
from repro.ebpf.maps import ProgArray
from repro.ebpf.minic import compile_c
from repro.measure.pktgen import Pktgen
from repro.measure.topology import LineTopology

NS = tuple(range(0, 11))

FORWARD_BODY = """
    u64 dst = ld32(pkt, 30);
    u64 fib[2];
    if (fib_lookup(dst, fib) != 0) { return 2; }
    st48(pkt, 0, ld48(fib, 10));
    st48(pkt, 6, ld48(fib, 4));
    return redirect(ld32(fib, 0), 0);
"""


def build_function_call_chain(n):
    """One program: N trivial inlined NFs, then the forwarding NF."""
    parts = []
    for i in range(n):
        parts.append(f"static u64 nf{i}(u8* pkt) {{ if (ld16(pkt, 12) == 0) {{ return 1; }} return 0; }}")
    calls = "\n".join(f"    if (nf{i}(pkt) != 0) {{ return 1; }}" for i in range(n))
    source = "\n".join(parts) + f"""
u32 main(u8* pkt, u64 len, u64 ifindex) {{
    if (len < 34) {{ return 2; }}
{calls}
{FORWARD_BODY}
}}
"""
    return compile_c(source, name=f"fnchain{n}", hook="xdp")


def build_tail_call_chain(n, jmp):
    """N+1 programs chained through a prog array."""
    programs = []
    for i in range(n):
        source = f"""
extern map jmp;
u32 main(u8* pkt, u64 len, u64 ifindex) {{
    if (len < 34) {{ return 2; }}
    if (ld16(pkt, 12) == 0) {{ return 1; }}
    tail_call(pkt, jmp, {i + 1});
    return 2;
}}
"""
        programs.append(compile_c(source, name=f"tc_nf{i}", hook="xdp", maps={"jmp": jmp}))
    final = compile_c(
        f"u32 main(u8* pkt, u64 len, u64 ifindex) {{\n    if (len < 34) {{ return 2; }}\n{FORWARD_BODY}\n}}",
        name="tc_fwd",
        hook="xdp",
    )
    programs.append(final)
    for i, program in enumerate(programs):
        jmp.set_prog(i, program)
    return programs[0]


def measure(variant, n):
    topo = LineTopology()
    topo.install_prefixes(8)
    topo.prewarm_neighbors()
    loader = Loader(topo.dut)
    if variant == "function":
        head = build_function_call_chain(n)
    else:
        jmp = ProgArray("jmp", max_entries=16)
        head = build_tail_call_chain(n, jmp)
    loader.attach_xdp("eth0", loader.load(head))
    result = Pktgen(topo, num_prefixes=8).throughput(cores=1, packets=400)
    assert result.delivery_ratio == 1.0
    return result.mpps


def run_fig10():
    return {
        variant: [measure(variant, n) for n in NS]
        for variant in ("function", "tailcall")
    }


def test_fig10_function_vs_tail_call(benchmark, report):
    series = benchmark.pedantic(run_fig10, rounds=1, iterations=1)

    lines = ["N NFs     " + " ".join(str(n).rjust(7) for n in NS)]
    for variant in ("function", "tailcall"):
        lines.append(f"{variant:9s} " + " ".join(f"{v:7.3f}" for v in series[variant]))
    fn_drop = 1 - series["function"][-1] / series["function"][0]
    tc_drop = 1 - series["tailcall"][-1] / series["tailcall"][0]
    lines.append(f"(Mpps; drop over 10 NFs: function={fn_drop * 100:.1f}%, tailcall={tc_drop * 100:.1f}%)")
    report.table("fig10_tailcall", "Fig 10: function call vs tail call", lines)

    # paper: tail calls lose ~1% per added function; function calls steady
    per_fn_tail = tc_drop / 10
    per_fn_inline = fn_drop / 10
    assert 0.004 < per_fn_tail < 0.02
    assert per_fn_inline < per_fn_tail / 2
    assert series["function"][10] > series["tailcall"][10]
