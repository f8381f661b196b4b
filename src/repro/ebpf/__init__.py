"""The eBPF substrate: bytecode VM, verifier, maps, helpers, hooks, mini-C.

LinuxFP's fast paths are synthesized C programs compiled to eBPF and loaded
at the XDP or TC hook. This package reproduces that whole chain:

- :mod:`repro.ebpf.isa` — the register-machine instruction set.
- :mod:`repro.ebpf.program` — program containers and disassembly.
- :mod:`repro.ebpf.maps` — hash/array/LPM-trie/prog-array/dev maps.
- :mod:`repro.ebpf.helpers` — the kernel helper registry, including the
  paper's ``bpf_fib_lookup`` plus its two new helpers ``bpf_fdb_lookup``
  and ``bpf_ipt_lookup``.
- :mod:`repro.ebpf.verifier` — static safety checks (bounded size, no back
  edges, initialized registers, valid stack/jump/call usage).
- :mod:`repro.ebpf.vm` — the interpreter, with per-instruction cost
  accounting (this is what makes "less code ⇒ faster" measurable) and
  tail-call support.
- :mod:`repro.ebpf.hooks` — XDP/TC attachment wrappers honoring the kernel's
  hook contract (:mod:`repro.kernel.hooks_api`).
- :mod:`repro.ebpf.loader` — the libbpf-like load/verify/attach façade.
- :mod:`repro.ebpf.minic` — a mini-C compiler (lexer → parser → codegen)
  for the synthesized FPM sources.
"""

from repro.ebpf.isa import Insn, Op
from repro.ebpf.program import Program
from repro.ebpf.maps import ArrayMap, HashMap, LpmTrieMap, ProgArray
from repro.ebpf.vm import VM, VMError
from repro.ebpf.verifier import VerifierError, verify
from repro.ebpf.loader import Loader

__all__ = [
    "Insn",
    "Op",
    "Program",
    "ArrayMap",
    "HashMap",
    "LpmTrieMap",
    "ProgArray",
    "VM",
    "VMError",
    "VerifierError",
    "verify",
    "Loader",
]
