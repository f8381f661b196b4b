"""Program container and disassembly."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ebpf.isa import Insn
from repro.ebpf.maps import BpfMap

HOOK_XDP = "xdp"
HOOK_TC = "tc"
VALID_HOOKS = (HOOK_XDP, HOOK_TC)


class ProgramError(ValueError):
    """Raised for malformed program containers."""


@dataclass
class Program:
    """A verified-loadable unit: instructions plus referenced maps.

    ``maps[i]`` is the object an ``LD_MAP imm=i`` instruction resolves to,
    mirroring libbpf's map-fd relocation.
    """

    name: str
    insns: List[Insn]
    hook: str = HOOK_XDP
    maps: List[BpfMap] = field(default_factory=list)
    source: Optional[str] = None  # the mini-C the program was compiled from
    #: ``(unit, report)`` the JIT engine attaches on the program's first run
    #: (``unit`` is None when it fell back to the interpreter). It lives and
    #: dies with the program, and takes no part in ``==`` or ``repr``.
    jit: Optional[Tuple[object, object]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.hook not in VALID_HOOKS:
            raise ProgramError(f"bad hook {self.hook!r}")
        if not self.insns:
            raise ProgramError("empty program")

    def __len__(self) -> int:
        return len(self.insns)

    def disassemble(self) -> str:
        lines = [f"; program {self.name} ({self.hook}, {len(self.insns)} insns)"]
        for i, insn in enumerate(self.insns):
            lines.append(f"{i:4d}: {insn!r}")
        return "\n".join(lines)
