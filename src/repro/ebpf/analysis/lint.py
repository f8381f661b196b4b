"""FPM lint: reusable findings on top of the verifier's coverage facts.

The abstract interpreter already walks every feasible path, so linting is
free: instructions it never reached are dead code, conditional jumps with a
single feasible outcome are redundant checks, and map slots never touched
by a reachable ``LD_MAP`` are unused. Lint reads the program's one
analysis (the one :func:`~repro.ebpf.verifier.verify` keeps on it) and
runs none of its own. Synthesized fast paths are expected to be lint-clean
— a finding means the synthesizer emitted code it did not need (CI runs
``python -m repro.tools.fpmlint`` over the whole template library to
enforce this).

Null checks on packet and stack pointers are never flagged as redundant:
the interpreter records both outcomes for them by construction, since
NULL-ness is not modeled as a numeric range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.ebpf.program import Program
from repro.ebpf.verifier import analyze


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnostic for a verified program."""

    program: str
    pc: Optional[int]
    code: str  # dead-code | redundant-check | unused-map
    message: str

    def __str__(self) -> str:
        where = f"@{self.pc}" if self.pc is not None else ""
        return f"{self.program}{where}: {self.code}: {self.message}"


def lint_program(
    program: Program,
    entry_regs: Tuple[int, ...] = (1, 2, 3),
    entry_kinds: Optional[Tuple[str, ...]] = None,
) -> List[LintFinding]:
    """Verify ``program`` and report lint findings.

    Raises :class:`~repro.ebpf.analysis.errors.VerifierError` if the program
    does not verify — lint findings are only meaningful for safe programs.
    """
    analysis = analyze(program, entry_regs, entry_kinds)
    findings: List[LintFinding] = []
    name = program.name

    for pc, insn in enumerate(program.insns):
        if pc not in analysis.visited:
            findings.append(
                LintFinding(name, pc, "dead-code", f"unreachable instruction {insn!r}")
            )

    for pc, outcomes in sorted(analysis.branch_outcomes.items()):
        if len(outcomes) == 1:
            which = "always taken" if True in outcomes else "never taken"
            findings.append(
                LintFinding(
                    name,
                    pc,
                    "redundant-check",
                    f"branch {program.insns[pc]!r} is {which} on every feasible path",
                )
            )

    for slot, bpf_map in enumerate(program.maps):
        if slot not in analysis.used_maps:
            map_name = getattr(bpf_map, "name", f"slot {slot}")
            findings.append(
                LintFinding(
                    name, None, "unused-map", f"map {map_name!r} (slot {slot}) is never referenced"
                )
            )

    return findings
