"""Dead-code elimination for the minic code generator.

Two primitives: :func:`reachable_pcs` (forward reachability over the
loop-free CFG) and :func:`remove_insns` (drop an index set and remap every
surviving jump to the compacted layout). :func:`eliminate_unreachable`
composes them; the code generator calls it to sweep the dead tails its
straight-line lowering leaves behind (the epilogue after an unconditional
``return``, inline-call fall-throughs).
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Iterable, List, Sequence, Set

from repro.ebpf.isa import JUMP_OPS, Insn, Op


def reachable_pcs(insns: Sequence[Insn]) -> Set[int]:
    """Instruction indices reachable from the entry point."""
    reachable: Set[int] = set()
    work = [0]
    while work:
        pc = work.pop()
        if pc in reachable or not 0 <= pc < len(insns):
            continue
        reachable.add(pc)
        op = insns[pc].op
        if op is Op.EXIT:
            continue
        if op is Op.JA:
            work.append(pc + 1 + insns[pc].off)
            continue
        if op in JUMP_OPS:
            work.append(pc + 1 + insns[pc].off)
        work.append(pc + 1)
    return reachable


def remove_insns(insns: Sequence[Insn], dead: Iterable[int]) -> List[Insn]:
    """Drop the ``dead`` indices, remapping jump offsets to the new layout.

    A jump whose target was removed retargets to the next surviving
    instruction. For unreachable code that retarget is
    semantics-preserving: the removed target can never execute.
    """
    dead_set = set(dead)
    if not dead_set:
        return list(insns)
    kept = [pc for pc in range(len(insns)) if pc not in dead_set]
    if not kept:
        raise ValueError("cannot remove every instruction")
    new_pos = {old: new for new, old in enumerate(kept)}

    def surviving_target(target: int) -> int:
        i = bisect.bisect_left(kept, target)
        if i == len(kept):
            raise ValueError(f"jump target {target} has no surviving successor")
        return i

    out: List[Insn] = []
    for old in kept:
        insn = insns[old]
        if insn.op in JUMP_OPS:
            target = old + 1 + insn.off
            insn = dataclasses.replace(insn, off=surviving_target(target) - new_pos[old] - 1)
        out.append(insn)
    return out


def eliminate_unreachable(insns: List[Insn]) -> List[Insn]:
    """Drop instructions unreachable from the entry point.

    Executed paths are untouched — only never-reached instructions are
    removed, with jump offsets remapped to the compacted layout.
    """
    reachable = reachable_pcs(insns)
    if len(reachable) == len(insns):
        return insns
    return remove_insns(insns, set(range(len(insns))) - reachable)
