"""Abstract values for the range-tracking verifier.

Registers (and tracked stack slots) hold an :class:`AbstractVal`: a register
*type* mirroring the kernel verifier's ``bpf_reg_type`` lattice plus a u64
interval. For scalars the interval is the value range (umin/umax; the signed
view is derived, see :meth:`Range.signed`); for pointers it is the *offset*
range relative to the start of the pointed-to region, kept as unbounded
Python ints because the VM's fat pointers never wrap.

The transfer rules here are deliberately the interval-arithmetic core only —
no path logic, no memory model. Everything degrades soundly to ``[0, 2^64)``
(or an unbounded offset) when precision is lost; the interpreter rejects any
access it cannot prove, so imprecision can only cause false rejections,
never false acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

U64MAX = (1 << 64) - 1
S64MIN = -(1 << 63)

# --------------------------------------------------------------- value kinds

SCALAR = "scalar"
PTR_TO_PACKET = "ptr_to_packet"
#: A scalar whose value *is* the packet length — the role ``data_end`` plays
#: in real XDP. Comparing it refines the interpreter's packet-length range,
#: which is what makes ``if (len < 34) return;`` a usable bounds proof.
PACKET_LEN = "packet_len"
PTR_TO_STACK = "ptr_to_stack"
CONST_PTR_TO_MAP = "const_ptr_to_map"

#: Kinds that are a live fat pointer at runtime.
POINTER_KINDS = frozenset({PTR_TO_PACKET, PTR_TO_STACK})
#: Kinds that are a plain integer at runtime.
SCALAR_KINDS = frozenset({SCALAR, PACKET_LEN})


@dataclass(frozen=True)
class Range:
    """A closed interval ``[lo, hi]`` (unsigned for scalars)."""

    lo: int
    hi: int

    @staticmethod
    def const(value: int) -> "Range":
        return Range(value, value)

    @staticmethod
    def unknown() -> "Range":
        return Range(0, U64MAX)

    @staticmethod
    def sized(nbytes: int) -> "Range":
        """The value range of an ``nbytes``-wide big-endian load."""
        return Range(0, (1 << (8 * nbytes)) - 1)

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def signed(self) -> Optional[Tuple[int, int]]:
        """The signed-64 view ``[smin, smax]``, or None if it straddles."""
        if self.hi < 1 << 63:
            return (self.lo, self.hi)
        if self.lo >= 1 << 63:
            return (self.lo - (1 << 64), self.hi - (1 << 64))
        return None


def _low_mask(value: int) -> int:
    """The smallest all-ones mask covering ``value`` (0 → 0)."""
    return (1 << value.bit_length()) - 1


def alu_range(op_name: str, left: Range, right: Range) -> Range:
    """Abstract u64 ALU: the VM's ``_alu`` lifted to intervals.

    Any result that may wrap modulo 2^64 degrades to unknown rather than
    splitting the interval — matching the kernel verifier's umin/umax
    behaviour for overflowing ops.
    """
    if op_name == "add":
        lo, hi = left.lo + right.lo, left.hi + right.hi
        return Range(lo, hi) if hi <= U64MAX else Range.unknown()
    if op_name == "sub":
        if left.lo >= right.hi:
            return Range(left.lo - right.hi, left.hi - right.lo)
        return Range.unknown()
    if op_name == "mul":
        hi = left.hi * right.hi
        return Range(left.lo * right.lo, hi) if hi <= U64MAX else Range.unknown()
    if op_name == "div":  # unsigned; x/0 == 0
        if right.lo > 0:
            return Range(left.lo // right.hi, left.hi // right.lo)
        return Range(0, left.hi)  # divisor may be 0 (→ 0) or ≥1 (shrinks)
    if op_name == "mod":  # x % 0 == x
        if right.lo > 0:
            return Range(0, min(left.hi, right.hi - 1))
        return Range(0, left.hi)
    if op_name == "and":
        return Range(0, min(left.hi, right.hi))
    if op_name == "or":
        return Range(max(left.lo, right.lo), min(U64MAX, left.hi | _low_mask(right.hi)))
    if op_name == "xor":
        return Range(0, min(U64MAX, _low_mask(left.hi) | _low_mask(right.hi)))
    if op_name == "lsh":  # shift counts are masked & 63 at runtime
        if right.hi <= 63:
            hi = left.hi << right.hi
            return Range(left.lo << right.lo, hi) if hi <= U64MAX else Range.unknown()
        return Range.unknown()
    if op_name == "rsh":
        if right.hi <= 63:
            return Range(left.lo >> right.hi, left.hi >> right.lo)
        return Range(0, left.hi)
    if op_name == "neg":
        if left.is_const:
            return Range.const((-left.lo) & U64MAX)
        return Range.unknown()
    raise AssertionError(f"unknown ALU op {op_name}")  # pragma: no cover


# --------------------------------------------------------- branch refinement

#: (op name, branch taken?) → canonical relation ``left REL right``.
_RELATION = {
    ("jeq", True): "eq", ("jeq", False): "ne",
    ("jne", True): "ne", ("jne", False): "eq",
    ("jgt", True): "gt", ("jgt", False): "le",
    ("jge", True): "ge", ("jge", False): "lt",
    ("jlt", True): "lt", ("jlt", False): "ge",
    ("jle", True): "le", ("jle", False): "gt",
    ("jset", True): "set", ("jset", False): "nset",
}


def refine(op_name: str, taken: bool, left: Range, right: Range):
    """Feasibility + refined operand ranges for one branch outcome.

    Returns ``(feasible, left', right')``. The refined ranges are sound
    over-approximations of the operand values on that edge; an infeasible
    edge is pruned by the interpreter (and reported to the lint pass, which
    flags conditions with only one feasible outcome as redundant checks).
    """
    rel = _RELATION[(op_name, taken)]
    if rel == "eq":
        lo, hi = max(left.lo, right.lo), min(left.hi, right.hi)
        if lo > hi:
            return False, left, right
        meet = Range(lo, hi)
        return True, meet, meet
    if rel == "ne":
        if left.is_const and right.is_const and left.lo == right.lo:
            return False, left, right
        new_left, new_right = left, right
        if right.is_const:
            new_left = _trim(left, right.lo)
            if new_left is None:
                return False, left, right
        if left.is_const:
            new_right = _trim(right, left.lo)
            if new_right is None:
                return False, left, right
        return True, new_left, new_right
    if rel == "gt":  # left > right
        if left.hi <= right.lo:
            return False, left, right
        return True, Range(max(left.lo, right.lo + 1), left.hi), Range(right.lo, min(right.hi, left.hi - 1))
    if rel == "ge":
        if left.hi < right.lo:
            return False, left, right
        return True, Range(max(left.lo, right.lo), left.hi), Range(right.lo, min(right.hi, left.hi))
    if rel == "lt":
        if left.lo >= right.hi:
            return False, left, right
        return True, Range(left.lo, min(left.hi, right.hi - 1)), Range(max(right.lo, left.lo + 1), right.hi)
    if rel == "le":
        if left.lo > right.hi:
            return False, left, right
        return True, Range(left.lo, min(left.hi, right.hi)), Range(max(right.lo, left.lo), right.hi)
    if rel == "set":  # (left & right) != 0
        if left.is_const and right.is_const:
            return bool(left.lo & right.lo), left, right
        if left.hi == 0 or right.hi == 0:
            return False, left, right
        new_left = Range(max(left.lo, 1), left.hi) if right.lo > 0 else left
        return True, new_left, right
    if rel == "nset":
        if left.is_const and right.is_const:
            return not (left.lo & right.lo), left, right
        return True, left, right
    raise AssertionError(rel)  # pragma: no cover


def _trim(rng: Range, excluded: int) -> Optional[Range]:
    """Shave ``excluded`` off an interval endpoint (None when empty)."""
    lo, hi = rng.lo, rng.hi
    if lo == hi:
        return None if lo == excluded else rng
    if lo == excluded:
        return Range(lo + 1, hi)
    if hi == excluded:
        return Range(lo, hi - 1)
    return rng


@dataclass(frozen=True)
class AbstractVal:
    """One abstract register/slot value: a kind plus a range.

    For :data:`SCALAR` the range is the u64 value interval; for pointer
    kinds it is the byte offset into the region; for :data:`PACKET_LEN` the
    range lives in the interpreter state (all packet-length values alias the
    single tracked length) and the field here is ignored; for
    :data:`CONST_PTR_TO_MAP` the ``map`` field names the map object whose
    type and ``key_size``/``value_size`` the helper signatures check.
    """

    kind: str
    rng: Range
    map: Optional[object] = None
