"""Compile-time values for the JIT's emitter.

While the translator emits a tree of blocks it tracks every register and
stack local as a constant, the Python variable that holds it, or a
:class:`Bytes` value: packet or stack bytes whose read is deferred until
something uses them, so that bytes moved piecewise through a register
become one slice copy. This module holds that algebra and the source text
of scalar ALU results, with the interpreter's 64-bit semantics.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ebpf.isa import MASK64

_SIGN_BIT = 1 << 63
_TWO64 = 1 << 64


def signed(imm: int) -> int:
    value = imm & MASK64
    return value - _TWO64 if value >= _SIGN_BIT else value


def signed_expr(expr: str) -> str:
    """Source for the signed 64-bit view of the scalar ``expr``."""
    return "(%s - %d if %s >= %d else %s)" % (expr, _TWO64, expr, _SIGN_BIT, expr)


def plus(expr: str, delta: int) -> str:
    """``expr + delta`` as generated source."""
    if delta == 0:
        return expr
    return "%s %s %d" % (expr, "-" if delta < 0 else "+", abs(delta))


def fold_alu(op_name: str, left: int, right: int) -> int:
    """The interpreter's scalar ALU on two constants."""
    if op_name == "add":
        return (left + right) & MASK64
    if op_name == "sub":
        return (left - right) & MASK64
    if op_name == "mul":
        return (left * right) & MASK64
    if op_name == "div":
        return left // right if right else 0
    if op_name == "mod":
        return left % right if right else left
    if op_name == "and":
        return left & right
    if op_name == "or":
        return left | right
    if op_name == "xor":
        return left ^ right
    if op_name == "lsh":
        return (left << (right & 63)) & MASK64
    return left >> (right & 63)  # rsh


def scalar_expr(op_name: str, lhs: str, rhs: str, right) -> str:
    """Source for a scalar ALU result from operand sources ``lhs`` and
    ``rhs``; ``right`` is the right operand's value when it is a constant."""
    const = type(right) is int
    if op_name in ("add", "sub", "mul"):
        return "(%s %s %s) & %d" % (lhs, {"add": "+", "sub": "-", "mul": "*"}[op_name], rhs, MASK64)
    if op_name == "div":
        if const:
            return "%s // %d" % (lhs, right) if right else "0"
        return "%s // %s if %s else 0" % (lhs, rhs, rhs)
    if op_name == "mod":
        if const:
            return "%s %% %d" % (lhs, right) if right else lhs
        return "%s %% %s if %s else %s" % (lhs, rhs, rhs, lhs)
    if op_name in ("and", "or", "xor"):
        return "%s %s %s" % (lhs, {"and": "&", "or": "|", "xor": "^"}[op_name], rhs)
    if op_name == "lsh":
        if const:
            return "(%s << %d) & %d" % (lhs, right & 63, MASK64)
        return "(%s << (%s & 63)) & %d" % (lhs, rhs, MASK64)
    if const:  # rsh
        return "%s >> %d" % (lhs, right & 63)
    return "%s >> (%s & 63)" % (lhs, rhs)


def bytes_alu(op_name: str, left, right) -> Optional[Bytes]:
    """A deferred read shifted, masked or ORed by whole bytes stays
    deferred; anything else is None."""
    if not isinstance(left, Bytes):
        if op_name == "or" and isinstance(right, Bytes) and left == 0:
            return right
        return None
    if type(right) is int:
        if op_name == "lsh" and right % 8 == 0 and right < 64 and left.width + right // 8 <= 8:
            return Bytes(left.parts + ((None, 0, right // 8),))
        if op_name == "rsh" and right % 8 == 0 and right < 64:
            return left.drop(right // 8)
        if op_name == "and" and right and (right + 1) & right == 0 and right.bit_length() % 8 == 0:
            return left.tail(right.bit_length() // 8)
        if op_name == "or" and right == 0:
            return left
        return None
    if op_name == "or" and isinstance(right, Bytes):
        for high, low in ((left, right), (right, left)):
            zeros = high.parts[-1] if high.parts else None
            if zeros is not None and zeros[0] is None and zeros[2] - zeros[1] >= low.width:
                pad = (None, 0, zeros[2] - zeros[1] - low.width)
                return Bytes(high.parts[:-1] + (pad,) + low.parts)
    return None


class Bytes:
    """A deferred read: the big-endian integer of ``parts``, most
    significant first, each ``(buffer, low, high)`` with buffer None for
    zero bytes. Reading is put off until the value is used, and forced
    before anything writes the bytes, so it reads what the load read."""

    __slots__ = ("parts", "width")

    def __init__(self, parts) -> None:
        merged: List[Tuple[Optional[str], int, int]] = []
        for buf, low, high in parts:
            if high <= low or (buf is None and not merged):
                continue  # empty, or a leading zero byte (no effect on the value)
            if merged:
                pbuf, plow, phigh = merged[-1]
                if pbuf == buf and (buf is None or phigh == low):
                    merged[-1] = (buf, plow, phigh + high - low)
                    continue
            merged.append((buf, low, high))
        self.parts = tuple(merged)
        self.width = sum(high - low for __, low, high in merged)

    def expr(self) -> str:
        terms, shift = [], 0
        for buf, low, high in reversed(self.parts):
            if buf is not None:
                if high - low == 1:
                    read = "%s[%d]" % (buf, low)
                else:
                    read = 'int.from_bytes(%s[%d:%d], "big")' % (buf, low, high)
                terms.append(read if not shift else "%s << %d" % (read, shift))
            shift += 8 * (high - low)
        if not terms:
            return "0"
        if len(terms) == 1 and " << " not in terms[0]:
            return terms[0]
        return "(%s)" % " | ".join(reversed(terms))

    def tail(self, nbytes: int) -> "Bytes":
        """The value's low ``nbytes`` bytes."""
        out, need = [], nbytes
        for buf, low, high in reversed(self.parts):
            if need <= 0:
                break
            take = min(need, high - low)
            out.append((buf, high - take, high))
            need -= take
        return Bytes(reversed(out))

    def drop(self, nbytes: int) -> "Bytes":
        """The value shifted right by ``nbytes`` bytes."""
        parts = list(self.parts)
        while nbytes and parts:
            buf, low, high = parts.pop()
            if high - low > nbytes:
                parts.append((buf, low, high - nbytes))
                nbytes = 0
            else:
                nbytes -= high - low
        return Bytes(parts)

    def touches(self, buf: str, low: int, high: Optional[int]) -> bool:
        return any(
            b == buf and (high is None or (lo < high and low < hi)) for b, lo, hi in self.parts
        )


class State:
    """One path's values and counters while a tree of blocks is emitted.

    ``vals[loc]`` is None (undefined or dead), an int (a constant), a str
    (the Python variable holding it) or a :class:`Bytes`. ``k`` counts
    the instructions executed since the tree's root; the count at the root
    is 0 in the entry tree (``dyn`` False) and ``_n`` in a join's tree.
    ``kc`` is the count at the last charge, relative to the same base, or
    None when it is the runtime ``_c``.
    """

    __slots__ = ("vals", "k", "dyn", "kc")

    def __init__(self, vals, k: int, dyn: bool, kc: Optional[int]) -> None:
        self.vals = vals
        self.k = k
        self.dyn = dyn
        self.kc = kc

    def copy(self) -> "State":
        return State(list(self.vals), self.k, self.dyn, self.kc)

    def count(self) -> str:
        if not self.dyn:
            return str(self.k)
        return "_n + %d" % self.k if self.k else "_n"
