"""Record the simulated clock that each helper call sees.

A compiled program charges its batched instruction counts before every
helper call, because helpers read the clock. Comparing only the clock at
the end of a run would miss a charge moved across a helper, so the JIT's
differential suites compare the clock at every call too.
"""

import contextlib

from repro.ebpf import helpers as helpers_mod


@contextlib.contextmanager
def clocked_helpers():
    """Wrap every registered helper so that each call appends ``(helper
    name, the caller's kernel clock in whole femtoseconds)`` to the list
    this yields. The JIT binds helper functions when it compiles, so a
    program must compile inside the block for its calls to be seen."""
    seen = []
    saved = dict(helpers_mod.HELPERS)

    def clocked(name, fn):
        def call(env, args):
            seen.append((name, env.kernel.clock._fs))
            return fn(env, args)
        return call

    try:
        for helper_id, (name, fn) in saved.items():
            helpers_mod.HELPERS[helper_id] = (name, clocked(name, fn))
        yield seen
    finally:
        helpers_mod.HELPERS.clear()
        helpers_mod.HELPERS.update(saved)


def forget_units(program):
    """Drop the compiled units of ``program`` and of the programs its prog
    arrays hold, so the next run compiles them again."""
    program.jit = None
    for bpf_map in program.maps:
        for target in getattr(bpf_map, "_progs", {}).values():
            getattr(target, "program", target).jit = None
