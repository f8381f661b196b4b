"""Seeded, deterministic fault injection for the LinuxFP control plane.

The controller's reliability story ("the slow path is always there to fall
back on") is only credible if every failure mode of the deploy pipeline is
exercised. This module provides kernel-style *fail points*: named injection
sites compiled into the production modules, plus an injector that decides —
deterministically, from a seed — whether a given site fires.

Sites
-----

========================  ====================================================
``compile``               :func:`repro.ebpf.minic.compile_c` (synthesis and
                          dispatcher builds)
``verify``                :func:`repro.ebpf.verifier.verify`: fires on every
                          verify call (every load re-verifies, as in
                          Linux), while the analysis itself runs once per
                          program and is kept on it
``load``                  :meth:`repro.ebpf.loader.Loader.load` (the
                          ``bpf(BPF_PROG_LOAD)`` step)
``prog_array``            :meth:`~repro.ebpf.maps.ProgArray.set_prog` (the
                          atomic slot update; clearing a slot never fails,
                          matching real prog-array delete semantics)
``map_update``            hash/array/LPM map updates
``netlink_deliver``       multicast notification delivery; actions are
                          ``drop`` (the message is lost and the socket's
                          overrun flag is raised — real netlink ENOBUFS
                          semantics: there is no *silent* loss) and ``dup``
                          (the message is delivered twice)
``link_flap``             device transmit (veth/physical): the frame is lost
                          as if the carrier dropped for an instant; the
                          device records a ``dev_link_down`` drop reason, so
                          the loss is visible, never silent
``backlog_overflow``      softirq enqueue (:meth:`repro.kernel.softirq.
                          SoftirqSet.enqueue`): the frame is refused as if
                          the target CPU's backlog were at
                          ``netdev_max_backlog``; accounted as a
                          ``backlog_overflow`` drop (action ``drop``)
``cpu_offline``           softirq dispatch: the frame's target CPU is
                          hot-unplugged mid-traffic
                          (:meth:`repro.kernel.kernel.Kernel.cpu_offline`);
                          never fires on the last online CPU (action
                          ``offline``)
========================  ====================================================

``link_flap``/``backlog_overflow``/``cpu_offline`` (the :data:`DATA_SITES`)
perturb the *data plane*, so :meth:`FaultInjector.arm_everything` skips them
by default — control-plane chaos must not silently turn into packet loss in
differential suites that assert fast-vs-slow output equivalence. Arm them
explicitly (or pass ``include_data_plane=True``) in suites that assert the
conservation ledger instead of per-packet equality.

Usage::

    from repro.testing import faults

    with faults.injected(seed=42) as inj:
        inj.arm("verify", count=1)          # next verify raises InjectedFault
        inj.arm("netlink_deliver", probability=0.2, action="drop")
        ...exercise the controller...
    assert inj.fired_at("verify")

The injector is process-global while installed (like kernel fail points);
the context manager guarantees removal. All randomness flows from the seed,
so a chaos run replays exactly.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

#: Every site with the actions it allows, in arming order; the first action
#: is the default. Raising sites raise :class:`InjectedFault` at the caller.
SITE_ACTIONS = {
    "compile": ("raise",),
    "verify": ("raise",),
    "load": ("raise",),
    "prog_array": ("raise",),
    "map_update": ("raise",),
    "netlink_deliver": ("drop", "dup"),
    "link_flap": ("drop",),
    "backlog_overflow": ("drop",),
    "cpu_offline": ("offline",),
}

SITES = tuple(SITE_ACTIONS)

#: Data-plane sites: firing one loses/perturbs *packets*, not control-plane
#: work. Excluded from :meth:`FaultInjector.arm_everything` unless asked for.
DATA_SITES = frozenset({"link_flap", "backlog_overflow", "cpu_offline"})


class InjectedFault(RuntimeError):
    """The failure an armed raising site produces."""

    def __init__(self, site: str, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"injected fault at {site}{suffix}")
        self.site = site
        self.detail = detail


@dataclass
class _Arm:
    site: str
    probability: float
    remaining: Optional[int]  # None = unlimited fires
    match: Optional[str]  # substring filter on the site detail
    action: str


class FaultInjector:
    """Decides, deterministically from a seed, which site evaluations fail."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self._arms: List[_Arm] = []
        self.fired: List[Tuple[str, str, str]] = []  # (site, detail, action)
        self.evaluated: Counter = Counter()  # site -> times consulted

    # ----------------------------------------------------------------- arming

    def arm(
        self,
        site: str,
        *,
        probability: float = 1.0,
        count: Optional[int] = None,
        match: Optional[str] = None,
        action: Optional[str] = None,
    ) -> _Arm:
        """Arm ``site``: each evaluation fails with ``probability``, at most
        ``count`` times (None = forever), only when ``match`` (a substring)
        appears in the site detail. ``action`` must be one the site allows
        in :data:`SITE_ACTIONS`; it defaults to the first."""
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r} (sites: {', '.join(SITES)})")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        valid = SITE_ACTIONS[site]
        action = action or valid[0]
        if action not in valid:
            raise ValueError(f"{site} action must be one of {valid}")
        arm = _Arm(site=site, probability=probability, remaining=count, match=match, action=action)
        self._arms.append(arm)
        return arm

    def arm_everything(
        self,
        probability: float,
        count: Optional[int] = None,
        include_data_plane: bool = False,
    ) -> None:
        """Chaos mode: every control-plane site armed at the same probability.

        Data-plane sites (``link_flap``, ``backlog_overflow``,
        ``cpu_offline``) drop packets or unplug CPUs, which would make the
        chaos suites' fast-vs-slow equivalence assertions diverge for reasons
        unrelated to the control plane — opt in with ``include_data_plane``.
        """
        for site in SITES:
            if site in DATA_SITES and not include_data_plane:
                continue
            self.arm(site, probability=probability, count=count)

    def disarm(self, site: Optional[str] = None) -> None:
        """Remove arms for ``site``, or every arm when ``site`` is None."""
        if site is None:
            self._arms = []
        else:
            self._arms = [a for a in self._arms if a.site != site]

    # --------------------------------------------------------------- deciding

    def decide(self, site: str, detail: str = "") -> Optional[str]:
        """The action for this evaluation (``None`` = proceed normally)."""
        self.evaluated[site] += 1
        for arm in self._arms:
            if arm.site != site:
                continue
            if arm.match is not None and arm.match not in detail:
                continue
            if arm.remaining is not None and arm.remaining <= 0:
                continue
            if arm.probability < 1.0 and self.rng.random() >= arm.probability:
                continue
            if arm.remaining is not None:
                arm.remaining -= 1
            self.fired.append((site, detail, arm.action))
            return arm.action
        return None

    def fired_at(self, site: str) -> List[Tuple[str, str, str]]:
        return [f for f in self.fired if f[0] == site]


# The installed injector. Module-global (like kernel fail points): sites are
# scattered across subsystems and must not need plumbing to reach it.
_active: Optional[FaultInjector] = None


def active() -> bool:
    return _active is not None


def current() -> Optional[FaultInjector]:
    return _active


def install(injector: FaultInjector) -> FaultInjector:
    global _active
    _active = injector
    return injector


def uninstall() -> None:
    global _active
    _active = None


@contextmanager
def injected(seed: int = 0, injector: Optional[FaultInjector] = None) -> Iterator[FaultInjector]:
    """Install an injector for the duration of the block."""
    inj = injector if injector is not None else FaultInjector(seed)
    install(inj)
    try:
        yield inj
    finally:
        uninstall()


def decide(site: str, detail: str = "") -> Optional[str]:
    """Site hook for non-raising sites (netlink delivery)."""
    if _active is None:
        return None
    return _active.decide(site, detail)


def fire(site: str, detail: str = "") -> None:
    """Site hook for raising sites: raises :class:`InjectedFault` when armed."""
    if _active is None:
        return
    if _active.decide(site, detail) is not None:
        raise InjectedFault(site, detail)
