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
``verify``                :func:`repro.ebpf.verifier.verify` (every load
                          re-verifies, as in Linux)
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
``router_kill``           cluster: a fleet gateway loses power
                          (:meth:`repro.cluster.fleet.AnycastFleet.
                          kill_router` consults this site); its NICs stop
                          delivering received frames (action ``kill``)
``partition``             cluster: asymmetric partition — health probes
                          toward the matched router are lost while its data
                          plane keeps forwarding (action ``drop``)
``probe_flap``            cluster: one BFD-style health probe is lost
                          without any underlying failure, exercising the
                          detect-multiplier debounce (action ``miss``)
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

SITES = (
    "compile",
    "verify",
    "load",
    "prog_array",
    "map_update",
    "netlink_deliver",
    "link_flap",
    "backlog_overflow",
    "cpu_offline",
    "router_kill",
    "partition",
    "probe_flap",
)

#: Data-plane sites: firing one loses/perturbs *packets*, not control-plane
#: work. Excluded from :meth:`FaultInjector.arm_everything` unless asked for.
DATA_SITES = frozenset({"link_flap", "backlog_overflow", "cpu_offline"})

#: Cluster sites: fleet-level chaos (dead routers, partitions, probe loss).
#: They only make sense on a multi-router topology, so the failover harness
#: arms them explicitly; :meth:`FaultInjector.arm_everything` always skips
#: them (a single-gateway chaos run has no routers to kill).
CLUSTER_SITES = frozenset({"router_kill", "partition", "probe_flap"})

#: Valid actions per cluster site.
CLUSTER_SITE_ACTIONS = {
    "router_kill": ("kill",),
    "partition": ("drop",),
    "probe_flap": ("miss",),
}

#: Sites whose armed action is raising :class:`InjectedFault` at the caller.
RAISE_SITES = frozenset(
    s for s in SITES if s != "netlink_deliver" and s not in DATA_SITES and s not in CLUSTER_SITES
)

#: Valid actions for the ``netlink_deliver`` site.
NETLINK_ACTIONS = ("drop", "dup")

#: Valid actions per data-plane site.
DATA_SITE_ACTIONS = {
    "link_flap": ("drop",),
    "backlog_overflow": ("drop",),
    "cpu_offline": ("offline",),
}

#: Valid actions for the ``link_flap`` site (kept for suites that import it).
LINK_FLAP_ACTIONS = DATA_SITE_ACTIONS["link_flap"]


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
        appears in the site detail. ``action`` is meaningful only for
        ``netlink_deliver`` (``drop``/``dup``; default ``drop``)."""
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r} (sites: {', '.join(SITES)})")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if site in RAISE_SITES:
            if action not in (None, "raise"):
                raise ValueError(f"site {site!r} only supports action 'raise'")
            action = "raise"
        elif site in DATA_SITES:
            valid = DATA_SITE_ACTIONS[site]
            action = action or valid[0]
            if action not in valid:
                raise ValueError(f"{site} action must be one of {valid}")
        elif site in CLUSTER_SITES:
            valid = CLUSTER_SITE_ACTIONS[site]
            action = action or valid[0]
            if action not in valid:
                raise ValueError(f"{site} action must be one of {valid}")
        else:
            action = action or "drop"
            if action not in NETLINK_ACTIONS:
                raise ValueError(f"netlink_deliver action must be one of {NETLINK_ACTIONS}")
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
        Cluster sites (``router_kill``, ``partition``, ``probe_flap``) are
        always skipped: they only exist on multi-router fleets, which arm
        them explicitly.
        """
        for site in SITES:
            if site in CLUSTER_SITES:
                continue
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
