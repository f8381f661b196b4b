"""LinuxFP reproduction: transparently accelerating (simulated) Linux networking.

A complete Python reproduction of "LinuxFP: Transparently Accelerating
Linux Networking" (Abranches et al., ICDCS 2024) — the controller, every
substrate it depends on, the baseline platforms, and the paper's full
evaluation. See README.md for the tour and DESIGN.md for the
paper-environment → simulation substitution table.

Top-level convenience imports::

    from repro import Controller, Kernel, LineTopology

Package map:

- :mod:`repro.netsim` — packets, NICs, simulated clock + cost model
- :mod:`repro.netlink` — the management-plane protocol
- :mod:`repro.kernel` — the simulated Linux stack (the slow path)
- :mod:`repro.ebpf` — VM, verifier, maps, helpers, minic compiler
- :mod:`repro.tools` — iproute2/brctl/iptables/ipset/sysctl/ipvsadm/FRR
- :mod:`repro.core` — the LinuxFP controller (the paper's contribution)
- :mod:`repro.platforms` — Polycube-like and VPP-like baselines
- :mod:`repro.k8s` — cluster + Flannel CNI substrate
- :mod:`repro.measure` — pktgen/netperf/scenarios/flame graphs
"""

__version__ = "1.0.0"
__paper__ = "LinuxFP: Transparently Accelerating Linux Networking (ICDCS 2024)"

from repro.core import Controller
from repro.kernel import Kernel
from repro.measure import LineTopology

__all__ = ["Controller", "Kernel", "LineTopology", "__version__", "__paper__"]
