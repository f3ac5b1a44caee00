"""Cycle-level network-on-chip simulator (BookSim 2.0 substitute).

This subpackage implements a virtual-channel wormhole-switched NoC with
credit-based flow control, separable input-first allocation, XY and minimal
adaptive routing (with WPF-style non-atomic VC reuse), configurable link
widths, and the network-interface / injection-port variants studied in the
ARI paper (enhanced baseline, split-queue ARI NI, MultiPort).

The central entry point is :class:`repro.noc.network.Network`, built from a
:class:`repro.noc.network.NetworkConfig`.
"""

from repro.noc.buffer import InputPort, VirtualChannel
from repro.noc.flit import Flit, Packet, PacketType
from repro.noc.histogram import LatencyHistogram
from repro.noc.kernel import KERNELS, resolve_kernel
from repro.noc.link import Link
from repro.noc.network import Network, NetworkConfig
from repro.noc.ni import BaselineNI, EnhancedNI, MultiPortNI, NIKind, SplitNI, make_ni
from repro.noc.router import Router
from repro.noc.routing import MinimalAdaptiveRouting, RoutingAlgorithm, XYRouting
from repro.noc.stats import NetworkStats
from repro.noc.topology import MeshTopology, diamond_mc_placement
from repro.noc.trace import PacketTracer, TraceEvent

__all__ = [
    "Flit",
    "Packet",
    "PacketType",
    "Link",
    "VirtualChannel",
    "InputPort",
    "RoutingAlgorithm",
    "XYRouting",
    "MinimalAdaptiveRouting",
    "NIKind",
    "BaselineNI",
    "EnhancedNI",
    "SplitNI",
    "MultiPortNI",
    "make_ni",
    "Router",
    "MeshTopology",
    "diamond_mc_placement",
    "Network",
    "NetworkConfig",
    "NetworkStats",
    "KERNELS",
    "resolve_kernel",
    "LatencyHistogram",
    "PacketTracer",
    "TraceEvent",
]
