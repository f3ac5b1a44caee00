"""Model-level static checks: routing deadlock freedom + configuration sizing.

Two analysis groups run over a resolved :class:`ModelInputs` (scheme +
overrides + mesh geometry, i.e. everything a
:class:`~repro.experiments.runner.RunSpec` contributes to network
construction):

* **Routing checks** build the escape-channel dependency graph
  (:mod:`repro.staticcheck.cdg`) for each physical network and prove it
  acyclic and all-pairs reachable — on the pristine mesh (errors) and,
  when a :class:`~repro.faults.model.FaultPlan` is attached, once per
  distinct fault epoch with the same detour routing the simulator would
  use (warnings: the runtime degrades gracefully via drops and the
  deadlock recorder, so campaigns must not be blocked).
* **Config checks** validate the paper's sizing rules — Eq. 1
  (``S >= InjRate_pkt x N_flits``), Eq. 2 (``S <= min(N_out, N_VC)``),
  split-queue count vs. injection VCs, credit round trip vs. VC depth,
  req/reply VC-class separation, starvation-threshold sanity — and flag
  overridden knobs the selected scheme ignores.

Severity policy mirrors the builder in :mod:`repro.gpu.system`: where the
builder silently clamps a *scheme default* (speedup / split queues vs. a
small ``num_vcs``) the finding is a WARNING; the same overflow requested
*explicitly* on a spec is an ERROR, because the run would not measure what
was asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.schemes import Scheme, scheme as get_scheme
from repro.core.speedup import required_speedup, speedup_upper_bound
from repro.gpu.config import GPUConfig
from repro.noc.credit import credit_round_trip_cycles
from repro.noc.routing import (
    DIRECTION_NAMES,
    RoutingAlgorithm,
    make_routing,
    opposite,
)
from repro.noc.topology import MeshTopology, default_placement
from repro.staticcheck.cdg import (
    EMPTY_LINKS,
    LinkSet,
    all_pairs_unreachable,
    build_escape_cdg,
)
from repro.staticcheck.diagnostics import CheckReport, Severity

#: Non-local router output ports on a 2D mesh (Eq. 2's N_out at an
#: interior router; edge/corner MCs are flagged separately by mc-degree).
MESH_NONLOCAL_OUTPUTS = 4

#: Reply overlays the builder knows how to construct.
KNOWN_OVERLAYS = ("mesh", "da2mesh")

#: Cap on per-rule pair listings so huge cuts stay readable.
_MAX_LISTED = 4


@dataclass(frozen=True)
class ModelInputs:
    """Everything the model checks need, decoupled from RunSpec itself."""

    scheme: str
    mesh: int = 6
    cycles: int = 1500
    warmup: int = 400
    num_vcs: Optional[int] = None
    priority_levels: Optional[int] = None
    injection_speedup: Optional[int] = None
    num_split_queues: Optional[int] = None
    starvation_threshold: Optional[int] = None
    mc_placement: Optional[str] = None
    noc_hop_latency: Optional[int] = None
    faults: Optional[str] = None
    fault_detour: bool = True

    @classmethod
    def from_spec(cls, spec) -> "ModelInputs":
        """Project a :class:`~repro.experiments.runner.RunSpec`."""
        return cls(
            scheme=spec.scheme,
            mesh=spec.mesh,
            cycles=spec.cycles,
            warmup=spec.warmup,
            num_vcs=spec.num_vcs,
            priority_levels=spec.priority_levels,
            injection_speedup=spec.injection_speedup,
            num_split_queues=spec.num_split_queues,
            starvation_threshold=spec.starvation_threshold,
            mc_placement=spec.mc_placement,
            noc_hop_latency=spec.noc_hop_latency,
            faults=spec.faults,
            fault_detour=(
                True if spec.fault_detour is None else spec.fault_detour
            ),
        )

    @property
    def explicit(self) -> FrozenSet[str]:
        """ARI knob names explicitly overridden on this spec."""
        return frozenset(
            name
            for name in (
                "priority_levels",
                "injection_speedup",
                "num_split_queues",
                "starvation_threshold",
            )
            if getattr(self, name) is not None
        )


@dataclass
class ResolvedModel:
    """The constructed-but-not-simulated view the checks run against."""

    inputs: ModelInputs
    config: GPUConfig
    scheme: Scheme
    topology: MeshTopology
    mc_nodes: List[int]
    cc_nodes: List[int]
    num_vcs: int
    routing: RoutingAlgorithm

    @property
    def location(self) -> str:
        return f"scheme={self.scheme.name} mesh={self.inputs.mesh}"


def resolve(inputs: ModelInputs, report: CheckReport) -> Optional[ResolvedModel]:
    """Build the checked view; config-resolve errors end the model pass."""
    loc = f"scheme={inputs.scheme} mesh={inputs.mesh}"
    try:
        overrides = {}
        if inputs.mc_placement is not None:
            overrides["mc_placement"] = inputs.mc_placement
        if inputs.noc_hop_latency is not None:
            overrides["noc_hop_latency"] = inputs.noc_hop_latency
        config = GPUConfig.scaled(inputs.mesh, **overrides)
    except ValueError as exc:
        report.add(
            "config-resolve", Severity.ERROR, loc, str(exc),
            "use a supported mesh size (4/6/8) and placement",
        )
        return None
    sch = get_scheme(inputs.scheme)  # unknown scheme: KeyError, as elsewhere
    try:
        if inputs.priority_levels is not None:
            sch = sch.with_priority_levels(inputs.priority_levels)
        if inputs.injection_speedup is not None:
            sch = sch.with_speedup(inputs.injection_speedup)
        if inputs.num_split_queues is not None:
            sch = sch.with_split_queues(inputs.num_split_queues)
        if inputs.starvation_threshold is not None:
            sch = sch.with_starvation_threshold(inputs.starvation_threshold)
    except ValueError as exc:
        report.add(
            "config-resolve", Severity.ERROR, loc, str(exc),
            "ARI overrides must be positive integers",
        )
        return None
    try:
        routing = make_routing(sch.routing)
    except ValueError as exc:
        report.add(
            "config-resolve", Severity.ERROR, loc, str(exc),
            "fix the scheme's routing name",
        )
        return None
    if sch.reply_overlay not in KNOWN_OVERLAYS:
        report.add(
            "config-resolve", Severity.ERROR, loc,
            f"unknown reply overlay {sch.reply_overlay!r}",
            f"known overlays: {', '.join(KNOWN_OVERLAYS)}",
        )
        return None
    num_vcs = inputs.num_vcs if inputs.num_vcs is not None else config.num_vcs
    if num_vcs < 1:
        report.add(
            "config-resolve", Severity.ERROR, loc,
            f"num_vcs must be >= 1, got {num_vcs}",
            "every port needs at least one virtual channel",
        )
        return None
    topology = MeshTopology(config.mesh_width, config.mesh_height)
    mcs, ccs = default_placement(
        config.mesh_width,
        config.mesh_height,
        config.num_mcs,
        config.mc_placement,
    )
    return ResolvedModel(
        inputs=inputs,
        config=config,
        scheme=sch,
        topology=topology,
        mc_nodes=mcs,
        cc_nodes=ccs[: config.num_cores],
        num_vcs=num_vcs,
        routing=routing,
    )


# -- configuration rules ------------------------------------------------------

def check_config(model: ResolvedModel, report: CheckReport) -> None:
    """Eq. 1 / Eq. 2 sizing, queue/credit/VC-class/starvation sanity."""
    inputs = model.inputs
    ari = model.scheme.ari
    cfg = model.config
    loc = model.location
    explicit = inputs.explicit
    num_vcs = model.num_vcs
    bound = speedup_upper_bound(MESH_NONLOCAL_OUTPUTS, num_vcs)

    # vc-class: Duato's partition needs a real escape VC next to at least
    # one adaptive VC; and the req/reply protocol classes must stay on
    # their separate physical networks (structural, but a 1-VC adaptive
    # mesh is the one configuration that silently merges the classes'
    # escape paths with their adaptive paths).
    if model.scheme.routing.startswith("ada") and num_vcs < 2:
        report.add(
            "vc-class", Severity.ERROR, loc,
            f"adaptive routing with num_vcs={num_vcs}: no VC remains "
            "adaptive once VC 0 is reserved as the escape class",
            "use num_vcs >= 2 or switch the scheme to xy routing",
        )

    # eq2-bound / eq1-speedup: only meaningful when the consumption side
    # (injection crossbar speedup) is enabled.
    if ari.consume:
        requested = ari.injection_speedup
        built = min(requested, bound)
        if requested > bound:
            severity = (
                Severity.ERROR
                if "injection_speedup" in explicit
                else Severity.WARNING
            )
            report.add(
                "eq2-bound", severity, loc,
                f"injection speedup S={requested} exceeds Eq. 2 bound "
                f"min(N_out={MESH_NONLOCAL_OUTPUTS}, N_VC={num_vcs})={bound}"
                + ("" if severity is Severity.ERROR
                   else f"; builder will clamp to {built}"),
                f"request S <= {bound} or raise num_vcs",
            )
        rate = dram_injection_rate(cfg)
        needed = required_speedup(rate, cfg.long_packet_flits)
        if built < needed:
            report.add(
                "eq1-speedup", Severity.WARNING, loc,
                f"injection speedup S={built} is below the Eq. 1 floor "
                f"{needed} (DRAM can supply ~{rate:.3f} pkt/cycle x "
                f"{cfg.long_packet_flits} flits/pkt)",
                "the consumption side will lag the accelerated supply; "
                f"use S >= {needed}",
            )
        # mc-degree: edge/corner MCs have N_out < 4, so Eq. 2 binds
        # tighter there than the mesh-wide bound suggests.
        for mc in model.mc_nodes:
            degree = model.topology.degree(mc)
            if degree < built:
                x, y = model.topology.coords(mc)
                report.add(
                    "mc-degree", Severity.INFO, loc,
                    f"MC r{mc}@({x},{y}) has {degree} mesh outputs < "
                    f"speedup {built}; Eq. 2 caps the effective speedup "
                    f"at {degree} on this router",
                    "prefer placements keeping MCs off edges (diamond)",
                )

    # split-queues: supply-side split NI is hard-wired one queue per
    # injection VC.
    if ari.supply and model.scheme.force_ni_kind is None:
        queues = ari.num_split_queues
        if queues > num_vcs:
            severity = (
                Severity.ERROR
                if "num_split_queues" in explicit
                else Severity.WARNING
            )
            report.add(
                "split-queues", severity, loc,
                f"{queues} split NI queues > {num_vcs} injection VCs"
                + ("" if severity is Severity.ERROR
                   else f"; builder will clamp to {num_vcs}"),
                "split queues map one-per-VC; match num_split_queues "
                "to num_vcs",
            )
        elif queues < num_vcs:
            report.add(
                "split-queues", Severity.INFO, loc,
                f"{queues} split NI queues < {num_vcs} injection VCs: "
                f"{num_vcs - queues} VC(s) never receive supplied flits",
                "raise num_split_queues to num_vcs for full supply",
            )

    # credit-rtt: a VC buffer must cover the credit round trip or the
    # link stalls with a ready sender.
    link_latency = cfg.noc_hop_latency
    rtt = credit_round_trip_cycles(link_latency)
    vc_capacity = cfg.long_packet_flits  # builder: one long packet per VC
    # A link moves one flit per cycle, so a buffer of N flits covers N
    # cycles of the round trip.
    if vc_capacity < rtt:  # unit: cycles
        report.add(
            "credit-rtt", Severity.WARNING, loc,
            f"VC buffer of {vc_capacity} flits is shallower than the "
            f"{rtt}-cycle credit round trip at link latency "
            f"{link_latency}",
            "deepen VC buffers or reduce noc_hop_latency to keep links "
            "busy under backpressure",
        )

    # starvation: promotion threshold sanity when prioritization is on.
    if ari.priority_enabled:
        threshold = ari.starvation_threshold
        horizon = inputs.cycles + inputs.warmup
        if threshold < 2 * cfg.long_packet_flits:
            report.add(
                "starvation", Severity.WARNING, loc,
                f"starvation threshold {threshold} is shorter than two "
                f"long-packet drain times ({2 * cfg.long_packet_flits} "
                "cycles): low-priority traffic promotes almost "
                "immediately, erasing the priority classes",
                "use a threshold of at least a few packet drain times",
            )
        elif threshold >= horizon:
            report.add(
                "starvation", Severity.INFO, loc,
                f"starvation threshold {threshold} >= run horizon "
                f"{horizon} (cycles + warmup): promotion can never fire "
                "in this run",
                "lower the threshold or lengthen the run to exercise "
                "starvation control",
            )

    # inert-knob: explicit overrides the chosen scheme ignores.
    inert = [
        ("injection_speedup", not ari.consume,
         "consumption acceleration is off in this scheme"),
        ("num_split_queues", not ari.supply,
         "supply acceleration (split NI) is off in this scheme"),
        ("starvation_threshold", not ari.priority_enabled,
         "prioritization is off in this scheme"),
    ]
    for knob, is_inert, why in inert:
        if knob in explicit and is_inert:
            report.add(
                "inert-knob", Severity.INFO, loc,
                f"override {knob}={getattr(inputs, knob)} has no effect: "
                f"{why}",
                "drop the override or pick a scheme with the feature "
                "enabled",
            )


def dram_injection_rate(config: GPUConfig) -> float:
    """Static upper estimate of reply packets/cycle one MC can supply.

    DRAM bandwidth bound: ``bus_bytes_per_cycle x mem_clock_ratio``
    bytes per NoC cycle, one long reply packet per ``line_bytes``.  This
    is the zero-knowledge stand-in for Eq. 1's measured
    ``InjRate_pkt`` (cf. :func:`repro.core.speedup.
    estimate_ideal_injection_rate`, which measures it dynamically).
    """
    bytes_per_cycle = (
        config.dram.bus_bytes_per_cycle * config.mem_clock_ratio
    )
    return bytes_per_cycle / config.line_bytes


# -- routing (CDG) rules ------------------------------------------------------

def check_routing_model(model: ResolvedModel, report: CheckReport) -> None:
    """Escape-network acyclicity + reachability, pristine and per epoch."""
    # Pristine mesh first: findings here are hard errors.
    _check_network_pair(model, report, model.routing,
                        EMPTY_LINKS, EMPTY_LINKS, Severity.ERROR, epoch=None)
    if not model.inputs.faults:
        return
    _check_fault_epochs(model, report)


def _networks(model: ResolvedModel) -> List[Tuple[str, List[int], List[int]]]:
    """(label, sources, dests) per physical mesh network to analyze."""
    nets = [("req", model.cc_nodes, model.mc_nodes)]
    if model.scheme.reply_overlay == "mesh":
        nets.append(("rep", model.mc_nodes, model.cc_nodes))
    # da2mesh replies bypass the mesh entirely; nothing to prove there.
    return nets


def _check_network_pair(
    model: ResolvedModel,
    report: CheckReport,
    routing: RoutingAlgorithm,
    dead_links: LinkSet,
    dead_escape_vcs: LinkSet,
    severity: Severity,
    epoch: Optional[int],
    nets: Optional[Sequence[str]] = None,
) -> None:
    for label, sources, dests in _networks(model):
        if nets is not None and label not in nets:
            continue
        loc = model.location + f" net={label}"
        if epoch is not None:
            loc += f" cycle={epoch}"
        _check_one_network(
            model, report, routing, sources, dests,
            dead_links, dead_escape_vcs, severity, loc, label,
        )


def _check_one_network(
    model: ResolvedModel,
    report: CheckReport,
    routing: RoutingAlgorithm,
    sources: Sequence[int],
    dests: Sequence[int],
    dead_links: LinkSet,
    dead_escape_vcs: LinkSet,
    severity: Severity,
    loc: str,
    label: str,
) -> None:
    topology = model.topology
    graph = build_escape_cdg(
        routing, topology, dests, dead_links, dead_escape_vcs
    )
    cycle = graph.find_cycle()
    if cycle is not None:
        report.add(
            "cdg-cycle", severity, loc,
            f"{label} escape network has a channel-dependency cycle: "
            f"{graph.format_cycle(cycle)}",
            "restrict escape (VC 0) hops to an acyclic order, e.g. "
            "dimension-ordered XY",
        )
    for vc, port in sorted(set(graph.inadmissible)):
        report.add(
            "cdg-escape-vc", severity, loc,
            f"{label}: VC {vc} refuses its own escape hop via port "
            f"{DIRECTION_NAMES[port]} (vc_allowed returned False)",
            "the escape VC must admit every escape_port direction",
        )
    off_mesh = sorted(set(graph.off_mesh_hops))
    for router, dest in off_mesh[:_MAX_LISTED]:
        report.add(
            "cdg-reach", severity, loc,
            f"{label}: escape hop at r{router} toward r{dest} points off "
            "the mesh",
            "escape_port must return a direction with a physical link",
        )
    if len(off_mesh) > _MAX_LISTED:
        report.add(
            "cdg-reach", severity, loc,
            f"{label}: {len(off_mesh) - _MAX_LISTED} more off-mesh "
            "escape hops suppressed",
        )
    failures = all_pairs_unreachable(
        routing, topology, sources, dests, dead_links, dead_escape_vcs
    )
    for src, dest, trace in failures[:_MAX_LISTED]:
        report.add(
            "cdg-reach", severity, loc,
            f"{label}: r{src} cannot reach r{dest}: "
            f"{trace.describe(topology)}",
            "unreachable pairs are written off at the source at runtime "
            "(drops), so results undercount this traffic",
        )
    if len(failures) > _MAX_LISTED:
        report.add(
            "cdg-reach", severity, loc,
            f"{label}: {len(failures) - _MAX_LISTED} more unreachable "
            "pairs suppressed "
            f"({len(failures)} of {len(sources) * len(dests)} total)",
        )


def _check_fault_epochs(model: ResolvedModel, report: CheckReport) -> None:
    """Re-run the CDG analysis for every distinct active-fault set.

    Imports :mod:`repro.faults` lazily: the package pulls in the campaign
    layer (and through it :mod:`repro.experiments.api`), and the no-fault
    path must keep its zero-import-overhead contract.
    """
    from repro.faults.injector import FaultState
    from repro.faults.model import FaultPlan, validate_plan
    from repro.noc.routing import FaultAwareRouting

    loc = model.location
    try:
        plan = FaultPlan.parse(model.inputs.faults)
        validate_plan(plan, model.topology, model.num_vcs)
    except ValueError as exc:
        report.add(
            "config-resolve", Severity.ERROR, loc, str(exc),
            "fix the fault-plan token (see repro.faults.model)",
        )
        return
    for net in ("req", "rep"):
        events = plan.for_net(net).events
        if not events:
            continue
        for start, dead_links, dead_vcs in fault_epochs(
            events, model.topology
        ):
            routing = model.routing
            if model.inputs.fault_detour and dead_links:
                state = FaultState(model.topology)
                state.dead_links = set(dead_links)
                routing = FaultAwareRouting(
                    model.routing, model.topology, state
                )
            _check_network_pair(
                model, report, routing, dead_links, dead_vcs,
                Severity.WARNING, epoch=start, nets=(net,),
            )


def fault_epochs(
    events: Sequence,
    topology: MeshTopology,
) -> List[Tuple[int, LinkSet, LinkSet]]:
    """Distinct (start_cycle, dead_links, dead_escape_vcs) fault states.

    Epoch boundaries are the fault and repair cycles; consecutive
    boundaries with identical surviving graphs collapse into one entry,
    and the fault-free state is skipped (the pristine analysis covers
    it).  Port faults kill the upstream neighbour's opposite output link,
    matching the injector's admin-down semantics; only VC-0 faults affect
    the escape network.
    """
    from repro.faults.model import FaultKind

    boundaries: Set[int] = set()
    for event in events:
        boundaries.add(event.cycle)
        if event.repair_cycle is not None:
            boundaries.add(event.repair_cycle)
    seen: Set[Tuple[LinkSet, LinkSet]] = set()
    epochs: List[Tuple[int, LinkSet, LinkSet]] = []
    for start in sorted(boundaries):
        links: Set[Tuple[int, int]] = set()
        escape_vcs: Set[Tuple[int, int]] = set()
        for event in events:
            if event.cycle > start:
                continue
            if event.repair_cycle is not None and start >= event.repair_cycle:
                continue
            if event.kind is FaultKind.LINK:
                links.add((event.router, event.direction))
            elif event.kind is FaultKind.PORT:
                upstream = topology.neighbors(event.router).get(
                    event.direction
                )
                if upstream is not None:
                    links.add((upstream, opposite(event.direction)))
            elif event.kind is FaultKind.VC and event.vc == 0:
                escape_vcs.add((event.router, event.direction))
        key = (frozenset(links), frozenset(escape_vcs))
        if key in seen or key == (EMPTY_LINKS, EMPTY_LINKS):
            continue
        seen.add(key)
        epochs.append((start, key[0], key[1]))
    return epochs


# -- entry point --------------------------------------------------------------

def check_model(inputs: ModelInputs) -> CheckReport:
    """Run every model-level rule for one resolved configuration."""
    report = CheckReport()
    model = resolve(inputs, report)
    if model is None:
        return report
    check_config(model, report)
    check_routing_model(model, report)
    return report
