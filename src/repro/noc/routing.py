"""Route computation: dimension-ordered XY and minimal adaptive routing.

Port numbering convention (shared with :mod:`repro.noc.router`)::

    0 = North (+y), 1 = East (+x), 2 = South (-y), 3 = West (-x), 4 = Local

Minimal adaptive routing may use either productive dimension.  Deadlock
freedom follows Duato's protocol: VC 0 of every port is an *escape* channel
restricted to dimension-ordered (XY) hops, while the remaining VCs are fully
adaptive.  This mirrors the paper's setup of adaptive routing enabled by WPF
[Ma HPCA'12] with non-atomic buffer allocation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

NORTH, EAST, SOUTH, WEST, LOCAL = 0, 1, 2, 3, 4
DIRECTION_NAMES = {NORTH: "N", EAST: "E", SOUTH: "S", WEST: "W", LOCAL: "L"}

# Offset of each direction in (dx, dy).
_DIR_DELTA = {NORTH: (0, 1), EAST: (1, 0), SOUTH: (0, -1), WEST: (-1, 0)}


def productive_directions(cur: Tuple[int, int], dest: Tuple[int, int]) -> List[int]:
    """All minimal (productive) mesh directions from ``cur`` toward ``dest``."""
    cx, cy = cur
    dx, dy = dest
    dirs: List[int] = []
    if dx > cx:
        dirs.append(EAST)
    elif dx < cx:
        dirs.append(WEST)
    if dy > cy:
        dirs.append(NORTH)
    elif dy < cy:
        dirs.append(SOUTH)
    return dirs


def xy_direction(cur: Tuple[int, int], dest: Tuple[int, int]) -> int:
    """The single dimension-ordered (X first, then Y) next hop."""
    cx, cy = cur
    dx, dy = dest
    if dx > cx:
        return EAST
    if dx < cx:
        return WEST
    if dy > cy:
        return NORTH
    if dy < cy:
        return SOUTH
    return LOCAL


class RoutingAlgorithm:
    """Interface for route computation.

    ``candidates`` returns the admissible output ports in preference order;
    ``escape_port`` returns the port that the escape VC (VC 0) is allowed to
    use; ``adaptive`` tells the router whether to re-evaluate candidates by
    downstream congestion.
    """

    name = "abstract"
    adaptive = False

    def candidates(self, cur: Tuple[int, int], dest: Tuple[int, int]) -> List[int]:
        raise NotImplementedError

    def escape_port(self, cur: Tuple[int, int], dest: Tuple[int, int]) -> int:
        return xy_direction(cur, dest)

    def vc_allowed(self, vc: int, port: int, escape: int) -> bool:
        """May a packet be placed in downstream ``vc`` when leaving via ``port``?"""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class XYRouting(RoutingAlgorithm):
    """Deterministic dimension-ordered routing: X fully, then Y."""

    name = "xy"
    adaptive = False

    def candidates(self, cur: Tuple[int, int], dest: Tuple[int, int]) -> List[int]:
        if cur == dest:
            return [LOCAL]
        return [xy_direction(cur, dest)]

    def vc_allowed(self, vc: int, port: int, escape: int) -> bool:
        # XY is deadlock-free on all VCs.
        return True


class MinimalAdaptiveRouting(RoutingAlgorithm):
    """Minimal adaptive routing with an XY escape channel on VC 0."""

    name = "adaptive"
    adaptive = True

    def candidates(self, cur: Tuple[int, int], dest: Tuple[int, int]) -> List[int]:
        if cur == dest:
            return [LOCAL]
        dirs = productive_directions(cur, dest)
        # Keep XY's choice first as the default preference; the router may
        # reorder by downstream credits.
        esc = xy_direction(cur, dest)
        if esc in dirs:
            dirs.remove(esc)
            dirs.insert(0, esc)
        return dirs

    def vc_allowed(self, vc: int, port: int, escape: int) -> bool:
        if vc == 0:
            # Escape VC: only the dimension-ordered hop is legal.
            return port == escape
        return True


class FaultAwareRouting(RoutingAlgorithm):
    """Detour wrapper used by :mod:`repro.faults`.

    Holds a *base* algorithm plus a fault-state object exposing ``active``,
    ``link_ok(router_id, direction)`` and ``distance(router_id, dest_id)``
    (hop distance over the live-link graph, ``inf`` when unreachable).
    While ``state.active`` is False every call delegates verbatim to the
    base algorithm, so a network with an empty fault plan routes — and
    simulates — identically to one without the wrapper.

    With faults active, candidates are the live outgoing directions whose
    neighbour lies strictly closer to the destination on the live graph.
    Strict descent makes every individual route loop-free; the escape VC
    (VC 0) is additionally pinned to the single first candidate so the
    deadlock-avoidance structure of the base scheme is preserved in spirit
    (campaigns double-check with the deadlock detector and
    :class:`~repro.noc.validation.InvariantChecker`).
    """

    def __init__(self, base: RoutingAlgorithm, topology, state) -> None:
        self.base = base
        self.topology = topology
        self.state = state
        self.name = f"fault+{base.name}"

    @property
    def adaptive(self) -> bool:  # type: ignore[override]
        # Detour candidates carry no inherent preference, so let the router
        # re-rank them by downstream credits while any fault is live.
        return self.base.adaptive or self.state.active

    def candidates(self, cur: Tuple[int, int], dest: Tuple[int, int]) -> List[int]:
        state = self.state
        if not state.active:
            return self.base.candidates(cur, dest)
        if cur == dest:
            return [LOCAL]
        topo = self.topology
        cur_id = topo.router_at(*cur)
        dest_id = topo.router_at(*dest)
        cur_d = state.distance(cur_id, dest_id)
        out: List[int] = []
        for direction, nbr in topo.neighbors(cur_id).items():
            if not state.link_ok(cur_id, direction):
                continue
            if state.distance(nbr, dest_id) < cur_d:
                out.append(direction)
        if not out:
            # Unreachable destination (normally written off at the source)
            # or a packet stranded by a fresh cut: keep the base choice so
            # the wormhole is not left route-less; the deadlock detector
            # owns the case where it can never drain.
            return self.base.candidates(cur, dest)
        # Keep the dimension-ordered hop first when it survived the cut,
        # matching MinimalAdaptiveRouting's default preference.
        esc = xy_direction(cur, dest)
        if esc in out:
            out.remove(esc)
            out.insert(0, esc)
        return out

    def escape_port(self, cur: Tuple[int, int], dest: Tuple[int, int]) -> int:
        if not self.state.active:
            return self.base.escape_port(cur, dest)
        # Deterministic single direction per (cur, dest) on the live graph.
        return self.candidates(cur, dest)[0]

    def vc_allowed(self, vc: int, port: int, escape: int) -> bool:
        if not self.state.active:
            return self.base.vc_allowed(vc, port, escape)
        if vc == 0:
            return port == escape
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"FaultAwareRouting({self.base!r})"


class RouteTable(dict):
    """One router's destination -> ``(candidates, escape)`` map.

    For a routing whose answer depends only on the two coordinates (XY
    and minimal adaptive, not the fault-aware wrapper), each destination
    is computed once, on first lookup, and the candidates are kept as a
    tuple shared by every packet to that destination.
    """

    __slots__ = ("routing", "here", "dest_coords")

    def __init__(self, routing: RoutingAlgorithm, here, dest_coords) -> None:
        super().__init__()
        self.routing = routing
        self.here = here
        self.dest_coords = dest_coords

    def __missing__(self, dest: int):
        dc = self.dest_coords(dest)
        routing = self.routing
        entry = (
            tuple(routing.candidates(self.here, dc)),
            routing.escape_port(self.here, dc),
        )
        self[dest] = entry
        return entry


#: Canonical algorithm names accepted by :func:`make_routing` (aliases for
#: each are listed in the factory; introspection code iterates this).
ROUTING_NAMES = ("xy", "adaptive")


def make_routing(name: str) -> RoutingAlgorithm:
    """Factory used by configuration code (``"xy"`` or ``"adaptive"``)."""
    name = name.lower()
    if name in ("xy", "dor"):
        return XYRouting()
    if name in ("adaptive", "minimal-adaptive", "min-adaptive", "ada"):
        return MinimalAdaptiveRouting()
    raise ValueError(
        f"unknown routing algorithm: {name!r}; canonical names: "
        f"{', '.join(ROUTING_NAMES)}"
    )


def hop_count(cur: Tuple[int, int], dest: Tuple[int, int]) -> int:
    """Minimal hop distance between two mesh coordinates."""
    return abs(cur[0] - dest[0]) + abs(cur[1] - dest[1])


def opposite(direction: int) -> int:
    """The port on the neighbouring router that a given direction lands on."""
    return {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}[direction]


def direction_names(ports: Sequence[int]) -> str:  # pragma: no cover - debug
    return "".join(DIRECTION_NAMES.get(p, "?") for p in ports)
