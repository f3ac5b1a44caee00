"""Per-shape code generation for :meth:`repro.noc.router.Router.step`.

A router's step is the same pipeline on every router: credit delivery,
ingest, a rotated route/VC-allocation/bid sweep, switch allocation and
traversal.  What differs between routers is a handful of counts and
flags, and much of a hand-written step's Python work went into
rediscovering them on every visit: looping over port tables, unpacking
wiring tuples and testing flags that never change.

:func:`shape_of` reads those counts and flags from a wired router into a
:class:`Shape`.  :func:`source` turns a shape into the Python source of a
factory whose closure is the step: credit delivery and ingest unrolled
over the router's credited outputs and inputs (and their link pipes),
the rotated sweep over a per-router table of ports with each port's VCs
unrolled, and the shape's flags resolved at generation time.  Each shape
is compiled once per process; :func:`specialize` binds one router's
ports, VCs, pipes, credit queues, arbiters, port ids and route table into
a fresh closure of its shape.

The shape holds counts and flags only, never port identities: a corner
router wired north and east shares its code with one wired south and
west.  Port ids are closure bindings, so routers of one shape differ only
in the objects they bind.

The generated source is registered with :mod:`linecache` under a
``<repro.noc.router step ...>`` file name, so tracebacks and
:func:`inspect.getsource` show it; ``print(stepgen.source(shape_of(r)))``
prints a router's whole factory.
"""

from __future__ import annotations

import linecache
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.noc.buffer import VCState
from repro.noc.routing import (
    LOCAL,
    MinimalAdaptiveRouting,
    RouteTable,
    XYRouting,
)


#: Router input ports 0..3 are mesh directions; injection ports follow.
_MESH_PORTS = 4


class Shape(NamedTuple):
    """What a router's generated step is specialized on."""

    #: Input ports, wired or not (the VA rotation and arbiters wrap here).
    num_inputs: int
    #: Per wired input, in port order: (is injection port, link pipes).
    #: A SplitNI bundle is one injection input with several pipes.
    inputs: Tuple[Tuple[bool, int], ...]
    #: Outputs with a credit-return channel (the mesh directions wired).
    credited: int
    num_vcs: int
    vc_capacity: int
    #: 0 = every VC legal (XY), 1 = escape-VC-0 rule (minimal adaptive),
    #: 2 = ask ``routing.vc_allowed`` (anything else, e.g. fault detours).
    vc_rule: int
    priority: bool
    #: Injection bids are demoted past the starvation threshold.
    starvation: bool
    ni: bool
    gate: bool


def _vc_rule(routing) -> int:
    rt = type(routing)
    if rt is XYRouting:
        return 0
    if rt is MinimalAdaptiveRouting:
        return 1
    return 2


def _pipes(link) -> tuple:
    """A wired input's link pipes; a SplitNI bundle gives each member's."""
    return tuple(lk._pipe for lk in getattr(link, "links", (link,)))


def _credited(router) -> list:
    return [
        (port, out)
        for port, out in enumerate(router.output_ports)
        if out is not None
        and out.credit_in is not None
        and out.credits is not None
    ]


def _wired(router) -> list:
    return [
        (idx, link)
        for idx, link in enumerate(router.input_links)
        if link is not None
    ]


def shape_of(router) -> Shape:
    """The counts and flags :func:`source` specializes ``router`` on."""
    ports = router.input_ports
    return Shape(
        num_inputs=router.num_inputs,
        inputs=tuple(
            (ports[idx].is_injection, len(_pipes(link)))
            for idx, link in _wired(router)
        ),
        credited=len(_credited(router)),
        num_vcs=router.num_vcs,
        vc_capacity=router.vc_capacity,
        vc_rule=_vc_rule(router.routing),
        priority=bool(router.priority_enabled),
        starvation=bool(
            router.priority_enabled and router.starvation_threshold > 0
        ),
        ni=router.ni is not None,
        gate=router.ejection_gate is not None,
    )


# -- source generation ---------------------------------------------------------


class _Emitter:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def __call__(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)


def _bid(emit, d: int, s: Shape, i: int) -> None:
    """Append VC ``i``'s bid for output ``o`` to the port's list ``b``."""
    prio = f"v{i}.fifo[0].packet.priority" if s.priority else "0"
    if s.gate:
        emit(d, f"if o == {LOCAL}:")
        emit(d + 1, "if ej is None:")
        emit(d + 2, "ej = gate()")
        emit(d + 1, "if ej:")
        emit(d + 2, f"b.append(({i}, {LOCAL}, {prio}))")
        emit(d, "else:")
        emit(d + 1, f"b.append(({i}, o, {prio}))")
    else:
        emit(d, f"b.append(({i}, o, {prio}))")


def _vc_sweep(emit, d: int, s: Shape, i: int) -> None:
    """Route, VC-allocate and bid for VC ``i`` of the current port."""
    v = f"v{i}"
    # An empty VC is IDLE or an ACTIVE one waiting for body flits; a
    # ROUTING VC always has its head at the front.  Blocked ROUTING heads
    # are the common case in a saturated router, so they are tested first.
    emit(d, f"if {v}.fifo:")
    emit(d + 1, f"st = {v}.state")
    emit(d + 1, "if st is ROUTING:")
    r = d + 2
    if s.vc_rule == 2:
        # Fault-aware VC legality reads fault state, which no _freed
        # counter tracks, so every head is retried every cycle.
        emit(r, f"pkt = {v}.fifo[0].packet")
        emit(r, f"if {v}.candidates is None:")
        emit(r + 1, "dc = dest_coords(pkt.dest)")
        emit(r + 1, f"{v}.candidates = routing.candidates(coords, dc)")
        emit(r + 1, f"{v}.escape = routing.escape_port(coords, dc)")
        emit(r, f"if try_alloc({v}, pkt, 2):")
        emit(r + 1, f"o = {v}.out_port")
        _bid(emit, r + 1, s, i)
    else:
        emit(r, f"c = {v}.candidates")
        emit(r, "if c is None:")
        emit(r + 1, f"c, {v}.escape = routes[{v}.fifo[0].packet.dest]")
        emit(r + 1, f"{v}.candidates = c")
        # Blocked-head memo.  XY and minimal adaptive give one or two
        # candidates; the key moves exactly when one of their _freed
        # counters (which only grow) moves.
        emit(r, "key = freed[c[0]] + freed[c[-1]]")
        emit(r, f"if key != {v}.blocked:")
        emit(r + 1, f"if try_alloc({v}, {v}.fifo[0].packet, {s.vc_rule}):")
        emit(r + 2, f"o = {v}.out_port")
        _bid(emit, r + 2, s, i)
        emit(r + 1, "else:")
        emit(r + 2, f"{v}.blocked = key")
    emit(d + 1, "elif st is ACTIVE:")
    emit(d + 2, f"o = {v}.out_port")
    emit(d + 2, "if o is not None:")
    _bid(emit, d + 3, s, i)


def _ingest_flit(emit, d: int, s: Shape, j: int, injection: bool) -> None:
    """Move ``flit`` (just popped off a pipe of input ``j``) into its VC."""
    emit(d, "vc = flit.out_vc")
    emit(d, "if vc is None:")
    emit(d + 1, 'raise RuntimeError("arriving flit has no VC assignment")')
    emit(d, "if flit.is_head:")
    emit(d + 1, "pkt = flit.packet")
    if not injection:
        # ARI priority decay: one level per router entered after injection.
        emit(d + 1, "if pkt.priority > 0:")
        emit(d + 2, "pkt.priority -= 1")
        emit(d + 2, "router.priority_decays += 1")
    emit(d + 1, "if pkt.injected_at is None:")
    emit(d + 2, "pkt.injected_at = now")
    emit(d + 1, "hop = router.on_hop")
    emit(d + 1, "if hop is not None:")
    emit(d + 2, "hop(rid, pkt, now)")
    emit(d, "flit.out_port = None")
    emit(d, "flit.out_vc = None")
    emit(d, f"vq = iv{j}[vc]")
    emit(d, "fifo = vq.fifo")
    emit(d, "depth = len(fifo)")
    emit(d, f"if depth >= {s.vc_capacity}:")
    emit(d + 1, 'raise RuntimeError(f"VC {vc} overflow")')
    emit(d, "flit.vc = vc")
    # Space was reserved upstream by the credit the sender consumed; the
    # overflow raise above is an assertion, not flow control.
    emit(d, "fifo.append(flit)")
    emit(d, "if not depth:")
    emit(d + 1, "vq.wait_since = now")
    emit(d + 1, "if flit.is_head:")
    emit(d + 2, "if vq.state is not ACTIVE or vq.out_port is None:")
    emit(d + 3, "vq.state = ROUTING")
    emit(d + 1, "elif vq.out_port is None:")
    emit(d + 2, 'raise RuntimeError("body flit at VC front without a route")')
    emit(d + 1, "else:")
    emit(d + 2, "vq.state = ACTIVE")


def _drain_pipe(emit, d: int, s: Shape, j: int, pipe: str, inj: bool) -> None:
    """Ingest every flit due on ``pipe`` (already known to have one)."""
    emit(d, "while True:")
    emit(d + 1, f"flit = {pipe}.popleft()[1]")
    _ingest_flit(emit, d + 1, s, j, inj)
    emit(d + 1, "n += 1")
    emit(d + 1, f"if not {pipe} or {pipe}[0][0] > now:")
    emit(d + 2, "break")


def _traverse(emit, d: int, s: Shape, has_inj: bool, route=None) -> None:
    """Move the front flit of granted VC ``v`` of input ``p`` downstream.

    The output is ``o``, or read from the VC by ``route`` when given.
    """
    emit(d, "port, vcs, cq, clat = tin[p]")
    emit(d, "vq = vcs[v]")
    if route:
        emit(d, f"o = {route}")
    emit(d, "ov = vq.out_vc")
    emit(d, "fifo = vq.fifo")
    emit(d, "ot = tout[o]")
    emit(d, "if not fifo or ot is None or ov is None:")
    emit(d + 1, 'raise RuntimeError("switch grant for an empty VC")')
    emit(d, "flit = fifo.popleft()")
    emit(d, "flit.out_port = o")
    emit(d, "flit.out_vc = ov")
    emit(d, "if flit.is_tail:")
    emit(d + 1, "vq.out_port = None")
    emit(d + 1, "vq.out_vc = None")
    emit(d + 1, "vq.candidates = None")
    emit(d + 1, "vq.escape = None")
    emit(d + 1, "vq.blocked = None")
    emit(d + 1, "vq.state = IDLE")
    emit(d, "if fifo:")
    emit(d + 1, "vq.wait_since = now")
    emit(d + 1, "if fifo[0].is_head:")
    emit(d + 2, "if vq.state is not ACTIVE or vq.out_port is None:")
    emit(d + 3, "vq.state = ROUTING")
    emit(d + 1, "elif vq.out_port is None:")
    emit(d + 2, 'raise RuntimeError("body flit at VC front without a route")')
    emit(d + 1, "else:")
    emit(d + 2, "vq.state = ACTIVE")
    emit(d, "else:")
    emit(d + 1, "vq.wait_since = None")
    emit(d, "port.occ -= 1")
    emit(d, "counts, cr, writer, wl, pipe, lat, lk = ot")
    emit(d, "if counts is not None:")
    emit(d + 1, "if counts[ov] <= 0:")
    emit(d + 2, 'raise RuntimeError(f"credit underflow on vc {ov}")')
    emit(d + 1, "counts[ov] -= 1")
    emit(d + 1, "cr.total -= 1")
    emit(d, "if writer[ov] != flit.packet.pid:")
    emit(d + 1, 'raise RuntimeError("flit sent into a VC claimed by another packet")')
    emit(d, "left = wl[ov] - 1")
    emit(d, "wl[ov] = left")
    emit(d, "if not left:")
    emit(d + 1, "writer[ov] = None")
    emit(d + 1, "freed[o] += 1")
    emit(d, "pipe.append((now + lat, flit))")
    emit(d, "lk.flits_carried += 1")
    emit(d, "lk.busy_cycles += 1")
    # Return the freed buffer slot upstream: to the NI for an injection
    # port, over the credit channel otherwise.
    emit(d, "if cq is not None:")
    emit(d + 1, "cq.append((now + clat, v))")
    if has_inj:
        emit(d, f"elif p >= {_MESH_PORTS}:")
        if s.ni:
            emit(d + 1, "ni_credit(p, v)")
        emit(d + 1, "injected += 1")


def _finish(emit, d: int, has_inj: bool, grants: str) -> None:
    """Update the router's counters and return the flits moved."""
    emit(d, f"moved = len({grants})")
    emit(d, "router._occ = occ - moved")
    if has_inj:
        emit(d, "if injected:")
        emit(d + 1, "router.flits_injected += injected")
        emit(d + 1, "if injected > 1:")
        emit(d + 2, "router.speedup_extra_flits += injected - 1")
    emit(d, "router.flits_switched += moved")
    emit(d, "return moved")


def _successors(n: int) -> str:
    """A tuple literal mapping each of ``0..n-1`` to the next, wrapping."""
    return repr(tuple(range(1, n)) + (0,))


def _params(s: Shape) -> List[str]:
    names = [
        "router", "rid", "freed", "try_alloc", "allocate", "in_arbs",
        "out_arbs", "rot", "tin", "tout", "port_bids",
    ]
    for j in range(s.credited):
        names += [f"cq{j}", f"cc{j}", f"cr{j}", f"cw{j}", f"co{j}", f"ccap{j}"]
    for j, (_inj, npipes) in enumerate(s.inputs):
        names += [f"ip{j}", f"iv{j}"]
        if npipes == 1:
            names.append(f"pp{j}")
        else:
            names.append(f"pps{j}")
    if s.vc_rule == 2:
        names += ["routing", "coords", "dest_coords"]
    else:
        names.append("routes")
    if s.starvation:
        names.append("thr")
        mesh = sum(not inj for inj, _n in s.inputs)
        names += [f"mv{m}" for m in range(s.num_vcs * mesh)]
    if s.gate:
        names.append("gate")
    if s.ni:
        names.append("ni_credit")
    return names


def source(s: Shape) -> str:
    """The Python source of the step factory ``make`` for shape ``s``."""
    emit = _Emitter()
    nvc = s.num_vcs
    emit(0, "def make(" + ", ".join(_params(s)) + "):")
    emit(1, "def _step(now):")

    # -- idle exit ------------------------------------------------------------
    polls = [f"cq{j}" for j in range(s.credited)]
    for j, (_inj, npipes) in enumerate(s.inputs):
        if npipes == 1:
            polls.append(f"pp{j}")
        else:
            polls += [f"pps{j}[{m}]" for m in range(npipes)]
    emit(2, "occ = router._occ")
    if polls:
        emit(2, "if not occ and not (")
        for k, q in enumerate(polls):
            sep = "or " if k else ""
            emit(3, f"{sep}({q} and {q}[0][0] <= now)")
        emit(2, "):")
        emit(3, "return 0")
    else:
        emit(2, "if not occ:")
        emit(3, "return 0")

    # -- credit delivery --------------------------------------------------
    for j in range(s.credited):
        q = f"cq{j}"
        emit(2, f"if {q} and {q}[0][0] <= now:")
        emit(3, "while True:")
        emit(4, f"v = {q}.popleft()[1]")
        emit(4, f"if cc{j}[v] >= ccap{j}:")
        emit(5, 'raise RuntimeError(f"credit overflow on vc {v}")')
        emit(4, f"cc{j}[v] += 1")
        emit(4, f"cr{j}.total += 1")
        emit(4, f"if cw{j}[v] is None:")
        emit(5, f"freed[co{j}] += 1")
        emit(4, f"if not {q} or {q}[0][0] > now:")
        emit(5, "break")

    # -- ingest -----------------------------------------------------------
    for j, (inj, npipes) in enumerate(s.inputs):
        if npipes == 1:
            emit(2, f"if pp{j} and pp{j}[0][0] <= now:")
            emit(3, "n = 0")
            _drain_pipe(emit, 3, s, j, f"pp{j}", inj)
            emit(3, f"ip{j}.occ += n")
            emit(3, "occ += n")
        elif npipes > 1:
            emit(2, "n = 0")
            emit(2, f"for pp in pps{j}:")
            emit(3, "if pp and pp[0][0] <= now:")
            _drain_pipe(emit, 4, s, j, "pp", inj)
            emit(2, "if n:")
            emit(3, f"ip{j}.occ += n")
            emit(3, "occ += n")
    emit(2, "router._occ = occ")
    emit(2, "if not occ:")
    emit(3, "return 0")

    # -- route + VC allocation + bids, one rotated sweep --------------------
    # The stage-by-stage oracle makes two sweeps (rotation-ordered
    # routing, then index-ordered bid collection).  One rotated sweep
    # produces the same outcome: allocation order is preserved exactly, a
    # VC allocated this cycle is ACTIVE by the time its bid is taken (the
    # single-cycle router bids newly-routed VCs immediately), and the
    # separable allocator resolves each input and each output
    # independently, so the order bids are *listed* in cannot change any
    # grant.  Unwired inputs never hold a flit, so ``rot`` skips them.
    emit(2, "start = router._va_rr")
    emit(2, f"router._va_rr = {_successors(s.num_inputs)}[start]")
    emit(2, "bid_ports = []")
    if s.starvation:
        emit(2, "inj_bids = False")
    if s.gate:
        emit(2, "ej = None")
    emit(2, "for e in rot[start]:")
    emit(3, "if not e[0].occ:")
    emit(4, "continue")
    emit(3, "_, k, " + ", ".join(f"v{i}" for i in range(nvc)) + " = e")
    emit(3, "b = []")
    for i in range(nvc):
        _vc_sweep(emit, 3, s, i)
    emit(3, "if b:")
    emit(4, "port_bids[k] = b")
    emit(4, "bid_ports.append(k)")
    if s.starvation:
        emit(4, f"if k >= {_MESH_PORTS}:")
        emit(5, "inj_bids = True")
    emit(2, "if not bid_ports:")
    emit(3, "return 0")

    if s.starvation:
        # Demotion is only observable when an injection port bids.
        # A through VC starves once its front has waited over thr cycles.
        waits = [
            f"mv{m}.wait_since is not None and mv{m}.wait_since < lim"
            f" and mv{m}.fifo"
            for m in range(s.num_vcs * sum(not inj for inj, _n in s.inputs))
        ]
        emit(2, "if inj_bids:")
        emit(3, "lim = now - thr")
        if waits:
            emit(3, "if (")
            for m, w in enumerate(waits):
                emit(4, ("or " if m else "") + f"({w})")
            emit(3, "):")
            emit(4, "for p in bid_ports:")
            emit(5, f"if p >= {_MESH_PORTS}:")
            emit(6, "bl = port_bids[p]")
            emit(6, "router.starvation_demotions += len(bl)")
            emit(6, "port_bids[p] = [(v, o, 0) for v, o, _pr in bl]")

    # -- switch allocation and traversal ------------------------------------
    # Fast path: every bidding input has one bid and the outputs are
    # distinct, so every bid wins and each pointer moves past its winner.
    has_inj = any(inj for inj, _n in s.inputs)
    emit(2, "fast = []")
    emit(2, "omask = 0")
    emit(2, "for p in bid_ports:")
    emit(3, "bl = port_bids[p]")
    emit(3, "if len(bl) != 1:")
    emit(4, "break")
    emit(3, "v, o, _pr = bl[0]")
    emit(3, "ob = 1 << o")
    emit(3, "if omask & ob:")
    emit(4, "break")
    emit(3, "omask |= ob")
    emit(3, "fast.append((p, v, o))")
    emit(2, "else:")
    if has_inj:
        emit(3, "injected = 0")
    emit(3, "for p, v, o in fast:")
    emit(4, f"in_arbs[p]._next = {_successors(nvc)}[v]")
    emit(4, f"out_arbs[o]._next = {_successors(s.num_inputs)}[p]")
    _traverse(emit, 4, s, has_inj)
    _finish(emit, 3, has_inj, "fast")
    if has_inj:
        emit(2, "injected = 0")
    emit(2, "grants = allocate(bid_ports, port_bids)")
    emit(2, "for p, v in grants:")
    _traverse(emit, 3, s, has_inj, route="vq.out_port")
    _finish(emit, 2, has_inj, "grants")
    emit(1, "return _step")
    return "\n".join(emit.lines) + "\n"


# -- compiling and binding -------------------------------------------------------

#: Shape -> compiled step factory, filled on first use in each process.
_FACTORIES: Dict[Shape, Callable] = {}

#: The generated code's globals: VC states compared by identity.
_GLOBALS = {
    "ACTIVE": VCState.ACTIVE,
    "ROUTING": VCState.ROUTING,
    "IDLE": VCState.IDLE,
}


def factory(s: Shape) -> Callable:
    """The compiled step factory for ``s`` (compiled once per process)."""
    make = _FACTORIES.get(s)
    if make is None:
        text = source(s)
        filename = f"<repro.noc.router step, shape {len(_FACTORIES)}>"
        lines = text.splitlines(keepends=True)
        linecache.cache[filename] = (len(text), None, lines, filename)
        namespace = dict(_GLOBALS)
        exec(compile(text, filename, "exec"), namespace)
        make = _FACTORIES[s] = namespace["make"]
    return make


def specialize(router) -> Callable[[int], int]:
    """A fresh step closure for ``router``, bound to its current wiring."""
    s = shape_of(router)
    ports = router.input_ports
    alloc = router.allocator
    entries = [
        (ports[idx], idx) + tuple(ports[idx].vcs) for idx, _ in _wired(router)
    ]
    binds = {
        "router": router,
        "rid": router.router_id,
        "freed": router._freed,
        "try_alloc": router._try_allocate,
        "allocate": router._allocate,
        "in_arbs": alloc._input_arbiters,
        "out_arbs": alloc._output_arbiters,
        # rot[start]: the wired inputs in VA order, from port ``start`` on.
        "rot": tuple(
            tuple(e for e in entries if e[1] >= start)
            + tuple(e for e in entries if e[1] < start)
            for start in range(router.num_inputs)
        ),
        # Per input port: (port, vcs, credit-return deque, its latency);
        # injection ports return credits to the NI instead.
        "tin": tuple(
            (
                port,
                port.vcs,
                None if port.is_injection or ch is None else ch._in_flight,
                None if ch is None else ch.latency,
            )
            for port, ch in zip(ports, router.credit_out)
        ),
        # Per output port: (credit counts, counter, writer locks, flits
        # left per lock, link pipe, link latency, link), or None.
        "tout": tuple(
            None if out is None else (
                None if out.credits is None else out.credits.counts,
                out.credits,
                out.writer,
                out.writer_left,
                out.link._pipe,
                out.link.latency,
                out.link,
            )
            for out in router.output_ports
        ),
        "port_bids": [None] * router.num_inputs,
    }
    for j, (port, out) in enumerate(_credited(router)):
        binds.update({
            f"cq{j}": out.credit_in._in_flight,
            f"cc{j}": out.credits.counts,
            f"cr{j}": out.credits,
            f"cw{j}": out.writer,
            f"co{j}": port,
            f"ccap{j}": out.credits.capacity,
        })
    for j, (idx, link) in enumerate(_wired(router)):
        binds[f"ip{j}"] = ports[idx]
        binds[f"iv{j}"] = ports[idx].vcs
        pipes = _pipes(link)
        if len(pipes) == 1:
            binds[f"pp{j}"] = pipes[0]
        else:
            binds[f"pps{j}"] = pipes
    if s.vc_rule == 2:
        binds["routing"] = router.routing
        binds["coords"] = router.coords
        binds["dest_coords"] = router._dest_coords
    else:
        binds["routes"] = RouteTable(
            router.routing, router.coords, router._dest_coords
        )
    if s.starvation:
        # Unwired mesh inputs never hold a flit, so their VCs never wait.
        mesh_vcs = [
            vc for idx, _ in _wired(router) if not ports[idx].is_injection
            for vc in ports[idx].vcs
        ]
        binds.update((f"mv{m}", vc) for m, vc in enumerate(mesh_vcs))
        binds["thr"] = router.starvation_threshold
    if s.gate:
        binds["gate"] = router.ejection_gate
    if s.ni:
        binds["ni_credit"] = router.ni.on_credit
    return factory(s)(**binds)
