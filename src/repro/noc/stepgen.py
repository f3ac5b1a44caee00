"""Per-shape code generation for :meth:`repro.noc.router.Router.step`.

A router's step is the same pipeline on every router: credit delivery,
ingest, one rotated sweep that computes routes, allocates VCs and makes
both stages of switch allocation, and traversal.  What differs between
routers is a handful of counts and flags, and much of a hand-written
step's Python work went into rediscovering them on every visit: looping
over port tables, unpacking wiring tuples and testing flags that never
change.

:func:`shape_of` reads those counts and flags from a wired router into a
:class:`Shape`.  :func:`source` turns a shape into the Python source of a
factory whose closure is the step: credit delivery and ingest unrolled
over the router's credited outputs and inputs (and their link pipes),
the rotated sweep over a per-router table of ports with each port's VCs
unrolled, the VC allocator (``_try_allocate``, claiming through
``_commit_allocation``) with the downstream VCs it tries unrolled, and
the shape's flags resolved at generation time.  Each shape is compiled
once per process; :func:`specialize` binds one router's ports, VCs,
pipes, credit queues, arbiters, port ids and route table into a fresh
closure of its shape.

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
from types import SimpleNamespace
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
    #: Switch ports of each injection input (ARI speedup ``S``).
    speedup: int


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
        # The router gives every injection port the same speedup and the
        # mesh ports none.
        speedup=router.allocator.speedups.get(_MESH_PORTS, 1),
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
        emit(r, f"o = _try_allocate({v}, pkt)")
        emit(r, "if o is not None:")
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
        emit(r + 1, f"o = _try_allocate({v}, {v}.fifo[0].packet)")
        emit(r + 1, "if o is not None:")
        _bid(emit, r + 2, s, i)
        emit(r + 1, "else:")
        emit(r + 2, f"{v}.blocked = key")
    emit(d + 1, "elif st is ACTIVE:")
    emit(d + 2, f"o = {v}.out_port")
    emit(d + 2, "if o is not None:")
    _bid(emit, d + 3, s, i)


def _vc_allocator(emit, s: Shape) -> None:
    """``_try_allocate`` (WPF VC allocation) and its claim function.

    ``_try_allocate(vc, pkt)`` claims a downstream VC for the head at the
    front of ``vc`` on its first candidate output with one free and
    returns that output, or None.  A downstream VC is claimable when no
    packet is being written into it and the whole packet fits; adaptive
    VCs are tried before escape VC 0.
    """
    emit(1, "def _commit_allocation(vc, o, dvc, writer, wl, pkt):")
    emit(2, "vc.out_port = o")
    emit(2, "vc.out_vc = dvc")
    emit(2, "vc.state = ACTIVE")
    emit(2, "front = vc.fifo[0]")
    emit(2, "front.out_port = o")
    emit(2, "front.out_vc = dvc")
    emit(2, "writer[dvc] = pkt.pid")
    emit(2, "wl[dvc] = pkt.size")
    emit(1, "def _try_allocate(vc, pkt):")
    emit(2, "c = vc.candidates")
    if s.vc_rule:
        # Freest downstream first (a stable sort by free credits).
        adaptive = "" if s.vc_rule == 1 else " and routing.adaptive"
        emit(2, f"if len(c) > 1{adaptive}:")
        emit(3, "if len(c) == 2:")
        emit(4, "a, z = c")
        emit(4, "if free[z].total > free[a].total:")
        emit(5, "c = (z, a)")
        emit(3, "else:")
        emit(4, "c = sorted(c, key=lambda q: -free[q].total)")
        emit(2, "escape = vc.escape")
    if s.vc_rule == 2:
        emit(2, "if escape is None:")
        emit(3, f"escape = {LOCAL}")
    emit(2, "size = pkt.size")
    emit(2, "for o in c:")
    emit(3, "t = tva[o]")
    emit(3, "if t is None:")
    emit(4, "continue")
    emit(3, "cr, counts, writer, wl = t")
    emit(3, f"if o == {LOCAL}:")
    # Ejection: any free writer slot (infinite credits).
    for dvc in range(s.num_vcs):
        emit(4, f"if writer[{dvc}] is None:")
        emit(5, f"_commit_allocation(vc, o, {dvc}, writer, wl, pkt)")
        emit(5, "return o")
    emit(4, "continue")
    # counts[dvc] <= total for every dvc, so the whole packet cannot
    # fit anywhere on this output.
    emit(3, "if cr.total < size:")
    emit(4, "continue")
    for dvc in tuple(range(1, s.num_vcs)) + (0,):
        test = f"writer[{dvc}] is None and counts[{dvc}] >= size"
        if s.vc_rule == 1 and dvc == 0:
            test = "o == escape and " + test  # VC 0 only on the XY hop
        elif s.vc_rule == 2:
            test += f" and routing.vc_allowed({dvc}, o, escape)"
        emit(3, f"if {test}:")
        emit(4, f"_commit_allocation(vc, o, {dvc}, writer, wl, pkt)")
        emit(4, "return o")
    emit(2, "return None")


def _fold(emit, d: int, s: Shape) -> None:
    """Stage 2: fold input ``k``'s pick ``(v, o, pr)`` into ``best[o]``.

    ``order`` lists the outputs in the order of their first pick.
    """
    n = s.num_inputs
    emit(d, "cur = best[o]")
    emit(d, "if cur is None:")
    emit(d + 1, "best[o] = (k, v, pr)")
    emit(d + 1, "order.append(o)")
    if s.priority:
        emit(d, "elif pr > cur[2]:")
        emit(d + 1, "best[o] = (k, v, pr)")
        emit(d, "elif pr == cur[2]:")
    else:
        emit(d, "else:")
    # Equal priority: the input first at or after the output's pointer.
    emit(d + 1, "onxt = out_arbs[o]._next")
    emit(d + 1, f"if (k - onxt) % {n} < (cur[0] - onxt) % {n}:")
    emit(d + 2, "best[o] = (k, v, pr)")


def _scan(emit, d: int, s: Shape, skip: bool) -> None:
    """``win`` := the best bid in ``b`` at input pointer ``nxt``.

    Highest priority first, then the first VC at or after the pointer.
    In VC order, an equal-priority bid displaces the best only to move
    it from before the pointer to at/after it.  With ``skip``, bids for
    outputs in the ``taken`` mask are passed over.
    """
    if not (s.priority or skip):
        # Every bid has priority 0: the first at or after the pointer.
        emit(d, "for win in b:")
        emit(d + 1, "if win[0] >= nxt:")
        emit(d + 2, "break")
        emit(d, "else:")
        emit(d + 1, "win = b[0]")
        return
    emit(d, "win = None")
    emit(d, "for t in b:")
    if skip:
        emit(d + 1, "if taken >> t[1] & 1:")
        emit(d + 2, "continue")
    emit(d + 1, "pr = t[2]")
    emit(d + 1, "if win is None or pr > win_pr:")
    emit(d + 2, "win, win_pr, wrapped = t, pr, t[0] < nxt")
    emit(d + 1, "elif wrapped and pr == win_pr and t[0] >= nxt:")
    emit(d + 2, "win, wrapped = t, False")


def _picks(emit, d: int, s: Shape, budget: int) -> None:
    """Stage 1 for input ``k``: up to ``budget`` picks on distinct outputs.

    The input pointer moves past every pick, even one that then loses at
    its output.  Each pick is folded into stage 2.
    """
    succ = _successors(s.num_vcs)
    emit(d, "if len(b) == 1:")
    emit(d + 1, "v, o, pr = b[0]")
    if budget > 1:
        emit(d + 1, f"in_arbs[k]._next = {succ}[v]")
        _fold(emit, d + 1, s)
    emit(d, "else:")
    if budget == 1:
        emit(d + 1, "nxt = in_arbs[k]._next")
        _scan(emit, d + 1, s, skip=False)
        emit(d + 1, "v, o, pr = win")
        emit(d, f"in_arbs[k]._next = {succ}[v]")
        _fold(emit, d, s)
        return
    emit(d + 1, "arb = in_arbs[k]")
    emit(d + 1, "taken = 0")
    emit(d + 1, f"budget = {budget}")
    emit(d + 1, "while True:")
    emit(d + 2, "nxt = arb._next")
    _scan(emit, d + 2, s, skip=True)
    emit(d + 2, "if win is None:")
    emit(d + 3, "break")
    emit(d + 2, "v, o, pr = win")
    emit(d + 2, f"arb._next = {succ}[v]")
    _fold(emit, d + 2, s)
    emit(d + 2, "budget -= 1")
    emit(d + 2, "if not budget:")
    emit(d + 3, "break")
    emit(d + 2, "taken |= 1 << o")


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


def _traverse(emit, d: int, s: Shape, has_inj: bool) -> None:
    """Move the front flit of granted VC ``v`` of input ``p`` to output ``o``."""
    emit(d, "port, vcs, cq, clat = tin[p]")
    emit(d, "vq = vcs[v]")
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
        "router", "rid", "freed", "in_arbs", "out_arbs", "rot", "tin",
        "tout", "tva",
    ]
    if s.vc_rule:
        names.append("free")
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
    _vc_allocator(emit, s)
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

    # -- route, VC and switch allocation, one rotated sweep ----------------
    # The stage-by-stage oracle makes two sweeps (rotation-ordered
    # routing, then index-ordered bid collection) and then allocates.
    # One rotated sweep produces the same outcome: allocation order is
    # preserved exactly, a VC allocated this cycle is ACTIVE by the time
    # its bid is taken (the single-cycle router bids newly-routed VCs
    # immediately), and the separable allocator resolves each input
    # independently and each output by a running best, so each input's
    # stage-1 picks are made right after its VCs are swept.  Unwired
    # inputs never hold a flit, so ``rot`` skips them.
    has_inj = any(inj for inj, _n in s.inputs)
    emit(2, "start = router._va_rr")
    emit(2, f"router._va_rr = {_successors(s.num_inputs)}[start]")
    emit(2, "best = [None] * 5")
    emit(2, "order = []")
    if s.starvation:
        emit(2, "dem = None")
    if s.gate:
        emit(2, "ej = None")
    emit(2, "for e in rot[start]:")
    emit(3, "if not e[0].occ:")
    emit(4, "continue")
    emit(3, "_, k, " + ", ".join(f"v{i}" for i in range(nvc)) + " = e")
    emit(3, "b = []")
    for i in range(nvc):
        _vc_sweep(emit, 3, s, i)
    emit(3, "if not b:")
    emit(4, "continue")
    if has_inj and (s.starvation or s.speedup > 1):
        emit(3, f"if k >= {_MESH_PORTS}:")
        if s.starvation:
            # Demotion is decided at the first injection input that
            # bids: a through VC starves once its front has waited over
            # thr cycles, and the sweep moves no mesh VC's front.
            waits = [
                f"(mv{m}.wait_since is not None and mv{m}.wait_since < lim"
                f" and mv{m}.fifo)"
                for m in range(nvc * sum(not inj for inj, _n in s.inputs))
            ]
            emit(4, "if dem is None:")
            emit(5, "lim = now - thr")
            if waits:
                emit(5, "dem = (")
                for m, w in enumerate(waits):
                    emit(6, ("or " if m else "") + w)
                emit(5, ")")
            else:
                emit(5, "dem = False")
            emit(4, "if dem:")
            emit(5, "router.starvation_demotions += len(b)")
            emit(5, "b = [(t[0], t[1], 0) for t in b]")
        _picks(emit, 4, s, s.speedup)
        emit(3, "else:")
        _picks(emit, 4, s, 1)
    else:
        _picks(emit, 3, s, 1)
    emit(2, "if not order:")
    emit(3, "return 0")

    # -- switch traversal, in first-pick order ---------------------------
    if has_inj:
        emit(2, "injected = 0")
    emit(2, "for o in order:")
    emit(3, "p, v, _pr = best[o]")
    emit(3, f"out_arbs[o]._next = {_successors(s.num_inputs)}[p]")
    _traverse(emit, 3, s, has_inj)
    _finish(emit, 2, has_inj, "order")
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
        # Per output port, for VC allocation: (credit counter, its
        # counts, writer locks, flits left per lock), or None.
        "tva": tuple(
            None if out is None else (
                out.credits,
                None if out.credits is None else out.credits.counts,
                out.writer,
                out.writer_left,
            )
            for out in router.output_ports
        ),
    }
    if s.vc_rule:
        # Per output port, the adaptive congestion score's source:
        # ``.total`` free credits, unbounded for ejection, -1 if unwired.
        binds["free"] = tuple(
            out.credits if out is not None and out.credits is not None
            else SimpleNamespace(total=-1 if out is None else 1 << 20)
            for out in router.output_ports
        )
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
