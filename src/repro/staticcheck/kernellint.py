"""Kernel-soundness prover: the byte-identity contract, checked statically.

:class:`~repro.noc.kernel.ActivityKernel` promises byte-identical results
to :class:`~repro.noc.kernel.ReferenceKernel` while skipping quiescent
components.  ``repro check --kernel-equiv`` samples that promise
dynamically on a config grid; this pass turns it into a *static proof
obligation* that runs before a single cycle is simulated:

1. build the repo call graph and the interprocedural effect summaries
   (:mod:`repro.staticcheck.callgraph` / :mod:`~repro.staticcheck.effects`);
2. collect every state path mutated anywhere reachable from the
   reference kernel's advance method (``cycle``);
3. diff it against the paths the activity kernel replicates (mutates in
   its own closure), wake-schedules, or declares inert.

A reference-side mutation the activity side cannot observe is a
``kernel-skip-unsound`` ERROR: some traffic pattern will eventually make
the skipped work visible and break byte-identity.

Annotation vocabulary (source comments, checked by this pass):

``# kernel: inert(pat, ...)``
    The named state paths need no activity-side counterpart (e.g. a
    diagnostic counter that byte-identity does not cover).  Patterns are
    ``attr``, ``Owner.attr``, or ``Owner.*``.

``# kernel: private(pat, ...)``
    Component state owned by the activity kernel's bookkeeping (wiring
    tables); exempt from ``kernel-state-untracked``.

``# kernel: unreached``  (on a call line)
    This reference-side call is provably not part of the gated fast
    path (e.g. fault/auditor hooks force a full fallback cycle), so its
    callee's mutations are excluded from the obligation.

``# kernel: fallback``  (on a call line)
    This activity-side call delegates to the reference kernel; the edge
    is excluded so delegation cannot vacuously discharge the proof.

Rules
-----
``kernel-skip-unsound`` (ERROR)
    A state path mutated on the reference advance path is invisible to
    the activity kernel: not replicated, wake-scheduled, or inert.

``kernel-wake-unscheduled`` (WARNING)
    The activity kernel reads a wake/live agenda it never re-arms —
    everything it drains must be written somewhere in its closure.

``kernel-state-untracked`` (WARNING)
    The activity closure mutates component state the reference kernel
    never touches (byte-identity drift in the other direction).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.staticcheck.callgraph import (
    CallGraph,
    CallSite,
    ClassInfo,
    build_call_graph,
)
from repro.staticcheck.diagnostics import CheckReport, Severity
from repro.staticcheck.effects import EffectEngine, Write

__all__ = [
    "RECEIVER_HINTS",
    "KernelPair",
    "find_kernel_pairs",
    "lint_graph",
    "lint_paths",
    "lint_source",
]

#: Receiver-chain terminal segments -> candidate component classes, used
#: to type the untyped attribute calls inside the kernel loops
#: (``net.routers[r].step(...)``, ``ni.step(...)``).  Subclass overrides
#: are added automatically by the call-graph resolver.
RECEIVER_HINTS: Dict[str, Tuple[str, ...]] = {
    "routers[]": ("Router",),
    "router": ("Router",),
    "nis[]": ("InjectionInterface",),
    "vcs": ("VirtualChannel",),
    "ni": ("InjectionInterface",),
    "ejectors[]": ("EjectionInterface",),
    "ejector": ("EjectionInterface",),
    "ejection_links[]": ("Link",),
    "input_links[]": ("Link",),
    "links[]": ("Link",),
    "link": ("Link",),
    "telemetry": ("TelemetryCollector",),
    "faults": ("FaultInjector",),
    "auditor": ("InvariantChecker",),
    "net": ("Network",),
    "allocator": ("SwitchAllocator",),
    "stats": ("NetworkStats",),
}

_ANNOTATION_RE = re.compile(
    r"#\s*kernel:\s*(inert|private|unreached|fallback)"
    r"(?:\s*\(([^)]*)\))?"
)

#: Attribute names that look like a wake/liveness agenda.
_AGENDA_RE = re.compile(
    r"^_?(wake|live|due|stall|pending|eject|agenda|armed)", re.IGNORECASE
)


class _Annotations:
    """All ``# kernel:`` annotations across the analyzed modules."""

    def __init__(self) -> None:
        self.inert: List[str] = []
        self.private: List[str] = []
        #: (path, lineno) of annotated call lines
        self.unreached: Set[Tuple[str, int]] = set()
        self.fallback: Set[Tuple[str, int]] = set()

    @staticmethod
    def collect(graph: CallGraph) -> "_Annotations":
        out = _Annotations()
        for info in graph.modules.values():
            for lineno, line in enumerate(info.lines, start=1):
                m = _ANNOTATION_RE.search(line)
                if m is None:
                    continue
                kind, arg = m.group(1), m.group(2)
                if kind == "inert":
                    out.inert.extend(_split_patterns(arg))
                elif kind == "private":
                    out.private.extend(_split_patterns(arg))
                elif kind == "unreached":
                    out.unreached.add((info.path, lineno))
                elif kind == "fallback":
                    out.fallback.add((info.path, lineno))
        return out


def _split_patterns(arg: Optional[str]) -> List[str]:
    if not arg:
        return []
    return [p.strip() for p in arg.split(",") if p.strip()]


def _matches(write: Write, patterns: Iterable[str]) -> bool:
    """Does a write match any ``attr`` / ``Owner.attr`` / ``Owner.*``?"""
    for pattern in patterns:
        if "." in pattern:
            owner, attr = pattern.rsplit(".", 1)
            if write.owner != owner:
                continue
            if attr == "*" or attr == write.attr:
                return True
        elif pattern == write.attr:
            return True
    return False


class KernelPair:
    """One reference/activity kernel pair with its advance roots."""

    def __init__(
        self,
        reference: ClassInfo,
        activity: ClassInfo,
        graph: CallGraph,
    ) -> None:
        self.reference = reference
        self.activity = activity
        self.graph = graph

    def _advance_qname(self, cls: ClassInfo) -> Optional[str]:
        methods = self.graph.flattened_methods(cls.qname)
        for name in ("cycle", "advance"):
            node = methods.get(name)
            if node is not None:
                return node.qname
        return None

    @property
    def reference_root(self) -> Optional[str]:
        return self._advance_qname(self.reference)

    @property
    def activity_roots(self) -> List[str]:
        roots = []
        adv = self._advance_qname(self.activity)
        if adv is not None:
            roots.append(adv)
        methods = self.graph.flattened_methods(self.activity.qname)
        hook = methods.get("on_offer")
        if hook is not None and hook.qname not in roots:
            roots.append(hook.qname)
        return roots


def _kernel_role(cls: ClassInfo) -> Optional[str]:
    """'reference' / 'activity' if the class is a kernel backend."""
    for stmt in cls.node.body:
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.value, ast.Constant
        ):
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "name"
                    and stmt.value.value in ("reference", "activity")
                ):
                    return str(stmt.value.value)
    if cls.name.startswith("Reference"):
        return "reference"
    if cls.name.startswith("Activity"):
        return "activity"
    return None


def find_kernel_pairs(graph: CallGraph) -> List[KernelPair]:
    """Reference/activity class pairs present in the graph.

    A class is a kernel when it carries ``name = "reference"`` /
    ``name = "activity"`` (or a ``Reference*``/``Activity*`` name) *and*
    defines an advance method (``cycle`` or ``advance``).  Pairing is by
    stripped name suffix (``ReferenceKernel``/``ActivityKernel``), with
    a same-module singleton fallback.
    """
    refs: List[ClassInfo] = []
    acts: List[ClassInfo] = []
    for qname in sorted(graph.classes):
        cls = graph.classes[qname]
        role = _kernel_role(cls)
        if role is None:
            continue
        methods = graph.flattened_methods(qname)
        if "cycle" not in methods and "advance" not in methods:
            continue
        (refs if role == "reference" else acts).append(cls)

    def suffix(cls: ClassInfo) -> str:
        for prefix in ("Reference", "Activity"):
            if cls.name.startswith(prefix):
                return cls.name[len(prefix):]
        return cls.name

    pairs: List[KernelPair] = []
    used: Set[str] = set()
    for act in acts:
        match = None
        for ref in refs:
            if ref.qname in used:
                continue
            if suffix(ref) == suffix(act):
                match = ref
                break
        if match is None:
            same_module = [
                r for r in refs
                if r.module == act.module and r.qname not in used
            ]
            if len(same_module) == 1:
                match = same_module[0]
        if match is not None:
            used.add(match.qname)
            pairs.append(KernelPair(match, act, graph))
    return pairs


def _chain_hint(chains: Dict[str, List[str]], qname: str) -> str:
    chain = chains.get(qname)
    if not chain or len(chain) < 2:
        return ""
    bare = [q.split(".", 1)[-1] for q in chain]
    return "reached via " + " -> ".join(bare)


def _location(graph: CallGraph, write: Write) -> str:
    node = graph.functions.get(write.qname)
    path = node.path if node is not None else "<unknown>"
    return f"{path}:{write.lineno}"


def _reportable(write: Write, kernel_owners: Set[str]) -> bool:
    """Writes that participate in the contract diff.

    Unknown-root writes (owner ``?``) still *cover* the other side but
    are never reported themselves — an under-resolved alias must not
    fabricate a proof obligation.  Kernel-internal bookkeeping
    (``self._wake`` on the kernels themselves) is not component state.
    """
    return write.owner != "?" and write.owner not in kernel_owners


def lint_graph(graph: CallGraph) -> CheckReport:
    """Run the kernel-soundness rules over a built call graph."""
    report = CheckReport()
    pairs = find_kernel_pairs(graph)
    if not pairs:
        return report
    annotations = _Annotations.collect(graph)
    engine = EffectEngine(graph)

    def skip_at(marks: Set[Tuple[str, int]]):
        def skip(caller: str, site: CallSite) -> bool:
            node = graph.functions.get(caller)
            if node is None:
                return False
            return (node.path, site.lineno) in marks
        return skip

    for pair in pairs:
        ref_root = pair.reference_root
        act_roots = pair.activity_roots
        if ref_root is None or not act_roots:
            continue
        kernel_owners = {pair.reference.name, pair.activity.name}

        ref_writes, ref_chains = engine.collect(
            [ref_root], skip=skip_at(annotations.unreached)
        )
        act_writes, act_chains = engine.collect(
            act_roots, skip=skip_at(annotations.fallback)
        )
        act_attrs = {w.attr for w in act_writes}
        ref_attrs = {w.attr for w in ref_writes}

        # -- kernel-skip-unsound: REF mutations invisible to ACT -------------
        missing: Dict[str, Write] = {}
        for w in sorted(
            ref_writes, key=lambda w: (_location(graph, w), w.path)
        ):
            if not _reportable(w, kernel_owners):
                continue
            if w.attr in act_attrs:
                continue
            if _matches(w, annotations.inert):
                continue
            missing.setdefault(w.attr, w)
        for attr, w in sorted(missing.items()):
            report.add(
                "kernel-skip-unsound",
                Severity.ERROR,
                _location(graph, w),
                f"reference kernel mutates '{w.path}' (attribute "
                f"'{attr}' on {w.owner}) but the activity kernel "
                "never replicates, wake-schedules, or declares it inert",
                f"replicate the mutation in {pair.activity.name}'s "
                "closure, schedule a wakeup that makes it observable, "
                f"or annotate '# kernel: inert({w.owner}.{attr})'; "
                + _chain_hint(ref_chains, w.qname),
            )

        # -- kernel-wake-unscheduled: agenda drained but never re-armed ------
        act_methods = {
            node.qname
            for node in graph.flattened_methods(
                pair.activity.qname
            ).values()
        }
        agenda_reads: Set[str] = set()
        agenda_writes: Set[str] = set()
        for qname in act_chains:
            if qname not in act_methods:
                continue
            summary = engine.direct(qname)
            for attr in summary.reads:
                if _AGENDA_RE.match(attr):
                    agenda_reads.add(attr)
            for w in summary.writes:
                if w.owner == pair.activity.name and _AGENDA_RE.match(
                    w.attr
                ):
                    agenda_writes.add(w.attr)
        unarmed = sorted(agenda_reads - agenda_writes)
        if agenda_reads and not agenda_writes:
            adv = graph.functions.get(act_roots[0])
            location = (
                f"{adv.path}:{adv.lineno}" if adv is not None else ""
            )
            report.add(
                "kernel-wake-unscheduled",
                Severity.WARNING,
                location,
                f"{pair.activity.name} gates on agenda state "
                f"({', '.join(unarmed)}) but nothing in its closure "
                "ever re-arms it",
                "schedule wakeups (write the agenda) from the advance "
                "path or the on_offer hook",
            )

        # -- kernel-state-untracked: ACT-only component mutations ------------
        drifted: Dict[str, Write] = {}
        for w in sorted(
            act_writes, key=lambda w: (_location(graph, w), w.path)
        ):
            if not _reportable(w, kernel_owners):
                continue
            if w.attr in ref_attrs:
                continue
            if _matches(w, annotations.private) or _matches(
                w, annotations.inert
            ):
                continue
            drifted.setdefault(w.attr, w)
        for attr, w in sorted(drifted.items()):
            report.add(
                "kernel-state-untracked",
                Severity.WARNING,
                _location(graph, w),
                f"activity kernel mutates '{w.path}' (attribute "
                f"'{attr}' on {w.owner}) that the reference kernel "
                "never touches — byte-identity drift",
                "mirror the mutation on the reference path or annotate "
                f"'# kernel: private({attr})' if it is kernel "
                "bookkeeping; " + _chain_hint(act_chains, w.qname),
            )
    return report


def lint_source(
    text: str, path: str = "<string>", graph: Optional[CallGraph] = None
) -> CheckReport:
    """Lint one module (with an optional pre-built repo-wide graph)."""
    if graph is None:
        graph = build_call_graph([(path, text)], RECEIVER_HINTS)
        exc = graph.errors.get(path)
        if exc is not None:
            report = CheckReport()
            report.add(
                "kernel-skip-unsound",
                Severity.ERROR,
                f"{path}:{exc.lineno or 0}",
                f"cannot parse module: {exc.msg}",
                "fix the syntax error first",
            )
            return report
    return lint_graph(graph)


def lint_paths(paths: Iterable[str]) -> CheckReport:
    """Build one graph over every ``.py`` file and run the pass."""
    from repro.staticcheck.detlint import iter_python_files

    sources: List[Tuple[str, str]] = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            sources.append((path, fh.read()))
    graph = build_call_graph(sources, RECEIVER_HINTS)
    return lint_graph(graph)
