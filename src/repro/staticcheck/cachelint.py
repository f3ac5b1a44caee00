"""Cache-key soundness and zero-overhead provers on the taint engine.

Three rules, all built on the interprocedural flow summaries of
:mod:`repro.staticcheck.taint`:

``cachekey-unsound`` (ERROR)
    The result cache stores payloads under ``spec.key()``.  ``key()``
    deliberately excludes some :class:`RunSpec` fields — ``kernel``
    always (both kernel names run the same advance loop),
    ``faults``/``fault_detour``/``telemetry`` when ``None``.  The cache
    is only sound if no *excluded* field can influence the cached
    payload: a flow from an always-excluded field, or an unguarded flow
    from a when-``None``-excluded field (one that happens even on the
    ``None`` path), means two specs sharing a key can cache different
    results.

``overhead-not-free`` (ERROR)
    The paper's measurement contract: with telemetry and fault
    injection off, the hot path must not touch a collector, injector,
    or probe.  The prover walks the call graph from the simulation
    entry points following only *ungated* edges — an edge is gated when
    every evaluation of the call site sits under a non-``None`` guard
    on a telemetry/fault chain (or carries ``# taint: gated``) — and
    flags any reachable ``*Collector`` / ``*Injector`` / ``*Probe``
    method.

``det-taint`` (WARNING)
    Wall-clock or unseeded-RNG sources flowing into returned results or
    stats/result attribute state from the simulation entry points.
    Complements ``det-wallclock``/``det-random`` (which flag the *call
    sites* inside simulator modules) by tracking the *values* across
    function boundaries; diagnostic-only flows are discharged with
    ``# taint: sanitize(wallclock)``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.staticcheck.callgraph import (
    RECEIVER_HINTS,
    CallGraph,
    CallSite,
    FunctionNode,
    build_call_graph,
    chain_of,
    final_attr,
)
from repro.staticcheck.diagnostics import CheckReport, Severity
from repro.staticcheck.taint import (
    TaintAnnotations,
    TaintEngine,
    is_guarded,
    token_field,
    token_root,
)

__all__ = [
    "CacheSink",
    "SpecClass",
    "find_cache_sinks",
    "find_spec_classes",
    "lint_graph",
    "lint_paths",
    "lint_source",
]

#: Classes whose methods count as optional-subsystem overhead.
COMPONENT_RE = re.compile(r"(Collector|Injector|Probe)$")

#: Guard-chain terminal attributes that gate optional subsystems.
GATE_ATTRS = frozenset(
    {
        "telemetry", "faults", "fault_detour", "faulted", "collector",
        "collectors", "injector", "injectors", "probe", "probes",
        "auditor", "auditors", "profiler", "live", "trace",
    }
)


class SpecClass:
    """A cached-spec class: has ``key()`` built on ``asdict`` + ``del``."""

    __slots__ = ("qname", "name", "always_excluded", "when_none_excluded",
                 "key_qname")

    def __init__(
        self,
        qname: str,
        name: str,
        always_excluded: FrozenSet[str],
        when_none_excluded: FrozenSet[str],
        key_qname: str,
    ) -> None:
        self.qname = qname
        self.name = name
        self.always_excluded = always_excluded
        self.when_none_excluded = when_none_excluded
        self.key_qname = key_qname


class CacheSink:
    """One ``store.put(spec.key(), payload)`` site."""

    __slots__ = ("qname", "param", "payload", "lineno")

    def __init__(
        self, qname: str, param: str, payload: ast.expr, lineno: int
    ) -> None:
        self.qname = qname          #: function containing the sink
        self.param = param          #: formal whose ``.key()`` indexes it
        self.payload = payload      #: the cached-value expression
        self.lineno = lineno


# -- spec-class discovery -----------------------------------------------------

def _uses_asdict(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            fn = sub.func
            name = (
                fn.attr if isinstance(fn, ast.Attribute)
                else fn.id if isinstance(fn, ast.Name) else None
            )
            if name == "asdict":
                return True
    return False


def _key_exclusions(
    node: ast.AST,
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(always-excluded, when-None-excluded) fields deleted in ``key()``.

    Recognizes ``del payload["kernel"]``, the loop idiom
    ``for name in (...): if payload[name] is None: del payload[name]``
    and the direct ``if payload["x"] is None: del payload["x"]``.
    """
    always: Set[str] = set()
    when_none: Set[str] = set()
    loop_values: Dict[str, Tuple[str, ...]] = {}

    def key_names(sub: ast.expr) -> Tuple[str, ...]:
        if not isinstance(sub, ast.Subscript):
            return ()
        sl = sub.slice
        if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
            return (sl.value,)
        if isinstance(sl, ast.Name):
            return loop_values.get(sl.id, ())
        return ()

    def none_guard(test: ast.expr) -> bool:
        return (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.Eq))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and bool(key_names(test.left))
        )

    def scan(stmts: List[ast.stmt], guarded: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    for name in key_names(target):
                        (when_none if guarded else always).add(name)
            elif isinstance(stmt, ast.If):
                scan(stmt.body, guarded or none_guard(stmt.test))
                scan(stmt.orelse, guarded)
            elif isinstance(stmt, (ast.For, ast.While)):
                if (
                    isinstance(stmt, ast.For)
                    and isinstance(stmt.target, ast.Name)
                    and isinstance(stmt.iter, (ast.Tuple, ast.List))
                    and all(
                        isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                        for e in stmt.iter.elts
                    )
                ):
                    loop_values[stmt.target.id] = tuple(
                        e.value for e in stmt.iter.elts
                    )
                scan(stmt.body, guarded)
            elif isinstance(stmt, (ast.With, ast.Try)):
                for field in ("body", "orelse", "finalbody"):
                    scan(getattr(stmt, field, []) or [], guarded)

    body = getattr(node, "body", [])
    scan(body if isinstance(body, list) else [], False)
    return frozenset(always), frozenset(when_none)


def find_spec_classes(graph: CallGraph) -> List[SpecClass]:
    """Classes with an ``asdict``-based ``key()`` and field exclusions."""
    out: List[SpecClass] = []
    for qname, cls in sorted(graph.classes.items()):
        key_qname = cls.methods.get("key")
        fn = graph.functions.get(key_qname) if key_qname else None
        if fn is None or not _uses_asdict(fn.node):
            continue
        always, when_none = _key_exclusions(fn.node)
        out.append(
            SpecClass(qname, cls.name, always, when_none, fn.qname)
        )
    return out


# -- cache-sink discovery -----------------------------------------------------

def _iter_scope(root: ast.AST):
    """Preorder walk that does not descend into nested def/lambda."""
    stack: List[ast.AST] = [root]
    first = True
    while stack:
        node = stack.pop()
        if not first and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        first = False
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _formals(fn: FunctionNode) -> List[str]:
    args = getattr(fn.node, "args", None)
    if args is None:
        return []
    return [
        a.arg
        for a in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
        )
    ]


def find_cache_sinks(graph: CallGraph) -> List[CacheSink]:
    """``*.put(<expr with spec.key()>, payload)`` sites, spec a formal.

    A sink whose keyed object is not a formal parameter of the
    enclosing function (e.g. a closure variable) is skipped: the taint
    summaries are parameter-rooted, so such flows are out of scope.
    """
    from repro.staticcheck.taint import _alias_state

    sinks: List[CacheSink] = []
    for qname, fn in sorted(graph.functions.items()):
        if isinstance(fn.node, ast.Lambda):
            continue
        text_ok = False
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Attribute) and sub.attr == "put":
                text_ok = True
                break
        if not text_ok:
            continue
        aliases, _ = _alias_state(graph, fn)
        formals = set(_formals(fn))
        for node in _iter_scope(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "put"
                and len(node.args) >= 2
            ):
                continue
            key_expr, payload = node.args[0], node.args[1]
            for sub in ast.walk(key_expr):
                if not (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "key"
                ):
                    continue
                chain = chain_of(sub.func.value, aliases)
                if chain is None:
                    continue
                root = chain.split(".", 1)[0].replace("[]", "")
                if root in formals:
                    sinks.append(
                        CacheSink(qname, root, payload, node.lineno)
                    )
                break
    return sinks


# -- entry-point discovery ----------------------------------------------------

def _entry_points(graph: CallGraph) -> List[str]:
    """The simulation entry points the reachability rules start from."""
    roots: List[str] = []
    for qname, fn in sorted(graph.functions.items()):
        module_leaf = fn.module.rsplit(".", 1)[-1]
        if fn.name == "simulate_spec" and fn.cls is None:
            roots.append(qname)
        elif (
            fn.name == "run"
            and fn.cls is None
            and module_leaf == "api"
            and "spec" in _formals(fn)
        ):
            roots.append(qname)
        elif (
            fn.name == "simulate"
            and fn.cls is not None
            and (fn.cls_bare or "").endswith("System")
        ):
            roots.append(qname)
    return roots


# -- reporting helpers --------------------------------------------------------

def _location(graph: CallGraph, qname: str, lineno: int) -> str:
    node = graph.functions.get(qname)
    path = node.path if node is not None else "<unknown>"
    return f"{path}:{lineno}"


def _chain_hint(graph: CallGraph, src: str, dst: str) -> str:
    chain = graph.call_chain(src, dst)
    if not chain or len(chain) < 2:
        return ""
    bare = [q.split(".", 1)[-1] for q in chain]
    return "reached via " + " -> ".join(bare)


def _function_at(
    graph: CallGraph, path: str, lineno: int
) -> Optional[str]:
    """Tightest function qname containing ``path:lineno``."""
    best: Optional[str] = None
    best_span = None
    for qname, fn in graph.functions.items():
        if fn.path != path:
            continue
        end = fn.end_lineno or fn.lineno
        if fn.lineno <= lineno <= end:
            span = end - fn.lineno
            if best_span is None or span < best_span:
                best, best_span = qname, span
    return best


# -- the rules ----------------------------------------------------------------

def _check_cache_keys(
    report: CheckReport,
    graph: CallGraph,
    engine: TaintEngine,
    specs: List[SpecClass],
    sinks: List[CacheSink],
) -> None:
    always: Set[str] = set()
    when_none: Set[str] = set()
    for spec in specs:
        always |= set(spec.always_excluded)
        when_none |= set(spec.when_none_excluded)
    if not (always or when_none):
        return
    for sink in sinks:
        probes = engine.taint_of(sink.qname, [sink.payload])
        tokens = probes.get(id(sink.payload), frozenset())
        seen: Set[str] = set()
        for tok in sorted(tokens):
            if token_root(tok) != sink.param:
                continue
            field = token_field(tok)
            if field is None or field in seen:
                continue
            location = _location(graph, sink.qname, sink.lineno)
            origin = engine.origin_of(sink.qname, tok)
            via = (
                f" (value read at {origin[0]}:{origin[1]})"
                if origin else ""
            )
            if field in always:
                seen.add(field)
                report.add(
                    "cachekey-unsound",
                    Severity.ERROR,
                    location,
                    f"'{sink.param}.{field}' is excluded from the "
                    "cache key but its value can flow into the cached "
                    f"payload{via}; two specs differing only in "
                    f"'{field}' would share a key yet cache different "
                    "results",
                    "make the flow key-invariant, or discharge it with "
                    f"'# taint: sanitize({sink.param}.{field})' citing "
                    "the equivalence proof that makes the field "
                    "payload-irrelevant",
                )
            elif field in when_none and not is_guarded(tok):
                seen.add(field)
                report.add(
                    "cachekey-unsound",
                    Severity.ERROR,
                    location,
                    f"'{sink.param}.{field}' is dropped from the cache "
                    f"key when None, but it influences the cached "
                    f"payload without a non-None guard{via}; the "
                    "None-handling path leaks into results shared by "
                    f"every spec with '{field}=None'",
                    f"dominate every read of '{sink.param}.{field}' on "
                    "the payload path with an 'is not None' check, or "
                    "key the field unconditionally",
                )


def _gated(
    engine: TaintEngine,
    annotations: TaintAnnotations,
    fn: FunctionNode,
    site: CallSite,
) -> bool:
    if (fn.path, site.lineno) in annotations.gated:
        return True
    guards = engine.call_guards.get(fn.qname, {})
    facts = guards.get((site.lineno, site.attr))
    if not facts:
        return False
    for chain in facts:
        attr = final_attr(chain)
        if attr is not None and attr.lower() in GATE_ATTRS:
            return True
    return False


def _receiver_gate_like(site: CallSite) -> bool:
    if site.receiver is None:
        return False
    attr = final_attr(site.receiver)
    return attr is not None and attr.lower() in GATE_ATTRS


def _check_overhead(
    report: CheckReport,
    graph: CallGraph,
    engine: TaintEngine,
    annotations: TaintAnnotations,
    roots: List[str],
) -> None:
    engine.summaries()  # ensure call_guards are populated
    for root in roots:
        if root not in graph.functions:
            continue
        parent: Dict[str, Optional[str]] = {root: None}
        queue: List[str] = [root]
        flagged: Set[str] = set()
        while queue:
            qname = queue.pop(0)
            fn = graph.functions.get(qname)
            if fn is None:
                continue
            for site in graph.calls.get(qname, []):
                if _gated(engine, annotations, fn, site):
                    continue
                for target in site.targets:
                    tnode = graph.functions.get(target)
                    if tnode is None:
                        continue
                    owner = tnode.cls_bare or ""
                    if COMPONENT_RE.search(owner):
                        if site.kind == "heuristic" and \
                                not _receiver_gate_like(site):
                            continue
                        if owner in flagged:
                            continue
                        flagged.add(owner)
                        root_name = root.split(".", 1)[-1]
                        hint = (
                            "gate the call on the subsystem being "
                            "enabled (a non-None check on a "
                            "telemetry/faults chain) or annotate the "
                            "call line '# taint: gated' with the "
                            "dominating guard"
                        )
                        chain = _chain_hint(graph, root, qname)
                        if chain:
                            hint += "; " + chain
                        report.add(
                            "overhead-not-free",
                            Severity.ERROR,
                            _location(graph, qname, site.lineno),
                            f"'{root_name}' can reach "
                            f"{owner}.{tnode.name} with telemetry and "
                            "fault injection off — the measurement "
                            "path is not overhead-free",
                            hint,
                        )
                        continue
                    if target not in parent:
                        parent[target] = qname
                        queue.append(target)


_RESULT_OWNER_RE = re.compile(r"(Stats|Result|Record)$")
_RESULT_LABELS = frozenset(
    {"stats", "result", "results", "record", "extras"}
)


def _check_determinism(
    report: CheckReport,
    graph: CallGraph,
    engine: TaintEngine,
    roots: List[str],
) -> None:
    summaries = engine.summaries()
    for root in roots:
        summary = summaries.get(root)
        if summary is None:
            continue
        root_name = root.split(".", 1)[-1]
        seen: Set[Tuple[str, str]] = set()

        def flag(tok: str, what: str) -> None:
            kind = tok.split(":", 1)[1].rstrip("!")
            if (kind, what) in seen:
                return
            seen.add((kind, what))
            origin = engine.origin_of(root, tok)
            if origin is not None:
                location = f"{origin[0]}:{origin[1]}"
                holder = _function_at(graph, origin[0], origin[1])
            else:
                fn = graph.functions.get(root)
                location = f"{fn.path}:{fn.lineno}" if fn else ""
                holder = None
            hint = (
                "seed it from the spec RNG, or mark the assignment "
                f"'# taint: sanitize({kind})' if the value is "
                "diagnostic-only"
            )
            if holder is not None and holder != root:
                chain = _chain_hint(graph, root, holder)
                if chain:
                    hint += "; " + chain
            report.add(
                "det-taint",
                Severity.WARNING,
                location,
                f"'{root_name}' {what} influenced by src:{kind} — "
                "byte-identical reruns are not guaranteed",
                hint,
            )

        for tok in sorted(summary.ret):
            if tok.startswith("src:"):
                flag(tok, "returns a value")
        for (owner, attr), toks in sorted(summary.writes.items()):
            if not (
                _RESULT_OWNER_RE.search(owner)
                or owner.lower() in _RESULT_LABELS
            ):
                continue
            for tok in sorted(toks):
                if tok.startswith("src:"):
                    flag(tok, f"writes '{owner}.{attr}'")


# -- entry points -------------------------------------------------------------

def lint_graph(graph: CallGraph) -> CheckReport:
    """Run the cache/overhead/determinism provers over a built graph."""
    report = CheckReport()
    specs = find_spec_classes(graph)
    sinks = find_cache_sinks(graph)
    roots = _entry_points(graph)
    if not sinks and not roots:
        return report
    annotations = TaintAnnotations.collect(graph)
    scope = set(
        graph.reachable(roots + [s.qname for s in sinks])
    )
    engine = TaintEngine(graph, annotations, only=scope)
    if specs and sinks:
        _check_cache_keys(report, graph, engine, specs, sinks)
    if roots:
        _check_overhead(report, graph, engine, annotations, roots)
        _check_determinism(report, graph, engine, roots)
    return report


def lint_source(
    text: str, path: str = "<string>",
    graph: Optional[CallGraph] = None,
) -> CheckReport:
    """Lint one module (with an optional pre-built repo-wide graph)."""
    if graph is None:
        graph = build_call_graph([(path, text)], RECEIVER_HINTS)
        if graph.errors.get(path) is not None:
            return CheckReport()
    return lint_graph(graph)


def lint_paths(paths: Iterable[str]) -> CheckReport:
    """Build one graph over every ``.py`` file and run the provers."""
    from repro.staticcheck.detlint import iter_python_files

    sources: List[Tuple[str, str]] = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            sources.append((path, fh.read()))
    graph = build_call_graph(sources, RECEIVER_HINTS)
    return lint_graph(graph)
