"""Interprocedural influence (taint) summaries over the call graph.

For every function in a :class:`~repro.staticcheck.callgraph.CallGraph`
this engine computes where *values* can flow: which parameters (and
one level of parameter fields) influence the return value, which
attribute paths are written with which influences, and which external
source kinds (wallclock, module-level RNG) leak in.  Summaries compose
to a fixpoint over the strongly connected components of the call graph
— a fixpoint over information flow.

Tokens
------
Taint is a set of string tokens:

``p:<param>``
    The whole value of a formal parameter (``p:spec``).
``p:<param>.<field>``
    One attribute of a parameter (``p:spec.telemetry``).  Field
    sensitivity is one level deep; deeper accesses collapse onto the
    first field, which keeps the token universe finite.
``src:<kind>``
    An environmental source: ``src:wallclock`` (``time.perf_counter``
    and friends) or ``src:rng`` (module-level ``random.*`` /
    ``numpy.random.*`` — a locally seeded ``random.Random`` instance is
    *not* a source).

A trailing ``!`` marks a **guarded** flow: every read on the token's
chain passed through a syntactic non-``None`` guard (``if x.f is not
None:``, alias-resolved, including early-return narrowing and
``a if a is not None else b``).  Rules use the mark to separate "flows
only when the field is set" from "flows unconditionally".

Annotations
-----------
A ``# taint:`` comment discharges a flow where a human proof exists:

``# taint: sanitize(<pat>, ...)``
    Tokens matching a pattern are dropped from values produced on this
    line (and from assignments spanning it).  Patterns: a source kind
    (``wallclock``/``rng``), a field name (``kernel``), a dotted
    ``root.field`` (``spec.kernel``), a bare root (``spec``), or ``*``.
``# taint: gated``
    Marks a call edge as guarded for reachability rules even when the
    guard is not syntactically recognizable.
``# taint: source(<kind>)``
    Declares calls on this line to produce ``src:<kind>``.

The provers built on this engine live in
:mod:`repro.staticcheck.cachelint`.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.staticcheck.callgraph import (
    CallGraph,
    FunctionNode,
    _FunctionResolver,
    chain_of,
    final_attr,
)

__all__ = [
    "TaintAnnotations",
    "TaintEngine",
    "TaintSummary",
    "guard_token",
    "is_guarded",
    "token_base",
    "token_field",
    "token_matches",
    "token_root",
]

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popitem", "popleft", "remove",
        "reverse", "rotate", "setdefault", "sort", "update",
    }
)

#: Call chains that read the host clock.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time", "time.perf_counter", "time.monotonic",
        "time.process_time", "time.thread_time", "time.time_ns",
        "time.perf_counter_ns", "time.monotonic_ns",
        "time.process_time_ns", "datetime.now", "datetime.utcnow",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    }
)

#: Module roots whose bare calls are unseeded RNG sources.
RNG_ROOTS = frozenset({"random"})

#: ``numpy.random`` style chains (``np.random.rand`` -> src:rng).
_RNG_SEGMENT = "random"

_MAX_LOCAL_PASSES = 10
_MAX_SCC_PASSES = 6
_MAX_HEAP_ROUNDS = 3


# -- token helpers -----------------------------------------------------------

def is_guarded(tok: str) -> bool:
    return tok.endswith("!")


def token_base(tok: str) -> str:
    return tok[:-1] if tok.endswith("!") else tok


def guard_token(tok: str) -> str:
    return tok if tok.endswith("!") else tok + "!"


def token_root(tok: str) -> Optional[str]:
    """``p:spec.kernel!`` -> ``spec``; None for source tokens."""
    b = token_base(tok)
    if not b.startswith("p:"):
        return None
    return b[2:].split(".", 1)[0]


def token_field(tok: str) -> Optional[str]:
    """``p:spec.kernel!`` -> ``kernel``; None without a field."""
    b = token_base(tok)
    if not b.startswith("p:") or "." not in b:
        return None
    return b.split(".", 1)[1]


def token_matches(tok: str, pattern: str) -> bool:
    """Does a sanitizer/report pattern select this token?"""
    b = token_base(tok)
    if pattern == "*":
        return True
    if b == f"src:{pattern}":
        return True
    if not b.startswith("p:"):
        return False
    body = b[2:]
    if body == pattern:
        return True
    root, _, field = body.partition(".")
    return pattern in (root, field)


# -- annotations -------------------------------------------------------------

_TAINT_RE = re.compile(
    r"#\s*taint:\s*(sanitize|gated|source)\b\s*(?:\(([^)]*)\))?"
)


class TaintAnnotations:
    """``# taint:`` markers collected per (path, line)."""

    def __init__(self) -> None:
        #: (path, lineno) -> sanitizer patterns active on that line
        self.sanitize: Dict[Tuple[str, int], FrozenSet[str]] = {}
        #: (path, lineno) pairs whose call edges count as guarded
        self.gated: Set[Tuple[str, int]] = set()
        #: (path, lineno) -> declared source kinds for calls on the line
        self.sources: Dict[Tuple[str, int], FrozenSet[str]] = {}

    @classmethod
    def collect(cls, graph: CallGraph) -> "TaintAnnotations":
        out = cls()
        for module in graph.modules.values():
            for lineno, line in enumerate(module.lines, start=1):
                if "# taint:" not in line and "#taint:" not in line:
                    continue
                for match in _TAINT_RE.finditer(line):
                    kind, rawargs = match.group(1), match.group(2) or ""
                    args = frozenset(
                        a.strip() for a in rawargs.split(",") if a.strip()
                    )
                    key = (module.path, lineno)
                    if kind == "sanitize":
                        prev = out.sanitize.get(key, frozenset())
                        out.sanitize[key] = prev | (args or frozenset({"*"}))
                    elif kind == "gated":
                        out.gated.add(key)
                    elif kind == "source":
                        prev = out.sources.get(key, frozenset())
                        out.sources[key] = prev | args
        return out

    def sanitizers_in(
        self, path: str, first: int, last: int
    ) -> FrozenSet[str]:
        """Union of sanitizer patterns on any line of ``[first, last]``."""
        if not self.sanitize:
            return frozenset()
        out: Set[str] = set()
        for lineno in range(first, last + 1):
            out |= self.sanitize.get((path, lineno), frozenset())
        return frozenset(out)


# -- summaries ---------------------------------------------------------------

class TaintSummary:
    """Information-flow footprint of one function."""

    __slots__ = ("ret", "writes", "param_writes", "origins")

    def __init__(
        self,
        ret: Iterable[str] = (),
        writes: Optional[Dict[Tuple[str, str], FrozenSet[str]]] = None,
        param_writes: Optional[Dict[str, FrozenSet[str]]] = None,
        origins: Optional[Dict[str, Tuple[str, int]]] = None,
    ) -> None:
        #: tokens influencing the return (and yield) values
        self.ret: FrozenSet[str] = frozenset(ret)
        #: (owner label, final attr) -> influencing tokens
        self.writes = writes or {}
        #: formal parameter -> tokens written into the argument object
        self.param_writes = param_writes or {}
        #: base token -> (path, lineno) where it first arose
        self.origins = origins or {}

    def _key(self):
        return (
            self.ret,
            tuple(sorted(
                (k, frozenset(v)) for k, v in self.writes.items()
            )),
            tuple(sorted(
                (k, frozenset(v)) for k, v in self.param_writes.items()
            )),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TaintSummary) and self._key() == other._key()
        )

    def __hash__(self) -> int:  # pragma: no cover - dict compat
        return hash(self.ret)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaintSummary(ret={sorted(self.ret)}, "
            f"writes={sorted(self.writes)})"
        )


# -- guard-fact computation --------------------------------------------------

def split_facts(
    test: ast.expr, aliases: Dict[str, str]
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(facts when true, facts when false): chains known non-``None``.

    Handles ``x is (not) None``, plain truthiness, ``not``, ``and``
    (facts accumulate left to right on the true side) and ``or`` (all
    disjuncts' false-facts hold on the false side).
    """
    empty: FrozenSet[str] = frozenset()
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        operand = None
        if isinstance(right, ast.Constant) and right.value is None:
            operand = left
        elif isinstance(left, ast.Constant) and left.value is None:
            operand = right
        if operand is not None:
            chain = chain_of(operand, aliases)
            if chain is None:
                return empty, empty
            if isinstance(op, ast.Is) or isinstance(op, ast.Eq):
                return empty, frozenset({chain})
            if isinstance(op, ast.IsNot) or isinstance(op, ast.NotEq):
                return frozenset({chain}), empty
        return empty, empty
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        t, f = split_facts(test.operand, aliases)
        return f, t
    if isinstance(test, ast.BoolOp):
        if isinstance(test.op, ast.And):
            true_facts: Set[str] = set()
            for value in test.values:
                t, _ = split_facts(value, aliases)
                true_facts |= t
            return frozenset(true_facts), empty
        false_facts: Set[str] = set()
        for value in test.values:
            _, f = split_facts(value, aliases)
            false_facts |= f
        return empty, frozenset(false_facts)
    if isinstance(test, (ast.Name, ast.Attribute, ast.Subscript)):
        chain = chain_of(test, aliases)
        if chain is not None:
            return frozenset({chain}), empty
    if isinstance(test, ast.NamedExpr):
        # ``if (x := e):`` — truthiness of the bound value
        chain = chain_of(test, aliases)
        target = (
            test.target.id if isinstance(test.target, ast.Name) else None
        )
        facts = {c for c in (chain, target) if c}
        return frozenset(facts), empty
    return empty, empty


def _alias_state(
    graph: CallGraph, fn: FunctionNode
) -> Tuple[Dict[str, str], Dict[str, str]]:
    """(aliases, instances) for one function via the shared resolver scan.

    ``aliases`` maps local name -> normalized chain; ``instances`` maps
    local name -> bare class name for ``x = ClassName(...)`` bindings.
    """
    res = _FunctionResolver.__new__(_FunctionResolver)
    res.graph = graph
    res.fn = fn
    res.module = graph.modules[fn.module]
    res.aliases = {}
    res.bound = {}
    res.instances = {}
    res.sites = []
    res._scan_aliases(fn.node)
    instances = {
        name: qname.rsplit(".", 1)[-1]
        for name, qname in res.instances.items()
    }
    return res.aliases, instances


def _terminates(stmts: List[ast.stmt]) -> bool:
    if not stmts:
        return False
    return isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


# -- per-function interpretation ---------------------------------------------

class _FunctionTaint:
    """Flow-insensitive taint interpretation of one function body.

    Locals map to token sets; statements are executed in source order,
    repeatedly, to a local fixpoint (loops and use-before-redef feed
    back through the repetition).  Guard facts are carried down the
    recursive walk, so every expression evaluates under the non-None
    chains active at its program point.
    """

    def __init__(
        self,
        engine: "TaintEngine",
        fn: FunctionNode,
        summaries: Dict[str, TaintSummary],
    ) -> None:
        self.engine = engine
        self.graph = engine.graph
        self.annotations = engine.annotations
        self.fn = fn
        self.summaries = summaries
        self.aliases, self.instances = _alias_state(self.graph, fn)
        self.params = self._formals()
        self.env: Dict[str, Set[str]] = {
            p: {f"p:{p}"} for p in self.params
        }
        self.ret: Set[str] = set()
        self.writes: Dict[Tuple[str, str], Set[str]] = {}
        self.param_writes: Dict[str, Set[str]] = {}
        self.origins: Dict[str, Tuple[str, int]] = {}
        #: (lineno, called name) -> intersection of guard facts at site
        self.call_guards: Dict[Tuple[int, str], FrozenSet[str]] = {}
        #: id(expr node) -> observed tokens (sink probes)
        self.probes: Dict[int, Set[str]] = {}
        self._site_index: Dict[Tuple[int, str], List] = {}
        for site in self.graph.calls.get(fn.qname, []):
            if site.kind == "property":
                continue
            self._site_index.setdefault(
                (site.lineno, site.attr), []
            ).append(site)

    # -- setup ---------------------------------------------------------------
    def _formals(self) -> List[str]:
        node = self.fn.node
        args = node.args
        names = [
            a.arg
            for a in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            )
        ]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names

    def _size(self) -> int:
        return (
            sum(len(v) for v in self.env.values())
            + sum(len(v) for v in self.writes.values())
            + sum(len(v) for v in self.param_writes.values())
            + len(self.ret)
        )

    def run(self, probe_nodes: Iterable[ast.expr] = ()) -> TaintSummary:
        for node in probe_nodes:
            self.probes[id(node)] = set()
        body = getattr(self.fn.node, "body", None)
        for _ in range(_MAX_LOCAL_PASSES):
            before = self._size()
            if isinstance(self.fn.node, ast.Lambda):
                self.ret |= self._eval(self.fn.node.body, frozenset())
            elif isinstance(body, list):
                self._suite(body, frozenset())
            if self._size() == before:
                break
        return TaintSummary(
            frozenset(self.ret),
            {k: frozenset(v) for k, v in self.writes.items()},
            {k: frozenset(v) for k, v in self.param_writes.items()},
            dict(self.origins),
        )

    # -- statements ----------------------------------------------------------
    def _suite(
        self, stmts: List[ast.stmt], facts: FrozenSet[str]
    ) -> FrozenSet[str]:
        for stmt in stmts:
            facts = self._stmt(stmt, facts)
        return facts

    def _stmt(
        self, stmt: ast.stmt, facts: FrozenSet[str]
    ) -> FrozenSet[str]:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is None:
                return facts
            toks = self._eval(value, facts)
            toks = self._sanitize_stmt(toks, stmt)
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                self._assign(target, toks, facts)
            return facts
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                toks = self._sanitize_stmt(
                    self._eval(stmt.value, facts), stmt
                )
                self.ret |= toks
            return facts
        if isinstance(stmt, ast.Expr):
            toks = self._eval(stmt.value, facts)
            self._sanitize_stmt(toks, stmt)
            return facts
        if isinstance(stmt, ast.If):
            t, f = split_facts(stmt.test, self.aliases)
            self._eval(stmt.test, facts)
            self._suite(stmt.body, facts | t)
            if stmt.orelse:
                self._suite(stmt.orelse, facts | f)
            # Early-exit narrowing: past an `if x is None: return`,
            # the else-facts hold for the rest of the suite.
            if _terminates(stmt.body) and not _terminates(stmt.orelse):
                return facts | f
            if stmt.orelse and _terminates(stmt.orelse) and \
                    not _terminates(stmt.body):
                return facts | t
            return facts
        if isinstance(stmt, (ast.While,)):
            t, _ = split_facts(stmt.test, self.aliases)
            self._eval(stmt.test, facts)
            self._suite(stmt.body, facts | t)
            self._suite(stmt.orelse, facts)
            return facts
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            toks = self._eval(stmt.iter, facts)
            self._assign(stmt.target, toks, facts)
            self._suite(stmt.body, facts)
            self._suite(stmt.orelse, facts)
            return facts
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                toks = self._eval(item.context_expr, facts)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, toks, facts)
            self._suite(stmt.body, facts)
            return facts
        if isinstance(stmt, ast.Try):
            self._suite(stmt.body, facts)
            for handler in stmt.handlers:
                self._suite(handler.body, facts)
            self._suite(stmt.orelse, facts)
            self._suite(stmt.finalbody, facts)
            return facts
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test, facts)
            t, _ = split_facts(stmt.test, self.aliases)
            return facts | t
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, facts)
            return facts
        if isinstance(stmt, ast.Match):
            self._eval(stmt.subject, facts)
            subject_toks = self._eval(stmt.subject, facts)
            for case in stmt.cases:
                for name in _match_captures(case.pattern):
                    self.env.setdefault(name, set()).update(subject_toks)
                if case.guard is not None:
                    self._eval(case.guard, facts)
                self._suite(case.body, facts)
            return facts
        # Delete / Pass / Import / Global / nested defs: no value flow.
        return facts

    # -- assignment targets --------------------------------------------------
    def _assign(
        self, target: ast.expr, toks: Set[str], facts: FrozenSet[str]
    ) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(toks)
            return
        if isinstance(target, ast.Starred):
            self._assign(target.value, toks, facts)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, toks, facts)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self._write_through(
                target, toks, getattr(target, "lineno", 0)
            )

    def _write_through(
        self, target: ast.expr, toks: Set[str], lineno: int
    ) -> None:
        """Record a write through an attribute/subscript chain."""
        if not toks:
            return
        chain = chain_of(target, self.aliases)
        if chain is None:
            # Unresolvable base (call result, etc.): taint the root
            # local if there is one, so the object carries the flow.
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name):
                self.env.setdefault(root.id, set()).update(toks)
            return
        root = chain.split(".", 1)[0].replace("[]", "")
        attr = final_attr(chain) or chain
        owner = self._owner_label(chain, root)
        if "." in chain and owner is not None:
            entry = self.writes.setdefault((owner, attr), set())
            entry.update(toks)
            for tok in toks:
                self.origins.setdefault(
                    token_base(tok), (self.fn.path, lineno)
                )
            # Source tokens written into object attributes enter the
            # owner-scoped heap so attribute reads on the same class
            # (or same-labeled instance) elsewhere see them.  Scoping
            # by owner keeps e.g. a profiler's wallclock out of every
            # unrelated class that happens to share an attribute name.
            srcs = {
                token_base(t) for t in toks
                if token_base(t).startswith("src:")
            }
            if srcs:
                self.engine.note_heap(
                    owner, attr, srcs, (self.fn.path, lineno)
                )
        if root in self.params:
            self.param_writes.setdefault(root, set()).update(toks)
        elif root != "self":
            # Writes through a local: the object (and whatever it is
            # later returned/stored as) carries the taint.
            self.env.setdefault(root, set()).update(toks)

    def _owner_label(self, chain: str, root: str) -> Optional[str]:
        segments = [
            s.replace("[]", "") for s in chain.split(".") if s
        ]
        if len(segments) >= 3:
            return segments[-2]
        if root == "self":
            return self.fn.cls_bare or "self"
        if root in self.instances:
            return self.instances[root]
        return root

    # -- expressions ---------------------------------------------------------
    def _eval(self, node: ast.expr, facts: FrozenSet[str]) -> Set[str]:
        toks = self._eval_inner(node, facts)
        probe = self.probes.get(id(node))
        if probe is not None:
            probe.update(toks)
        return toks

    def _eval_inner(
        self, node: ast.expr, facts: FrozenSet[str]
    ) -> Set[str]:
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, facts)
        if isinstance(node, ast.Subscript):
            toks = self._eval(node.value, facts)
            toks |= self._eval(node.slice, facts)
            return toks
        if isinstance(node, ast.Call):
            return self._eval_call(node, facts)
        if isinstance(node, ast.IfExp):
            t, f = split_facts(node.test, self.aliases)
            # The test is evaluated (call guards, probes) but its taint
            # is an *implicit* flow and not part of the value: tracking
            # it would mark every `x if x is not None else d` guard
            # idiom as an unguarded read of x.
            self._eval(node.test, facts)
            toks = self._eval(node.body, facts | t)
            toks |= self._eval(node.orelse, facts | f)
            return toks
        if isinstance(node, ast.NamedExpr):
            toks = self._eval(node.value, facts)
            if isinstance(node.target, ast.Name):
                self.env.setdefault(node.target.id, set()).update(toks)
            return toks
        if isinstance(node, ast.BoolOp):
            toks: Set[str] = set()
            acc = facts
            for value in node.values:
                toks |= self._eval(value, acc)
                if isinstance(node.op, ast.And):
                    t, _ = split_facts(value, self.aliases)
                    acc = acc | t
            return toks
        if isinstance(node, ast.Lambda):
            return set()
        if isinstance(
            node,
            (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
        ):
            for gen in node.generators:
                src = self._eval(gen.iter, facts)
                self._assign(gen.target, src, facts)
                for cond in gen.ifs:
                    self._eval(cond, facts)
            toks = set()
            if isinstance(node, ast.DictComp):
                toks |= self._eval(node.key, facts)
                toks |= self._eval(node.value, facts)
            else:
                toks |= self._eval(node.elt, facts)
            return toks
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self.ret |= self._eval(node.value, facts)
            return set()
        if isinstance(node, ast.Await):
            return self._eval(node.value, facts)
        if isinstance(node, ast.Constant):
            return set()
        # Generic fold: BinOp/UnaryOp/Compare/Tuple/List/Dict/Set/
        # JoinedStr/Starred/Slice — union of child expression taints.
        toks = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                toks |= self._eval(child, facts)
        return toks

    def _eval_attribute(
        self, node: ast.Attribute, facts: FrozenSet[str]
    ) -> Set[str]:
        base_toks = self._eval(node.value, facts)
        toks: Set[str] = set()
        for tok in base_toks:
            b = token_base(tok)
            g = is_guarded(tok)
            if b.startswith("p:") and "." not in b[2:]:
                nb = f"{b}.{node.attr}"
                self.origins.setdefault(
                    nb, (self.fn.path, getattr(node, "lineno", 0))
                )
            else:
                nb = b  # one-level field sensitivity: deeper collapses
            toks.add(guard_token(nb) if g else nb)
        chain = chain_of(node, self.aliases)
        if chain is not None:
            root = chain.split(".", 1)[0].replace("[]", "")
            owner = self._owner_label(chain, root)
            heap = (
                self.engine.heap.get((owner, node.attr))
                if owner is not None else None
            )
            if heap:
                toks |= set(heap)
                for tok in heap:
                    self.origins.setdefault(
                        tok, self.engine.heap_origins.get(
                            tok,
                            (self.fn.path, getattr(node, "lineno", 0)),
                        )
                    )
            if chain in facts:
                toks = set(map(guard_token, toks))
        return toks

    # -- calls ---------------------------------------------------------------
    def _arg_tokens(
        self, node: ast.Call, facts: FrozenSet[str]
    ) -> Set[str]:
        toks: Set[str] = set()
        for arg in node.args:
            toks |= self._eval(arg, facts)
        for kw in node.keywords:
            toks |= self._eval(kw.value, facts)
        return toks

    def _src_kind(self, func: ast.expr) -> Optional[str]:
        chain = chain_of(func)
        if chain is None:
            return None
        if chain in WALLCLOCK_CALLS:
            return "wallclock"
        segments = [s.replace("[]", "") for s in chain.split(".")]
        name = segments[-1]
        if name[:1].isupper():
            # Constructor (random.Random(seed)): deterministic once
            # seeded, and instance methods root at the local, not here.
            return None
        if segments[0] in RNG_ROOTS and len(segments) > 1:
            return "rng"
        if _RNG_SEGMENT in segments[:-1]:
            return "rng"
        return None

    def _eval_call(
        self, node: ast.Call, facts: FrozenSet[str]
    ) -> Set[str]:
        func = node.func
        lineno = getattr(node, "lineno", 0)
        name = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name)
            else None
        )
        if name is not None:
            key = (lineno, name)
            prev = self.call_guards.get(key)
            self.call_guards[key] = (
                facts if prev is None else prev & facts
            )
        arg_toks = self._arg_tokens(node, facts)
        recv_toks: Set[str] = set()
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                recv_toks = set(self.env.get("self", ()))
            else:
                recv_toks = self._eval(func.value, facts)

        out: Set[str] = set()
        kind = self._src_kind(func)
        declared = self.annotations.sources.get((self.fn.path, lineno))
        kinds = set(declared or ())
        if kind is not None:
            kinds.add(kind)
        for k in sorted(kinds):
            tok = f"src:{k}"
            out.add(tok)
            self.origins.setdefault(tok, (self.fn.path, lineno))

        sites = self._site_index.get((lineno, name)) if name else None
        resolved = False
        if sites:
            for site in sites:
                if site.kind == "init":
                    out |= arg_toks
                if site.kind == "heuristic" and len(site.targets) > 1:
                    # A name-only match over several unrelated classes:
                    # instantiating all of them would union flows from
                    # code the receiver can never be.  Fall back to the
                    # unresolved passthrough instead.
                    continue
                for target in site.targets:
                    summary = self.summaries.get(target)
                    tnode = self.graph.functions.get(target)
                    if summary is None or tnode is None:
                        continue
                    resolved = True
                    out |= self._instantiate(
                        tnode, summary, node, recv_toks, facts
                    )
        if not resolved and not kinds:
            # Unknown external call: arguments and receiver flow through.
            out |= arg_toks | recv_toks
            if (
                isinstance(func, ast.Attribute)
                and name in MUTATOR_METHODS
                and arg_toks
            ):
                self._write_through(func.value, arg_toks, lineno)
        return self._sanitize_line(out, lineno)

    def _instantiate(
        self,
        tnode: FunctionNode,
        summary: TaintSummary,
        call: ast.Call,
        recv_toks: Set[str],
        facts: FrozenSet[str],
    ) -> Set[str]:
        """Substitute a callee summary into this call site."""
        args = tnode.node.args if hasattr(tnode.node, "args") else None
        if args is None:
            return set()
        positional = [
            a.arg for a in (list(args.posonlyargs) + list(args.args))
        ]
        kwonly = [a.arg for a in args.kwonlyargs]
        actual: Dict[str, Set[str]] = {}
        arg_nodes: Dict[str, ast.expr] = {}
        method_call = (
            tnode.cls is not None
            and positional
            and positional[0] in ("self", "cls")
            and isinstance(call.func, ast.Attribute)
        )
        if method_call:
            actual[positional[0]] = recv_toks
            positional = positional[1:]
        idx = 0
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                toks = self._eval(arg.value, facts)
                target = (
                    args.vararg.arg if args.vararg
                    else positional[idx] if idx < len(positional)
                    else None
                )
                if target is not None:
                    actual.setdefault(target, set()).update(toks)
                continue
            if idx < len(positional):
                formal = positional[idx]
            elif args.vararg is not None:
                formal = args.vararg.arg
            else:
                formal = None
            if formal is not None:
                actual.setdefault(formal, set()).update(
                    self._eval(arg, facts)
                )
                arg_nodes.setdefault(formal, arg)
            idx += 1
        for kw in call.keywords:
            toks = self._eval(kw.value, facts)
            if kw.arg is None:
                # **kwargs splat: conservatively feeds every keyword
                for formal in kwonly + positional:
                    actual.setdefault(formal, set()).update(toks)
                continue
            formal = (
                kw.arg
                if kw.arg in positional or kw.arg in kwonly
                or (method_call and kw.arg in actual)
                else args.kwarg.arg if args.kwarg is not None
                else None
            )
            if formal is not None:
                actual.setdefault(formal, set()).update(toks)
                arg_nodes.setdefault(formal, kw.value)

        out: Set[str] = set()
        for tok in summary.ret:
            out |= self._subst(tok, actual, summary, tnode, call)
        lineno = getattr(call, "lineno", 0)
        for key, toks in summary.writes.items():
            merged: Set[str] = set()
            for tok in toks:
                merged |= self._subst(tok, actual, summary, tnode, call)
            merged = self._sanitize_line(merged, lineno)
            if merged:
                self.writes.setdefault(key, set()).update(merged)
        for formal, toks in summary.param_writes.items():
            merged = set()
            for tok in toks:
                merged |= self._subst(tok, actual, summary, tnode, call)
            merged = self._sanitize_line(merged, lineno)
            if not merged:
                continue
            anode = arg_nodes.get(formal)
            if anode is not None:
                self._assign(anode, merged, facts)
            elif formal in ("self", "cls") and isinstance(
                call.func, ast.Attribute
            ):
                self._write_through(call.func.value, merged,
                                    getattr(call, "lineno", 0))
        return out

    def _subst(
        self,
        tok: str,
        actual: Dict[str, Set[str]],
        summary: TaintSummary,
        tnode: FunctionNode,
        call: ast.Call,
    ) -> Set[str]:
        b = token_base(tok)
        g = is_guarded(tok)
        origin = summary.origins.get(
            b, (tnode.path, getattr(call, "lineno", 0))
        )
        if b.startswith("src:"):
            self.origins.setdefault(b, origin)
            return {guard_token(b) if g else b}
        body = b[2:]
        root, _, field = body.partition(".")
        actuals = actual.get(root)
        if not actuals:
            return set()
        out: Set[str] = set()
        for a in sorted(actuals):
            ab = token_base(a)
            ag = is_guarded(a)
            if field and ab.startswith("p:") and "." not in ab[2:]:
                nb = f"{ab}.{field}"
            else:
                nb = ab
            self.origins.setdefault(nb, origin)
            out.add(guard_token(nb) if (g or ag) else nb)
        return out

    # -- sanitizers ----------------------------------------------------------
    def _sanitize_line(self, toks: Set[str], lineno: int) -> Set[str]:
        patterns = self.annotations.sanitize.get((self.fn.path, lineno))
        if not patterns or not toks:
            return toks
        return {
            t for t in toks
            if not any(token_matches(t, p) for p in patterns)
        }

    def _sanitize_stmt(self, toks: Set[str], stmt: ast.stmt) -> Set[str]:
        if not toks:
            return toks
        first = getattr(stmt, "lineno", 0)
        last = getattr(stmt, "end_lineno", first)
        patterns = self.annotations.sanitizers_in(
            self.fn.path, first, last
        )
        if not patterns:
            return toks
        return {
            t for t in toks
            if not any(token_matches(t, p) for p in patterns)
        }


def _match_captures(pattern) -> List[str]:
    out: List[str] = []
    for sub in ast.walk(pattern):
        if isinstance(sub, ast.MatchAs) and sub.name is not None:
            out.append(sub.name)
        elif isinstance(sub, ast.MatchStar) and sub.name is not None:
            out.append(sub.name)
    return out


# -- the engine --------------------------------------------------------------

class TaintEngine:
    """Per-function taint summaries, fixpoint over call-graph SCCs.

    ``only`` restricts summarization to a set of qnames (typically the
    functions reachable from a rule's roots) — the engine is linear in
    the number of summarized functions, so rules should scope it.
    """

    def __init__(
        self,
        graph: CallGraph,
        annotations: Optional[TaintAnnotations] = None,
        only: Optional[Set[str]] = None,
    ) -> None:
        self.graph = graph
        self.annotations = (
            annotations if annotations is not None
            else TaintAnnotations.collect(graph)
        )
        self.only = only
        #: (owner label, attribute) -> src tokens stored there
        self.heap: Dict[Tuple[str, str], FrozenSet[str]] = {}
        self.heap_origins: Dict[str, Tuple[str, int]] = {}
        self._heap_dirty = False
        self._summaries: Optional[Dict[str, TaintSummary]] = None
        #: qname -> {(lineno, name): guard facts} per call site
        self.call_guards: Dict[
            str, Dict[Tuple[int, str], FrozenSet[str]]
        ] = {}

    def note_heap(
        self,
        owner: str,
        attr: str,
        srcs: Set[str],
        origin: Tuple[str, int],
    ) -> None:
        key = (owner, attr)
        prev = self.heap.get(key, frozenset())
        merged = prev | srcs
        if merged != prev:
            self.heap[key] = merged
            for tok in srcs:
                self.heap_origins.setdefault(tok, origin)
            self._heap_dirty = True

    def _in_scope(self, qname: str) -> bool:
        return self.only is None or qname in self.only

    def summaries(self) -> Dict[str, TaintSummary]:
        if self._summaries is not None:
            return self._summaries
        components = [
            [q for q in comp if self._in_scope(q)
             and q in self.graph.functions]
            for comp in self.graph.sccs()
        ]
        summs: Dict[str, TaintSummary] = {}
        for _ in range(_MAX_HEAP_ROUNDS):
            self._heap_dirty = False
            summs = {}
            self.call_guards = {}
            for comp in components:
                if not comp:
                    continue
                recursive = len(comp) > 1 or any(
                    comp[0] in site.targets
                    for site in self.graph.calls.get(comp[0], [])
                )
                passes = _MAX_SCC_PASSES if recursive else 1
                for _ in range(passes):
                    changed = False
                    for qname in comp:
                        fn = self.graph.functions[qname]
                        ft = _FunctionTaint(self, fn, summs)
                        new = ft.run()
                        if summs.get(qname) != new:
                            changed = True
                        summs[qname] = new
                        self.call_guards[qname] = ft.call_guards
                    if not changed:
                        break
            if not self._heap_dirty:
                break
        self._summaries = summs
        return summs

    def taint_of(
        self, qname: str, nodes: List[ast.expr]
    ) -> Dict[int, FrozenSet[str]]:
        """Tokens observed at specific expression nodes of a function.

        Runs one more local pass with the converged summaries and
        records every evaluation of the given nodes (keyed by ``id``).
        """
        summs = self.summaries()
        fn = self.graph.functions.get(qname)
        if fn is None:
            return {}
        ft = _FunctionTaint(self, fn, summs)
        ft.run(probe_nodes=nodes)
        self._last_probe = ft
        return {k: frozenset(v) for k, v in ft.probes.items()}

    def origin_of(self, qname: str, tok: str) -> Optional[Tuple[str, int]]:
        """Best-known source location for a token seen in ``qname``."""
        summary = self.summaries().get(qname)
        base = token_base(tok)
        if summary is not None and base in summary.origins:
            return summary.origins[base]
        probe = getattr(self, "_last_probe", None)
        if probe is not None and base in probe.origins:
            return probe.origins[base]
        return self.heap_origins.get(base)
