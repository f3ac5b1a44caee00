"""AST-based determinism lint for simulator code.

A cycle-accurate simulator must be bit-for-bit reproducible: the parallel
sweep executor promises record-for-record identical output regardless of
worker count, and the content-addressed result store assumes a spec fully
determines its result.  Four code patterns quietly break that promise:

``det-random``
    Module-level :mod:`random` (or ``numpy.random``) calls draw from the
    shared global RNG, whose state depends on import order and on every
    other caller in the process.  Seeded ``random.Random(seed)``
    instances are the sanctioned alternative and are not flagged.
``det-wallclock``
    ``time.time()`` / ``perf_counter()`` / ``datetime.now()`` readings
    differ per host and per run; inside cycle logic they desynchronize
    results.  Host-side profiling is legitimate — mark those lines with
    ``# det: allow(det-wallclock)``.
``det-set-iter``
    Iterating an unordered ``set`` hands arbitration decisions to hash
    order (randomized per process for strings).  Iterate ``sorted(...)``
    or keep an ordered container instead.
``det-float-cycle``
    Accumulating float literals into cycle counters drifts across
    platforms once values leave the exact-integer range; cycle
    arithmetic must stay integral.

Findings can be suppressed per line with a trailing ``# det: allow``
comment, optionally naming the rule: ``# det: allow(det-wallclock)``.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence

from repro.staticcheck.callgraph import CallGraph, build_call_graph
from repro.staticcheck.diagnostics import CheckReport, Severity

#: random-module functions that use the hidden global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)

#: (module, attribute) pairs that read the wall clock.
_WALLCLOCK_FNS = frozenset(
    {
        ("time", "time"), ("time", "time_ns"),
        ("time", "perf_counter"), ("time", "perf_counter_ns"),
        ("time", "monotonic"), ("time", "monotonic_ns"),
        ("time", "process_time"), ("time", "process_time_ns"),
        ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
        ("date", "today"),
    }
)

#: Names whose arithmetic must stay integral.
_CYCLE_NAME_RE = re.compile(r"(?:^|_)(cycle|cycles|tick|ticks|now)(?:_|$)")

_ALLOW_RE = re.compile(r"#\s*det:\s*allow(?:\(([a-z0-9_,\- ]+)\))?")


def _suppressed(line: str, rule: str) -> bool:
    m = _ALLOW_RE.search(line)
    if m is None:
        return False
    named = m.group(1)
    if named is None:
        return True
    return rule in {tok.strip() for tok in named.split(",")}


def _attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute/name chain, or None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        return isinstance(fn, ast.Name) and fn.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet")
    return False


class _Scope:
    """Tracks which local names are (only ever) bound to sets."""

    def __init__(self) -> None:
        self.set_names: Dict[str, int] = {}       # name -> binding line
        self.nonset_names: set = set()

    def bind(self, name: str, line: int, is_set: bool) -> None:
        if is_set and name not in self.nonset_names:
            self.set_names.setdefault(name, line)
        else:
            self.nonset_names.add(name)
            self.set_names.pop(name, None)

    def is_set(self, name: str) -> bool:
        return name in self.set_names


def _module_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local names bound to modules (or datetime classes) by an import.

    ``import time as _t`` maps ``_t`` to ``time``, ``import numpy.random
    as npr`` maps ``npr`` to ``numpy.random`` and ``from datetime import
    datetime as dt`` maps ``dt`` to ``datetime``, so a call through the
    alias is checked as if it were spelled out.  Imports anywhere in the
    module count, as the rules are per module.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module == "datetime":
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
    return aliases


class _DetLinter(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        lines: Sequence[str],
        report: CheckReport,
        aliases: Optional[Dict[str, str]] = None,
    ) -> None:
        self.path = path
        self.lines = lines
        self.report = report
        self.aliases = aliases or {}
        self.scopes: List[_Scope] = [_Scope()]
        self._stmt_lines: List[int] = []

    def visit(self, node: ast.AST) -> None:
        # Track the first line of the enclosing statement so that a
        # suppression trailing it also covers nodes on continuation
        # lines of a multi-line expression.
        if isinstance(node, ast.stmt):
            self._stmt_lines.append(node.lineno)
            try:
                super().visit(node)
            finally:
                self._stmt_lines.pop()
        else:
            super().visit(node)

    # -- helpers -------------------------------------------------------------
    def _line(self, line_no: int) -> str:
        if 0 < line_no <= len(self.lines):
            return self.lines[line_no - 1]
        return ""

    def _emit(self, rule: str, node: ast.AST, message: str, hint: str) -> None:
        line_no = getattr(node, "lineno", 0)
        if _suppressed(self._line(line_no), rule):
            return
        if self._stmt_lines and _suppressed(
            self._line(self._stmt_lines[-1]), rule
        ):
            return
        self.report.add(
            rule,
            Severity.WARNING,
            f"{self.path}:{line_no}",
            message,
            hint,
        )

    def _name_is_set(self, name: str) -> bool:
        return any(scope.is_set(name) for scope in reversed(self.scopes))

    # -- scope handling ------------------------------------------------------
    def _visit_scoped(self, node: ast.AST) -> None:
        self.scopes.append(_Scope())
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scoped(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scoped(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node)

    # -- det-random ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain is not None:
            head, dot, rest = chain.partition(".")
            if dot and head in self.aliases:
                chain = f"{self.aliases[head]}.{rest}"
            self._check_random(chain, node)
            self._check_wallclock(chain, node)
        self.generic_visit(node)

    def _check_random(self, chain: str, node: ast.Call) -> None:
        parts = chain.split(".")
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _GLOBAL_RANDOM_FNS
        ):
            self._emit(
                "det-random",
                node,
                f"call to global-RNG function {chain}()",
                "use a seeded random.Random(seed) instance",
            )
        elif (
            len(parts) >= 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
        ):
            self._emit(
                "det-random",
                node,
                f"call to numpy global-RNG function {chain}()",
                "use numpy.random.Generator seeded per run",
            )

    def _check_wallclock(self, chain: str, node: ast.Call) -> None:
        parts = chain.split(".")
        if len(parts) >= 2 and (parts[-2], parts[-1]) in _WALLCLOCK_FNS:
            self._emit(
                "det-wallclock",
                node,
                f"wall-clock read {chain}() in simulator code",
                "derive timing from the cycle counter; host-side "
                "profiling may be annotated with '# det: allow'",
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            flagged = sorted(
                a.name for a in node.names if a.name in _GLOBAL_RANDOM_FNS
            )
            if flagged:
                self._emit(
                    "det-random",
                    node,
                    "imports global-RNG function(s) "
                    f"{', '.join(flagged)} from random",
                    "use a seeded random.Random(seed) instance",
                )
        if node.module in ("time", "datetime"):
            flagged = sorted(
                a.name
                for a in node.names
                if (node.module, a.name) in _WALLCLOCK_FNS
                or (a.name, a.name) in _WALLCLOCK_FNS
            )
            if flagged:
                self._emit(
                    "det-wallclock",
                    node,
                    f"imports wall-clock primitive(s) {', '.join(flagged)} "
                    f"from {node.module}",
                    "derive timing from the cycle counter",
                )
        self.generic_visit(node)

    # -- det-set-iter ----------------------------------------------------------
    def _check_iter(self, iter_node: ast.AST) -> None:
        flagged = _is_set_expr(iter_node) or (
            isinstance(iter_node, ast.Name)
            and self._name_is_set(iter_node.id)
        )
        if flagged:
            self._emit(
                "det-set-iter",
                iter_node,
                "iteration over an unordered set",
                "wrap in sorted(...) or keep an ordered container",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension_generators(self, generators) -> None:
        for gen in generators:
            self._check_iter(gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    # -- name binding for set inference --------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.scopes[-1].bind(target.id, node.lineno, is_set)
        self._check_float_assign(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            is_set = _is_set_annotation(node.annotation) or (
                node.value is not None and _is_set_expr(node.value)
            )
            self.scopes[-1].bind(node.target.id, node.lineno, is_set)
        self.generic_visit(node)

    # -- det-float-cycle -------------------------------------------------------
    @staticmethod
    def _target_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    @staticmethod
    def _has_float_literal(node: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Constant) and isinstance(sub.value, float)
            for sub in ast.walk(node)
        )

    def _flag_float_cycle(self, node: ast.AST, name: str) -> None:
        self._emit(
            "det-float-cycle",
            node,
            f"float literal folded into cycle counter {name!r}",
            "keep cycle arithmetic integral (use // or int rates)",
        )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = self._target_name(node.target)
        if (
            name is not None
            and _CYCLE_NAME_RE.search(name)
            and self._has_float_literal(node.value)
        ):
            self._flag_float_cycle(node, name)
        self.generic_visit(node)

    def _check_float_assign(self, node: ast.Assign) -> None:
        if not isinstance(node.value, ast.BinOp):
            return
        if not self._has_float_literal(node.value):
            return
        for target in node.targets:
            name = self._target_name(target)
            if name is not None and _CYCLE_NAME_RE.search(name):
                self._flag_float_cycle(node, name)


#: Rules whose hints gain a caller chain when a call graph is supplied.
_CHAIN_RULES = frozenset({"det-random", "det-wallclock"})

#: Bound on how far up the caller chain the hint walks.
_CHAIN_DEPTH = 6


def _caller_chain(graph: CallGraph, path: str, lineno: int) -> List[str]:
    """Caller chain ending at the function enclosing ``path:lineno``.

    Walks upward from the offending function, at each step taking the
    lexicographically-smallest unvisited caller so the chain is
    deterministic, bounded at :data:`_CHAIN_DEPTH` hops.
    """
    fn = graph.function_at(path, lineno)
    if fn is None:
        return []
    chain = [fn.qname]
    seen = {fn.qname}
    while len(chain) <= _CHAIN_DEPTH:
        callers = sorted(
            caller
            for caller, _site in graph.callers_of(chain[0])
            if caller not in seen
        )
        if not callers:
            break
        chain.insert(0, callers[0])
        seen.add(callers[0])
    return chain


def _augment_chain_hints(
    report: CheckReport, graph: CallGraph, path: str
) -> None:
    """Append ``reached via a -> b`` call chains to nondeterminism hints.

    A ``random.random()`` two helpers below a sweep entry point is easy
    to dismiss as "not my code path"; the chain shows exactly how the
    simulator reaches it.  Hints are excluded from baseline
    fingerprints, so this never churns accepted baselines.
    """
    for i, diag in enumerate(report.diagnostics):
        if diag.rule not in _CHAIN_RULES:
            continue
        try:
            lineno = int(diag.location.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            continue
        chain = _caller_chain(graph, path, lineno)
        if len(chain) < 2:
            continue
        note = "reached via " + " -> ".join(chain)
        hint = f"{diag.hint} ({note})" if diag.hint else note
        report.diagnostics[i] = dataclasses.replace(diag, hint=hint)


def lint_source(
    text: str, path: str = "<string>", graph: Optional[CallGraph] = None
) -> CheckReport:
    """Lint one module's source text; returns its findings.

    When a :class:`CallGraph` covering ``path`` is supplied, det-random
    and det-wallclock hints are augmented with the caller chain that
    reaches the offending function.
    """
    report = CheckReport()
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        report.add(
            "det-random",
            Severity.ERROR,
            f"{path}:{exc.lineno or 0}",
            f"cannot parse module: {exc.msg}",
            "fix the syntax error first",
        )
        return report
    _DetLinter(
        path, text.splitlines(), report, _module_aliases(tree)
    ).visit(tree)
    if graph is not None and report.diagnostics:
        _augment_chain_hints(report, graph, path)
    return report


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d != "__pycache__"
                )
                out.extend(
                    os.path.join(root, f)
                    for f in sorted(files)
                    if f.endswith(".py")
                )
        elif path.endswith(".py"):
            out.append(path)
    return sorted(out)


def lint_paths(paths: Iterable[str]) -> CheckReport:
    """Lint every ``.py`` file under the given files/directories."""
    sources = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            sources.append((path, fh.read()))
    graph = build_call_graph(sources)
    report = CheckReport()
    for path, text in sources:
        report.extend(lint_source(text, path, graph=graph))
    return report
