"""Module-aware call graph over a set of Python sources.

The determinism lint's ``reached via a -> b`` hints need *who calls
whom*, resolved across modules: :func:`build_call_graph` builds it once
per check run, and a hint walks it upward with
:meth:`CallGraph.function_at` (the function enclosing a finding) and
:meth:`CallGraph.callers_of`.

Resolution handles in-package inheritance (``self.m`` dispatches to the
inherited method plus subclass overrides), ``super()``, import aliases,
class instantiation (``Foo()`` edges to ``Foo.__init__`` and marks the
binding an instance), bound methods stored in locals, and properties
used as values.  Attribute receivers that cannot be typed locally fall
back to *receiver hints* — a mapping from the terminal segment of the
receiver chain (``routers[]``, ``telemetry``) to candidate class names —
and, failing that, to name-based may-resolution over every class
defining the method.

The graph is a *may*-call over-approximation: an edge means the call
could reach that target, not that it must.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CallGraph",
    "FunctionNode",
    "RECEIVER_HINTS",
    "build_call_graph",
    "chain_of",
    "module_name_for",
]

#: Receiver-chain terminal segments -> candidate component classes, used
#: to type untyped attribute calls such as ``net.routers[r].step(...)``
#: or ``ni.step(...)``.  Subclass overrides are added automatically by
#: the resolver.
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

#: Method names too generic to resolve by name alone — they are almost
#: always container/builtin operations, and a name-based fallback edge
#: to an unrelated class method of the same name would poison chains.
_GENERIC_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "copy", "count", "discard",
        "extend", "extendleft", "format", "get", "index", "insert", "items",
        "join", "keys", "lower", "pop", "popitem", "popleft", "remove",
        "reverse", "rotate", "setdefault", "sort", "split", "startswith",
        "strip", "update", "upper", "values", "write",
    }
)

#: Builtins that pass their first argument's elements through unchanged,
#: so iterating/subscripting their result aliases the argument.
_PASSTHROUGH_CALLS = frozenset(
    {"enumerate", "sorted", "list", "tuple", "reversed", "iter", "set"}
)

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for(path: str) -> str:
    """Dotted module name derived from a file path.

    Components up to and including a ``src`` directory are stripped, the
    ``.py`` suffix and a trailing ``__init__`` are dropped, and anything
    that is not a Python identifier is discarded.
    """
    norm = path.replace("\\", "/")
    parts = [p for p in norm.split("/") if p not in ("", ".", "..")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    parts = [p for p in parts if p.isidentifier()]
    return ".".join(parts) or "module"


def _decorator_names(node: ast.AST) -> List[str]:
    names = []
    for dec in getattr(node, "decorator_list", []):
        if isinstance(dec, ast.Call):
            dec = dec.func
        if isinstance(dec, ast.Name):
            names.append(dec.id)
        elif isinstance(dec, ast.Attribute):
            names.append(dec.attr)
    return names


class _ClassInfo:
    """One class definition: bases (resolved where possible) and methods."""

    __slots__ = ("module", "name", "node", "bases", "methods")

    def __init__(self, module: str, node: ast.ClassDef):
        self.module = module
        self.name = node.name
        self.node = node
        #: base-class qnames when resolvable, else the bare source name
        self.bases: List[str] = []
        #: method name -> function qname (own definitions only)
        self.methods: Dict[str, str] = {}


class FunctionNode:
    """One function or method, addressed by ``module.[Class.]name``."""

    __slots__ = ("qname", "module", "cls", "node", "lineno", "end_lineno",
                 "is_property")

    def __init__(
        self, qname: str, module: str, cls: Optional[str], node: ast.AST
    ) -> None:
        self.qname = qname
        self.module = module
        self.cls = cls  # owning class qname, or None
        self.node = node
        self.lineno = getattr(node, "lineno", 0)
        self.end_lineno = getattr(node, "end_lineno", self.lineno)
        decorators = _decorator_names(node)
        self.is_property = "property" in decorators or "setter" in decorators


def chain_of(
    expr: ast.AST, aliases: Optional[Dict[str, str]] = None
) -> Optional[str]:
    """Normalized receiver chain of an expression, or None.

    ``net.routers[r]`` becomes ``net.routers[]``; local aliases are
    substituted through ``aliases`` (name -> chain).  ``x.get(k)`` and
    ``x.setdefault(k, d)`` alias an element of ``x`` (``chain(x)[]``);
    the passthrough builtins (``sorted``/``enumerate``/...) alias their
    argument.
    """
    if isinstance(expr, ast.Name):
        if aliases is not None and expr.id in aliases:
            return aliases[expr.id]
        return expr.id
    if isinstance(expr, ast.NamedExpr):
        # (x := expr) evaluates to expr: chains pass through the walrus
        return chain_of(expr.value, aliases)
    if isinstance(expr, ast.Attribute):
        base = chain_of(expr.value, aliases)
        return f"{base}.{expr.attr}" if base else None
    if isinstance(expr, ast.Subscript):
        base = chain_of(expr.value, aliases)
        return f"{base}[]" if base else None
    if isinstance(expr, ast.Call):
        fn = expr.func
        if (
            isinstance(fn, ast.Name)
            and fn.id in _PASSTHROUGH_CALLS
            and expr.args
        ):
            return chain_of(expr.args[0], aliases)
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("get", "setdefault")
            and expr.args
        ):
            base = chain_of(fn.value, aliases)
            return f"{base}[]" if base else None
    return None


class CallGraph:
    """The resolved call graph over a set of modules."""

    def __init__(self) -> None:
        self.module_by_path: Dict[str, str] = {}
        #: module -> local name -> dotted import target
        self.imports: Dict[str, Dict[str, str]] = {}
        self.classes: Dict[str, _ClassInfo] = {}
        self.functions: Dict[str, FunctionNode] = {}
        #: caller qname -> callee qnames (may-call)
        self.calls: Dict[str, List[str]] = {}
        self._classes_by_name: Dict[str, List[str]] = {}
        self._method_index: Dict[str, List[str]] = {}
        self._subclasses: Dict[str, List[str]] = {}
        self._callers: Optional[Dict[str, Set[str]]] = None

    def _index(self) -> None:
        self._classes_by_name = {}
        self._method_index = {}
        self._subclasses = {}
        for qname, cls in self.classes.items():
            self._classes_by_name.setdefault(cls.name, []).append(qname)
            for method, fn_qname in cls.methods.items():
                self._method_index.setdefault(method, []).append(fn_qname)
            for base in cls.bases:
                if base in self.classes:
                    self._subclasses.setdefault(base, []).append(qname)

    def _all_subclasses(self, class_qname: str) -> List[str]:
        """Transitive subclass qnames, breadth first."""
        out: List[str] = []
        queue = list(self._subclasses.get(class_qname, []))
        while queue:
            cur = queue.pop(0)
            if cur not in out:
                out.append(cur)
                queue.extend(self._subclasses.get(cur, []))
        return out

    def _inherited(
        self, class_qname: str, method: str, seen: Optional[Set[str]] = None
    ) -> Optional[FunctionNode]:
        """``method`` as ``class_qname`` sees it: its own, else a base's."""
        seen = set() if seen is None else seen
        if class_qname in seen or class_qname not in self.classes:
            return None
        seen.add(class_qname)
        cls = self.classes[class_qname]
        own = cls.methods.get(method)
        if own is not None:
            return self.functions[own]
        for base in cls.bases:
            found = self._inherited(base, method, seen)
            if found is not None:
                return found
        return None

    def callers_of(self, qname: str) -> List[str]:
        """Qnames of every function with a call edge to ``qname``, sorted."""
        if self._callers is None:
            callers: Dict[str, Set[str]] = {}
            for caller, targets in self.calls.items():
                for target in targets:
                    callers.setdefault(target, set()).add(caller)
            self._callers = callers
        return sorted(self._callers.get(qname, ()))

    def resolve_name(self, module: str, name: str) -> Optional[str]:
        """Resolve a bare name in ``module`` to a function qname."""
        qname = f"{module}.{name}"
        if qname in self.functions:
            return qname
        dotted = self.imports.get(module, {}).get(name)
        if dotted is not None and dotted in self.functions:
            return dotted
        return None

    def resolve_class(self, module: str, name: str) -> Optional[str]:
        """Resolve a bare or dotted class name seen in ``module``."""
        qname = f"{module}.{name}"
        if qname in self.classes:
            return qname
        head, _, rest = name.partition(".")
        dotted = self.imports.get(module, {}).get(head)
        if dotted is not None:
            candidate = f"{dotted}.{rest}" if rest else dotted
            if candidate in self.classes:
                return candidate
        # Unique bare-name match across the package.
        matches = self._classes_by_name.get(name.rsplit(".", 1)[-1], [])
        return matches[0] if len(matches) == 1 else None

    def function_at(self, path: str, lineno: int) -> Optional[FunctionNode]:
        """The innermost function enclosing ``path:lineno``."""
        module = self.module_by_path.get(path)
        best: Optional[FunctionNode] = None
        for node in self.functions.values():
            if node.module != module:
                continue
            if not (node.lineno <= lineno <= (node.end_lineno or 0)):
                continue
            if best is None or node.lineno > best.lineno:
                best = node
        return best


# -- construction -------------------------------------------------------------

def _module_imports(name: str, tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted target for every import in the module."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".", 1)[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = name.split(".")
                parts = parts[: max(len(parts) - node.level, 0)]
                base = ".".join(parts + ([node.module] if node.module
                                         else []))
            for alias in node.names:
                if alias.name != "*":
                    imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
    return imports


def _collect_defs(graph: CallGraph, module: str, tree: ast.Module) -> None:
    def walk_scope(
        body: List[ast.stmt], scope: str, cls: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, _FUNCTION_DEFS):
                qname = f"{scope}.{stmt.name}"
                graph.functions[qname] = FunctionNode(qname, module, cls, stmt)
                if cls is not None:
                    graph.classes[cls].methods.setdefault(stmt.name, qname)
                # nested defs live under the function's scope
                walk_scope(stmt.body, qname, None)
            elif isinstance(stmt, ast.ClassDef):
                qname = f"{scope}.{stmt.name}"
                graph.classes[qname] = _ClassInfo(module, stmt)
                walk_scope(stmt.body, qname, qname)
            elif isinstance(stmt, (ast.If, ast.Try, ast.With,
                                   ast.For, ast.While)):
                # defs behind guards (TYPE_CHECKING, try/except import)
                walk_scope(
                    [sub for sub in ast.iter_child_nodes(stmt)
                     if isinstance(sub, (*_FUNCTION_DEFS, ast.ClassDef))],
                    scope, cls,
                )

    walk_scope(tree.body, module, None)


class _FunctionResolver:
    """Extracts and resolves the callees of one function."""

    def __init__(
        self,
        graph: CallGraph,
        hints: Dict[str, Sequence[str]],
        fn: FunctionNode,
    ) -> None:
        self.graph = graph
        self.hints = hints
        self.fn = fn
        self.imports = graph.imports[fn.module]
        self.aliases: Dict[str, str] = {}
        #: local name -> method qname (``step = self.step``)
        self.bound: Dict[str, str] = {}
        #: local name -> class qname (``x = Foo()``)
        self.instances: Dict[str, str] = {}
        self.targets: List[str] = []

    def resolve(self) -> List[str]:
        for node in self._iter_scope(self.fn.node):
            if isinstance(node, ast.Assign):
                self._bind_assign(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind_assign([node.target], node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                self._bind_loop(node.target, node.iter)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    self._bind_assign(
                        [node.optional_vars], node.context_expr
                    )
            elif isinstance(node, ast.NamedExpr):
                # walrus: (x := expr) binds like an assignment
                self._bind_assign([node.target], node.value)
        call_funcs: Set[int] = set()
        for node in self._iter_scope(self.fn.node):
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
                self._resolve_call(node)
        # Properties used as values: attribute loads that are not the
        # func of a call but resolve to a property getter.
        for node in self._iter_scope(self.fn.node):
            if (
                isinstance(node, ast.Attribute)
                and id(node) not in call_funcs
                and isinstance(node.ctx, ast.Load)
            ):
                self._resolve_property(node)
        return self.targets

    @staticmethod
    def _iter_scope(root: ast.AST):
        """Walk ``root`` preorder, in source order, without descending
        into nested def/lambda bodies.  Source order matters: the alias
        scan is flow-insensitive and lets the source-last binding of a
        reused local win, which is right far more often than an
        arbitrary traversal order."""
        yield root
        stack: List[ast.AST] = list(reversed(list(ast.iter_child_nodes(root))))
        while stack:
            node = stack.pop()
            if isinstance(node, (*_FUNCTION_DEFS, ast.Lambda)):
                continue
            yield node
            stack.extend(reversed(list(ast.iter_child_nodes(node))))

    # -- alias scan (source order, flow-insensitive) -------------------------
    def _bind_assign(
        self, targets: List[ast.expr], value: ast.expr
    ) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(value, ast.Attribute):
            # x = self.method (bound value); also recorded as a chain alias
            bound = self._bound_method(value)
            if bound is not None:
                for name in names:
                    self.bound[name] = bound
        if isinstance(value, ast.Call):
            cls = self._class_of_call(value)
            if cls is not None:
                for name in names:
                    self.instances[name] = cls
                return
        chain = chain_of(value, self.aliases)
        for t in targets:
            if isinstance(t, ast.Name):
                if chain is not None:
                    self.aliases[t.id] = chain
                else:
                    self.aliases.pop(t.id, None)
                    self.instances.pop(t.id, None)
            elif isinstance(t, (ast.Tuple, ast.List)) and chain is not None:
                for elt in t.elts:
                    if isinstance(elt, ast.Name):
                        self.aliases[elt.id] = f"{chain}[]"

    def _bind_loop(self, target: ast.expr, iter_expr: ast.expr) -> None:
        # for x in <chain>  /  for i, x in enumerate(<chain>)
        # for a, b in zip(<chain1>, <chain2>)  — positional element binds
        fn = iter_expr.func if isinstance(iter_expr, ast.Call) else None
        name = fn.id if isinstance(fn, ast.Name) else None
        if name == "enumerate" and iter_expr.args:
            if (
                isinstance(target, (ast.Tuple, ast.List))
                and len(target.elts) == 2
            ):
                self._bind_loop(target.elts[1], iter_expr.args[0])
            return
        if name == "zip" and iter_expr.args:
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt, src in zip(target.elts, iter_expr.args):
                    self._bind_loop(elt, src)
            return
        chain = chain_of(iter_expr, self.aliases)
        if chain is not None:
            self._bind_element(target, f"{chain}[]")

    def _bind_element(self, target: ast.expr, element: str) -> None:
        """Bind a (possibly nested tuple) loop target to an element chain."""
        if isinstance(target, ast.Name):
            self.aliases[target.id] = element
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Starred):
                    # *rest collects remaining items: rest[] is an item,
                    # so rest aliases the unpacked element itself
                    self._bind_element(elt.value, element)
                else:
                    self._bind_element(elt, f"{element}[]")

    def _bound_method(self, node: ast.Attribute) -> Optional[str]:
        """``self.method`` (no call) as a bound-method value."""
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.fn.cls is not None
        ):
            target = self.graph._inherited(self.fn.cls, node.attr)
            if target is not None and not target.is_property:
                return target.qname
        return None

    def _class_of_call(self, call: ast.Call) -> Optional[str]:
        name = chain_of(call.func) if isinstance(
            call.func, (ast.Name, ast.Attribute)
        ) else None
        if name is None:
            return None
        return self.graph.resolve_class(self.fn.module, name)

    # -- call resolution ------------------------------------------------------
    def _add(self, targets: Iterable[str]) -> None:
        for t in targets:
            if t not in self.targets:
                self.targets.append(t)

    def _method_targets(
        self, class_qname: str, method: str, subclasses: bool = True
    ) -> List[str]:
        out: List[str] = []
        node = self.graph._inherited(class_qname, method)
        if node is not None:
            out.append(node.qname)
        if subclasses:
            for sub in self.graph._all_subclasses(class_qname):
                own = self.graph.classes[sub].methods.get(method)
                if own is not None:
                    out.append(own)
        return out

    def _resolve_call(self, call: ast.Call) -> None:
        fn = call.func
        graph = self.graph

        if isinstance(fn, ast.Name):
            name = fn.id
            # bound method held in a local, then a plain (local, nested
            # or imported) function, then a class instantiation
            target = (
                self.bound.get(name)
                or graph.resolve_name(self.fn.module, name)
            )
            nested = f"{self.fn.qname}.{name}"
            if target is None and nested in graph.functions:
                target = nested
            if target is not None:
                self._add([target])
                return
            cls = graph.resolve_class(self.fn.module, name)
            if cls is not None:
                self._add(self._method_targets(cls, "__init__", False))
            return

        if not isinstance(fn, ast.Attribute):
            return
        method = fn.attr
        receiver = fn.value

        # super().m(...)
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
            and self.fn.cls is not None
        ):
            for base in graph.classes[self.fn.cls].bases:
                self._add(self._method_targets(base, method, False))
            return

        # self.m(...)
        if (
            isinstance(receiver, ast.Name)
            and receiver.id == "self"
            and self.fn.cls is not None
        ):
            self._add(self._method_targets(self.fn.cls, method))
            return

        # instance local: x = Foo(); x.m(...)
        if isinstance(receiver, ast.Name) and receiver.id in self.instances:
            self._add(
                self._method_targets(self.instances[receiver.id], method)
            )
            return

        # ClassName.m(...) / module.func(...) via imports
        direct = chain_of(receiver)
        if direct is not None and "[]" not in direct:
            cls = graph.resolve_class(self.fn.module, direct)
            if cls is not None:
                self._add(self._method_targets(cls, method, False))
                return
            head, _, rest = direct.partition(".")
            dotted = self.imports.get(head)
            if dotted is not None:
                candidate = (
                    f"{dotted}.{rest}.{method}" if rest
                    else f"{dotted}.{method}"
                )
                if candidate in graph.functions:
                    self._add([candidate])
                    return

        # receiver chain + hints
        chain = chain_of(receiver, self.aliases)
        hinted = self._hinted_classes(chain) if chain is not None else []
        if hinted:
            for cls in hinted:
                self._add(self._method_targets(cls, method))
            return

        # name-based fallback: every class defining the method
        if method not in _GENERIC_METHODS:
            self._add(graph._method_index.get(method, []))

    def _hinted_classes(self, chain: str) -> List[str]:
        last = chain.split(".")[-1]
        names = self.hints.get(last)
        if names is None and last.endswith("[]"):
            names = self.hints.get(last[:-2])
        out: List[str] = []
        for name in names or ():
            out.extend(self.graph._classes_by_name.get(name, []))
        return out

    def _resolve_property(self, node: ast.Attribute) -> None:
        classes: List[str] = []
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.fn.cls is not None
        ):
            classes = [self.fn.cls]
        else:
            chain = chain_of(node.value, self.aliases)
            if chain is not None:
                classes = self._hinted_classes(chain)
            if not classes and isinstance(node.value, ast.Name):
                cls = self.instances.get(node.value.id)
                if cls is not None:
                    classes = [cls]
        for cls in classes:
            getter = self.graph._inherited(cls, node.attr)
            if getter is not None and getter.is_property:
                self._add([getter.qname])


def build_call_graph(
    sources: Iterable[Tuple[str, str]],
    receiver_hints: Optional[Dict[str, Sequence[str]]] = None,
) -> CallGraph:
    """Build a :class:`CallGraph` from ``(path, text)`` pairs.

    ``receiver_hints`` maps terminal receiver-chain segments (e.g.
    ``"routers[]"``, ``"telemetry"``) to candidate class bare names,
    narrowing attribute-call resolution where local typing fails.
    Unparsable modules are skipped (the lints report the syntax error).
    """
    graph = CallGraph()
    for path, text in sources:
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError:
            continue
        name = module_name_for(path)
        # Uniquify collisions (two fixture files both named "module").
        base, n = name, 2
        while name in graph.imports:
            name = f"{base}_{n}"
            n += 1
        graph.imports[name] = _module_imports(name, tree)
        graph.module_by_path[path] = name
        _collect_defs(graph, name, tree)
    graph._index()
    for cls in graph.classes.values():
        names = [
            base.id if isinstance(base, ast.Name) else chain_of(base)
            for base in cls.node.bases
            if isinstance(base, (ast.Name, ast.Attribute))
        ]
        cls.bases = [
            graph.resolve_class(cls.module, name) or name
            for name in names
            if name is not None
        ]
    graph._index()  # the subclass map needs resolved bases
    hints = dict(receiver_hints or {})
    for qname in sorted(graph.functions):
        graph.calls[qname] = _FunctionResolver(
            graph, hints, graph.functions[qname]
        ).resolve()
    return graph
