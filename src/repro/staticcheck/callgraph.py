"""Module-aware call graph over a set of Python sources.

The interprocedural lints in :mod:`repro.staticcheck` (determinism
reach chains, protocol paths, pool captures) all need the same substrate:
*who calls whom*, resolved across modules, with class inheritance
flattened.  This module builds it once per check run:

:class:`FunctionNode`
    One function, method, property getter, or lambda, addressed by a
    qualified name (``module.func`` / ``module.Class.method``).

:class:`CallSite`
    One resolved call: the caller, the (possibly several) callee
    qnames, the receiver chain it was resolved through, and a ``kind``
    tag so consumers can choose how speculative an edge they follow
    (``function``/``self``/``super``/``init``/``instance``/``hint``/
    ``heuristic``/``property``).

:func:`build_call_graph`
    Constructs the graph from ``(path, text)`` pairs.  Resolution
    handles in-package inheritance (``self.m`` dispatches to the
    flattened method table plus subclass overrides), ``super()``,
    import aliases, class instantiation (``Foo()`` edges to
    ``Foo.__init__`` and marks the binding an instance), bound methods
    and lambdas stored in locals, and properties used as values.
    Attribute receivers that cannot be typed locally fall back to
    *receiver hints* — a mapping from the terminal segment of the
    receiver chain (``routers[]``, ``telemetry``) to candidate class
    names — and, failing that, to name-based may-resolution over every
    class defining the method.

The graph is a *may*-call over-approximation: an edge means the call
could reach that target, not that it must.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "RECEIVER_HINTS",
    "FunctionNode",
    "ModuleInfo",
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
#: to an unrelated class method of the same name would poison closures.
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


class ModuleInfo:
    """One parsed source module."""

    __slots__ = ("name", "path", "text", "lines", "tree", "imports")

    def __init__(self, name: str, path: str, text: str, tree: ast.Module):
        self.name = name
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        #: local name -> dotted target (module or module.attr)
        self.imports: Dict[str, str] = {}


class ClassInfo:
    """One class definition: bases (resolved where possible) and methods."""

    __slots__ = ("qname", "module", "name", "node", "bases", "methods")

    def __init__(self, qname: str, module: str, node: ast.ClassDef):
        self.qname = qname
        self.module = module
        self.name = node.name
        self.node = node
        #: base-class qnames when resolvable, else the bare source name
        self.bases: List[str] = []
        #: method name -> function qname (own definitions only)
        self.methods: Dict[str, str] = {}


class FunctionNode:
    """One function/method/lambda in the graph."""

    __slots__ = (
        "qname", "module", "cls", "name", "node", "path",
        "lineno", "end_lineno", "is_property", "decorators",
    )

    def __init__(
        self,
        qname: str,
        module: str,
        cls: Optional[str],
        node: ast.AST,
        path: str,
    ) -> None:
        self.qname = qname
        self.module = module
        self.cls = cls  # owning class qname, or None
        self.name = qname.rsplit(".", 1)[-1]
        self.node = node
        self.path = path
        self.lineno = getattr(node, "lineno", 0)
        self.end_lineno = getattr(node, "end_lineno", self.lineno)
        decorators = []
        for dec in getattr(node, "decorator_list", []):
            if isinstance(dec, ast.Name):
                decorators.append(dec.id)
            elif isinstance(dec, ast.Attribute):
                decorators.append(dec.attr)
            elif isinstance(dec, ast.Call):
                fn = dec.func
                if isinstance(fn, ast.Name):
                    decorators.append(fn.id)
                elif isinstance(fn, ast.Attribute):
                    decorators.append(fn.attr)
        self.decorators = decorators
        self.is_property = "property" in decorators or "setter" in decorators

    @property
    def cls_bare(self) -> Optional[str]:
        return self.cls.rsplit(".", 1)[-1] if self.cls else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionNode({self.qname})"


class CallSite:
    """One call inside a function, with its resolved targets."""

    __slots__ = ("caller", "attr", "receiver", "lineno", "targets", "kind")

    def __init__(
        self,
        caller: str,
        attr: str,
        receiver: Optional[str],
        lineno: int,
        targets: Tuple[str, ...],
        kind: str,
    ) -> None:
        self.caller = caller
        self.attr = attr          # called name / method name
        self.receiver = receiver  # normalized receiver chain, or None
        self.lineno = lineno
        self.targets = targets    # resolved callee qnames (may-call)
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CallSite({self.caller} -> {self.attr} "
            f"[{self.kind}] @{self.lineno})"
        )


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
        self.modules: Dict[str, ModuleInfo] = {}
        self.module_by_path: Dict[str, str] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionNode] = {}
        self.calls: Dict[str, List[CallSite]] = {}
        #: paths that failed to parse: path -> SyntaxError
        self.errors: Dict[str, SyntaxError] = {}
        self._classes_by_name: Dict[str, List[str]] = {}
        self._method_index: Dict[str, List[str]] = {}
        self._subclasses: Dict[str, List[str]] = {}
        self._callers: Optional[Dict[str, List[Tuple[str, CallSite]]]] = None

    # -- indexing ------------------------------------------------------------
    def _index(self) -> None:
        self._classes_by_name = {}
        self._method_index = {}
        self._subclasses = {}
        for qname, cls in self.classes.items():
            self._classes_by_name.setdefault(cls.name, []).append(qname)
            for method, fn_qname in cls.methods.items():
                self._method_index.setdefault(method, []).append(fn_qname)
        for qname, cls in self.classes.items():
            for base in cls.bases:
                if base in self.classes:
                    self._subclasses.setdefault(base, []).append(qname)

    def classes_named(self, bare_name: str) -> List[str]:
        """Class qnames whose bare name matches."""
        return list(self._classes_by_name.get(bare_name, []))

    # -- hierarchy -----------------------------------------------------------
    def subclasses(self, class_qname: str) -> List[str]:
        """Direct subclass qnames."""
        return list(self._subclasses.get(class_qname, []))

    def all_subclasses(self, class_qname: str) -> List[str]:
        """Transitive subclass qnames, preorder."""
        out: List[str] = []
        stack = list(self._subclasses.get(class_qname, []))
        seen: Set[str] = set()
        while stack:
            cur = stack.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            out.append(cur)
            stack.extend(self._subclasses.get(cur, []))
        return out

    def flattened_methods(self, class_qname: str) -> Dict[str, FunctionNode]:
        """Merged method table with in-package bases, overrides winning."""
        methods: Dict[str, FunctionNode] = {}

        def absorb(qname: str, seen: Set[str]) -> None:
            if qname in seen:
                return
            seen.add(qname)
            cls = self.classes.get(qname)
            if cls is None:
                return
            for base in cls.bases:
                absorb(base, seen)
            for name, fn_qname in cls.methods.items():
                node = self.functions.get(fn_qname)
                if node is not None:
                    methods[name] = node

        absorb(class_qname, set())
        return methods

    # -- edges ---------------------------------------------------------------
    def callees(self, qname: str) -> List[CallSite]:
        return list(self.calls.get(qname, []))

    def callers_of(self, qname: str) -> List[Tuple[str, CallSite]]:
        if self._callers is None:
            callers: Dict[str, List[Tuple[str, CallSite]]] = {}
            for caller, sites in self.calls.items():
                for site in sites:
                    for target in site.targets:
                        callers.setdefault(target, []).append((caller, site))
            self._callers = callers
        return list(self._callers.get(qname, []))

    # -- lookups -------------------------------------------------------------
    def resolve_name(self, module: str, name: str) -> Optional[str]:
        """Resolve a bare name in ``module`` to a function qname."""
        qname = f"{module}.{name}"
        if qname in self.functions:
            return qname
        info = self.modules.get(module)
        if info is not None:
            dotted = info.imports.get(name)
            if dotted is not None and dotted in self.functions:
                return dotted
        return None

    def resolve_class(self, module: str, name: str) -> Optional[str]:
        """Resolve a bare or dotted class name seen in ``module``."""
        qname = f"{module}.{name}"
        if qname in self.classes:
            return qname
        info = self.modules.get(module)
        if info is not None:
            head = name.split(".", 1)[0]
            dotted = info.imports.get(head)
            if dotted is not None:
                candidate = (
                    dotted
                    if "." not in name
                    else dotted + "." + name.split(".", 1)[1]
                )
                if candidate in self.classes:
                    return candidate
        # Unique bare-name match across the package.
        bare = name.rsplit(".", 1)[-1]
        matches = self._classes_by_name.get(bare, [])
        if len(matches) == 1:
            return matches[0]
        return None

    def function_at(self, path: str, lineno: int) -> Optional[FunctionNode]:
        """The innermost function enclosing ``path:lineno``."""
        module = self.module_by_path.get(path)
        if module is None:
            return None
        best: Optional[FunctionNode] = None
        for node in self.functions.values():
            if node.module != module:
                continue
            if not (node.lineno <= lineno <= (node.end_lineno or 0)):
                continue
            if best is None or node.lineno > best.lineno:
                best = node
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CallGraph(modules={len(self.modules)}, "
            f"classes={len(self.classes)}, "
            f"functions={len(self.functions)})"
        )


# -- construction -------------------------------------------------------------

class _Builder:
    def __init__(
        self,
        receiver_hints: Optional[Dict[str, Sequence[str]]] = None,
    ) -> None:
        self.graph = CallGraph()
        self.hints = dict(receiver_hints or {})

    # pass 1: index modules, classes, functions
    def add_module(self, path: str, text: str) -> None:
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            self.graph.errors[path] = exc
            return
        name = module_name_for(path)
        # Uniquify collisions (two fixture files both named "module").
        base, n = name, 2
        while name in self.graph.modules:
            name = f"{base}_{n}"
            n += 1
        info = ModuleInfo(name, path, text, tree)
        self._collect_imports(info)
        self.graph.modules[name] = info
        self.graph.module_by_path[path] = name
        self._collect_defs(info)

    def _collect_imports(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name
                    info.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = info.name.split(".")
                    parts = parts[: max(len(parts) - node.level, 0)]
                    base = ".".join(parts + ([node.module] if node.module
                                             else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _collect_defs(self, info: ModuleInfo) -> None:
        graph = self.graph

        def register_fn(
            node: ast.AST, scope: str, cls: Optional[str]
        ) -> FunctionNode:
            name = getattr(node, "name", None)
            if name is None:  # lambda
                name = f"<lambda:{getattr(node, 'lineno', 0)}>"
            qname = f"{scope}.{name}"
            fn = FunctionNode(qname, info.name, cls, node, info.path)
            graph.functions[qname] = fn
            return fn

        def walk_scope(
            body: List[ast.stmt], scope: str, cls: Optional[str]
        ) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = register_fn(stmt, scope, cls)
                    if cls is not None:
                        graph.classes[cls].methods.setdefault(
                            stmt.name, fn.qname
                        )
                    # nested defs live under the function's scope
                    walk_scope(stmt.body, fn.qname, None)
                elif isinstance(stmt, ast.ClassDef):
                    qname = f"{scope}.{stmt.name}"
                    graph.classes[qname] = ClassInfo(
                        qname, info.name, stmt
                    )
                    walk_scope(stmt.body, qname, qname)
                elif isinstance(stmt, (ast.If, ast.Try, ast.With,
                                       ast.For, ast.While)):
                    # defs behind guards (TYPE_CHECKING, try/except import)
                    for sub in ast.iter_child_nodes(stmt):
                        if isinstance(sub, (ast.FunctionDef, ast.ClassDef,
                                            ast.AsyncFunctionDef)):
                            walk_scope([sub], scope, cls)

        walk_scope(info.tree.body, info.name, None)

    # pass 2: resolve bases, then call edges
    def resolve(self) -> CallGraph:
        graph = self.graph
        graph._index()
        for cls in graph.classes.values():
            resolved: List[str] = []
            for base in cls.node.bases:
                name = None
                if isinstance(base, ast.Name):
                    name = base.id
                elif isinstance(base, ast.Attribute):
                    name = chain_of(base)
                if name is None:
                    continue
                target = graph.resolve_class(cls.module, name)
                resolved.append(target if target else name)
            cls.bases = resolved
        graph._index()  # subclass map needs resolved bases
        for qname in sorted(graph.functions):
            node = graph.functions[qname]
            if isinstance(node.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                graph.calls[qname] = _FunctionResolver(
                    self, node
                ).resolve()
        graph._callers = None
        return graph


class _FunctionResolver:
    """Extracts and resolves the call sites of one function."""

    def __init__(self, builder: _Builder, fn: FunctionNode) -> None:
        self.builder = builder
        self.graph = builder.graph
        self.fn = fn
        self.module = self.graph.modules[fn.module]
        self.aliases: Dict[str, str] = {}
        #: local name -> function qname (lambdas / bound-method values)
        self.bound: Dict[str, str] = {}
        #: local name -> class qname (x = Foo())
        self.instances: Dict[str, str] = {}
        self.sites: List[CallSite] = []

    def resolve(self) -> List[CallSite]:
        self._scan_aliases(self.fn.node)
        self._walk(self.fn.node, top=True)
        return self.sites

    # -- alias scan (source order, flow-insensitive) -------------------------
    def _scan_aliases(self, root: ast.AST) -> None:
        for node in self._iter_scope(root):
            if isinstance(node, ast.Assign):
                self._bind_assign(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind_assign([node.target], node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._bind_loop(node.target, node.iter)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    self._bind_assign(
                        [node.optional_vars], node.context_expr
                    )
            elif isinstance(node, ast.comprehension):
                self._bind_loop(node.target, node.iter)
            elif isinstance(node, ast.NamedExpr):
                # walrus: (x := expr) binds like an assignment
                self._bind_assign([node.target], node.value)

    def _bind_assign(
        self, targets: List[ast.expr], value: ast.expr
    ) -> None:
        # x = lambda ...  /  x = self.method (bound value)
        if isinstance(value, ast.Lambda):
            qname = f"{self.fn.qname}.<lambda:{value.lineno}>"
            if qname not in self.graph.functions:
                self.graph.functions[qname] = FunctionNode(
                    qname, self.fn.module, self.fn.cls, value, self.fn.path
                )
                self.graph.calls[qname] = []
            for t in targets:
                if isinstance(t, ast.Name):
                    self.bound[t.id] = qname
            return
        if isinstance(value, ast.Attribute):
            bound = self._bound_method_qname(value)
            if bound is not None:
                for t in targets:
                    if isinstance(t, ast.Name):
                        self.bound[t.id] = bound
                # fall through: also record the chain alias
        if isinstance(value, ast.Call):
            cls = self._class_of_call(value)
            if cls is not None:
                for t in targets:
                    if isinstance(t, ast.Name):
                        self.instances[t.id] = cls
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
        if chain is None:
            return
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

    def _bound_method_qname(self, node: ast.Attribute) -> Optional[str]:
        """``self.method`` (no call) as a bound-method value."""
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.fn.cls is not None
        ):
            flat = self.graph.flattened_methods(self.fn.cls)
            target = flat.get(node.attr)
            if target is not None and not target.is_property:
                return target.qname
        return None

    def _class_of_call(self, call: ast.Call) -> Optional[str]:
        name = None
        if isinstance(call.func, ast.Name):
            name = call.func.id
        elif isinstance(call.func, ast.Attribute):
            name = chain_of(call.func)
        if name is None:
            return None
        return self.graph.resolve_class(self.fn.module, name)

    # -- call extraction ------------------------------------------------------
    def _iter_scope(self, root: ast.AST, top: bool = True):
        """Walk ``root`` preorder, in source order, without descending
        into nested def/lambda bodies.  Source order matters: the alias
        scan is flow-insensitive and lets the source-last binding of a
        reused local win, which is right far more often than an
        arbitrary traversal order."""
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

    def _walk(self, root: ast.AST, top: bool = True) -> None:
        call_funcs: Set[int] = set()
        for node in self._iter_scope(root):
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
                self._resolve_call(node)
        # Properties used as values: attribute loads that are not the
        # func of a call but resolve to a property getter.
        for node in self._iter_scope(root):
            if (
                isinstance(node, ast.Attribute)
                and id(node) not in call_funcs
                and isinstance(node.ctx, ast.Load)
            ):
                self._resolve_property(node)

    def _add(
        self,
        attr: str,
        receiver: Optional[str],
        lineno: int,
        targets: List[str],
        kind: str,
    ) -> None:
        uniq: List[str] = []
        for t in targets:
            if t not in uniq:
                uniq.append(t)
        self.sites.append(
            CallSite(self.fn.qname, attr, receiver, lineno, tuple(uniq), kind)
        )

    def _method_targets(
        self, class_qname: str, method: str, subclasses: bool = True
    ) -> List[str]:
        out: List[str] = []
        node = self.graph.flattened_methods(class_qname).get(method)
        if node is not None:
            out.append(node.qname)
        if subclasses:
            for sub in self.graph.all_subclasses(class_qname):
                own = self.graph.classes[sub].methods.get(method)
                if own is not None:
                    out.append(own)
        return out

    def _resolve_call(self, call: ast.Call) -> None:
        fn = call.func
        lineno = getattr(call, "lineno", 0)

        if isinstance(fn, ast.Name):
            name = fn.id
            # bound value / lambda held in a local
            bound = self.bound.get(name)
            if bound is not None:
                self._add(name, None, lineno, [bound], "function")
                return
            # plain function (local, nested, or imported)
            target = self.graph.resolve_name(self.fn.module, name)
            if target is None:
                nested = f"{self.fn.qname}.{name}"
                if nested in self.graph.functions:
                    target = nested
            if target is not None:
                self._add(name, None, lineno, [target], "function")
                return
            # class instantiation -> __init__
            cls = self.graph.resolve_class(self.fn.module, name)
            if cls is not None:
                self._add(
                    name, None, lineno,
                    self._method_targets(cls, "__init__", subclasses=False),
                    "init",
                )
            return

        if not isinstance(fn, ast.Attribute):
            return
        method = fn.attr

        # super().m(...)
        if (
            isinstance(fn.value, ast.Call)
            and isinstance(fn.value.func, ast.Name)
            and fn.value.func.id == "super"
            and self.fn.cls is not None
        ):
            targets: List[str] = []
            cls = self.graph.classes.get(self.fn.cls)
            for base in (cls.bases if cls else []):
                targets.extend(
                    self._method_targets(base, method, subclasses=False)
                )
            self._add(method, "super()", lineno, targets, "super")
            return

        # self.m(...)
        if (
            isinstance(fn.value, ast.Name)
            and fn.value.id == "self"
            and self.fn.cls is not None
        ):
            self._add(
                method, "self", lineno,
                self._method_targets(self.fn.cls, method), "self",
            )
            return

        # instance local: x = Foo(); x.m(...)
        if isinstance(fn.value, ast.Name):
            cls = self.instances.get(fn.value.id)
            if cls is not None:
                self._add(
                    method, f"instance:{cls}", lineno,
                    self._method_targets(cls, method), "instance",
                )
                return

        # ClassName.m(...) / module.func(...) via imports
        direct = chain_of(fn.value)
        if direct is not None and "[]" not in direct:
            cls = self.graph.resolve_class(self.fn.module, direct)
            if cls is not None:
                self._add(
                    method, direct, lineno,
                    self._method_targets(cls, method, subclasses=False),
                    "instance",
                )
                return
            dotted = self.module.imports.get(direct.split(".", 1)[0])
            if dotted is not None:
                candidate = (
                    dotted + "." + direct.split(".", 1)[1] + "." + method
                    if "." in direct
                    else f"{dotted}.{method}"
                )
                if candidate in self.graph.functions:
                    self._add(
                        method, direct, lineno, [candidate], "function"
                    )
                    return

        # receiver chain + hints
        chain = chain_of(fn.value, self.aliases)
        if chain is not None:
            hinted = self._hinted_classes(chain)
            if hinted:
                targets = []
                for cls in hinted:
                    targets.extend(self._method_targets(cls, method))
                self._add(method, chain, lineno, targets, "hint")
                return

        # name-based fallback: every class defining the method
        if method in _GENERIC_METHODS:
            self._add(method, chain, lineno, [], "heuristic")
            return
        candidates = self.graph._method_index.get(method, [])
        self._add(method, chain, lineno, list(candidates), "heuristic")

    def _hinted_classes(self, chain: str) -> List[str]:
        hints = self.builder.hints
        if not hints:
            return []
        last = chain.split(".")[-1]
        names = hints.get(last)
        if names is None and last.endswith("[]"):
            names = hints.get(last[:-2])
        if names is None:
            return []
        out: List[str] = []
        for name in names:
            out.extend(self.graph.classes_named(name))
        return out

    def _resolve_property(self, node: ast.Attribute) -> None:
        attr = node.attr
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
        targets: List[str] = []
        for cls in classes:
            candidate = self.graph.flattened_methods(cls).get(attr)
            if candidate is not None and candidate.is_property:
                targets.append(candidate.qname)
        if targets:
            self._add(
                attr, None, getattr(node, "lineno", 0), targets, "property"
            )


def build_call_graph(
    sources: Iterable[Tuple[str, str]],
    receiver_hints: Optional[Dict[str, Sequence[str]]] = None,
) -> CallGraph:
    """Build a :class:`CallGraph` from ``(path, text)`` pairs.

    ``receiver_hints`` maps terminal receiver-chain segments (e.g.
    ``"routers[]"``, ``"telemetry"``) to candidate class bare names,
    narrowing attribute-call resolution where local typing fails.
    Unparsable modules are recorded in ``graph.errors`` and skipped.
    """
    builder = _Builder(receiver_hints)
    for path, text in sources:
        builder.add_module(path, text)
    return builder.resolve()
