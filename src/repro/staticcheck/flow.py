"""Intraprocedural dataflow framework over Python ASTs.

The code-level analyses in :mod:`repro.staticcheck` (unit inference,
credit-conservation conformance, worker-capture detection) all need the
same substrate: a control-flow graph per function and a forward
abstract-value propagation over it.  This module provides both, kept
deliberately small and dependency-free:

:class:`BasicBlock` / :class:`CFG`
    Basic blocks of *simple* statements connected by directed edges.
    Compound statements (``if``/``while``/``for``/``try``/``with``) are
    split into their constituent blocks; their test/iter expressions are
    recorded as :class:`BranchCondition` pseudo-statements so transfer
    functions still see every expression exactly once.

:func:`build_cfg`
    CFG construction for a function body (or a module body).  Handles
    ``break``/``continue``, ``while``/``for`` ``else`` clauses,
    ``match`` statements (one block per case, capture-pattern bindings
    materialized as synthetic assignments), ``assert`` (the failing
    path raises, so following code is only reached on the passing
    path), and ``try``/``except``/``else``/``finally`` — every
    statement inside a ``try`` body may raise, so each gets an edge to
    the handlers, and every exit route (fallthrough, return, break,
    continue) is funneled through the ``finally`` suite when one
    exists.

:class:`ForwardAnalysis`
    A worklist fixpoint engine.  Subclasses define the lattice through
    :meth:`ForwardAnalysis.initial_state`, :meth:`ForwardAnalysis.join`
    and :meth:`ForwardAnalysis.transfer`; the engine iterates block
    states to a fixpoint and exposes the input state of every block.

The framework itself is *intra*procedural; interprocedural reasoning
(taint summaries, cross-module lint logic) layers on top through the
shared call graph in ``callgraph.py``/``taint.py`` rather than widening
this engine into a whole-program analysis.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BasicBlock",
    "BranchCondition",
    "CFG",
    "ForwardAnalysis",
    "build_cfg",
    "iter_function_defs",
]


class BranchCondition:
    """Pseudo-statement carrying a branch/loop test expression.

    ``expr`` is the test (``if``/``while``), iterable (``for``),
    context manager (``with``), or match subject (``match``)
    expression; ``kind`` is one of ``"if"``, ``"while"``, ``"for"``,
    ``"with"``, ``"match"``.  Transfer functions receive these like
    ordinary statements so every expression in the function is visited
    once.
    """

    __slots__ = ("expr", "kind")

    def __init__(self, expr: ast.expr, kind: str) -> None:
        self.expr = expr
        self.kind = kind

    @property
    def lineno(self) -> int:
        return getattr(self.expr, "lineno", 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BranchCondition({self.kind}@{self.lineno})"


class BasicBlock:
    """A straight-line run of statements with one entry and one exit set."""

    __slots__ = ("bid", "stmts", "succs", "preds", "label")

    def __init__(self, bid: int, label: str = "") -> None:
        self.bid = bid
        self.stmts: List[object] = []  # ast.stmt | BranchCondition
        self.succs: List[int] = []
        self.preds: List[int] = []
        self.label = label

    @property
    def first_line(self) -> int:
        for stmt in self.stmts:
            line = getattr(stmt, "lineno", 0)
            if line:
                return line
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BasicBlock(b{self.bid} {self.label!r} "
            f"stmts={len(self.stmts)} -> {self.succs})"
        )


class CFG:
    """A control-flow graph: blocks, a distinguished entry and exit."""

    def __init__(self) -> None:
        self.blocks: Dict[int, BasicBlock] = {}
        self.entry: int = 0
        self.exit: int = 0

    def new_block(self, label: str = "") -> BasicBlock:
        bid = len(self.blocks)
        block = BasicBlock(bid, label)
        self.blocks[bid] = block
        return block

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)
            self.blocks[dst].preds.append(src)

    # -- queries -------------------------------------------------------------
    def reachable_from(self, bid: int) -> List[int]:
        """Block ids reachable from ``bid`` (inclusive), DFS preorder."""
        seen: Dict[int, None] = {}
        stack = [bid]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen[cur] = None
            stack.extend(reversed(self.blocks[cur].succs))
        return list(seen)

    def paths_to_exit(
        self, bid: int, limit: int = 64
    ) -> List[List[int]]:
        """Up to ``limit`` acyclic block-id paths from ``bid`` to the exit."""
        out: List[List[int]] = []

        def walk(cur: int, path: List[int]) -> None:
            if len(out) >= limit:
                return
            path = path + [cur]
            if cur == self.exit:
                out.append(path)
                return
            for succ in self.blocks[cur].succs:
                if succ not in path:
                    walk(succ, path)

        walk(bid, [])
        return out

    def statements(self) -> Iterable[Tuple[int, object]]:
        """Every (block id, statement) pair, in block-id order."""
        for bid in sorted(self.blocks):
            for stmt in self.blocks[bid].stmts:
                yield bid, stmt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CFG(blocks={len(self.blocks)}, entry=b{self.entry}, exit=b{self.exit})"


class _LoopFrame:
    """Break/continue targets while building a loop's body."""

    __slots__ = ("continue_target", "break_target")

    def __init__(self, continue_target: int, break_target: int) -> None:
        self.continue_target = continue_target
        self.break_target = break_target


class _CFGBuilder:
    """Recursive-descent CFG construction for one statement suite."""

    def __init__(self) -> None:
        self.cfg = CFG()
        entry = self.cfg.new_block("entry")
        self.cfg.entry = entry.bid
        self._exit = self.cfg.new_block("exit")
        self.cfg.exit = self._exit.bid
        self.loops: List[_LoopFrame] = []
        # Innermost enclosing handler entry blocks (any statement in the
        # guarded try body may transfer there).
        self.handlers: List[List[int]] = []
        # Innermost enclosing finally suite builders: a callable that
        # routes an abrupt exit (return/break/continue) through the
        # finally body and returns the block to continue from.
        self.finallies: List[Callable[[int], int]] = []

    # -- suite-level ---------------------------------------------------------
    def build(self, body: List[ast.stmt]) -> CFG:
        last = self._suite(body, self.cfg.entry)
        if last is not None:
            self.cfg.add_edge(last, self.cfg.exit)
        return self.cfg

    def _suite(self, stmts: List[ast.stmt], current: int) -> Optional[int]:
        """Thread ``stmts`` starting at block ``current``.

        Returns the fallthrough block id, or None when control never
        falls out of the suite (ends in return/raise/break/continue).
        """
        for stmt in stmts:
            if current is None:
                # Unreachable code after an abrupt exit: still give it a
                # block (analyses may want to lint it) with no preds.
                current = self.cfg.new_block("unreachable").bid
            current = self._statement(stmt, current)
        return current

    # -- statement dispatch --------------------------------------------------
    def _statement(self, stmt: ast.stmt, current: int) -> Optional[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, current)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, current)
        if isinstance(stmt, ast.Assert):
            return self._assert(stmt, current)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._append(current, stmt)
            self._raise_edges(current)
            target = self._through_finallies(current)
            self.cfg.add_edge(target, self.cfg.exit)
            return None
        if isinstance(stmt, ast.Break):
            self._append(current, stmt)
            if self.loops:
                target = self._through_finallies(current)
                self.cfg.add_edge(target, self.loops[-1].break_target)
            return None
        if isinstance(stmt, ast.Continue):
            self._append(current, stmt)
            if self.loops:
                target = self._through_finallies(current)
                self.cfg.add_edge(target, self.loops[-1].continue_target)
            return None
        # Simple statement (including nested def/class, which the
        # analyses recurse into separately).
        self._append(current, stmt)
        self._raise_edges(current)
        return current

    def _append(self, bid: int, stmt: object) -> None:
        self.cfg.blocks[bid].stmts.append(stmt)

    def _raise_edges(self, bid: int) -> None:
        """Any statement inside a try body may transfer to its handlers."""
        if self.handlers:
            for handler_bid in self.handlers[-1]:
                self.cfg.add_edge(bid, handler_bid)

    def _through_finallies(self, bid: int) -> int:
        """Route an abrupt exit through every enclosing finally suite."""
        for route in reversed(list(self.finallies)):
            bid = route(bid)
        return bid

    # -- compound statements -------------------------------------------------
    def _if(self, stmt: ast.If, current: int) -> Optional[int]:
        self._append(current, BranchCondition(stmt.test, "if"))
        self._raise_edges(current)
        join: Optional[int] = None

        then_entry = self.cfg.new_block("then")
        self.cfg.add_edge(current, then_entry.bid)
        then_exit = self._suite(stmt.body, then_entry.bid)

        if stmt.orelse:
            else_entry = self.cfg.new_block("else")
            self.cfg.add_edge(current, else_entry.bid)
            else_exit = self._suite(stmt.orelse, else_entry.bid)
        else:
            else_exit = current  # falls straight through

        if then_exit is None and else_exit is None:
            return None
        join = self.cfg.new_block("join").bid
        if then_exit is not None:
            self.cfg.add_edge(then_exit, join)
        if else_exit is not None:
            self.cfg.add_edge(else_exit, join)
        return join

    def _loop(self, stmt, current: int) -> Optional[int]:
        head = self.cfg.new_block("loop-head")
        self.cfg.add_edge(current, head.bid)
        if isinstance(stmt, ast.While):
            self._append(head.bid, BranchCondition(stmt.test, "while"))
        else:
            # The for target binds on each iteration: record both the
            # iterable expression and a synthetic binding statement.
            self._append(head.bid, BranchCondition(stmt.iter, "for"))
            bind = ast.Assign(targets=[stmt.target], value=stmt.iter)
            ast.copy_location(bind, stmt)
            self._append(head.bid, bind)
        self._raise_edges(head.bid)

        after = self.cfg.new_block("loop-after")
        # The else suite runs when the loop exhausts without break.
        if stmt.orelse:
            else_entry = self.cfg.new_block("loop-else")
            self.cfg.add_edge(head.bid, else_entry.bid)
            else_exit = self._suite(stmt.orelse, else_entry.bid)
            if else_exit is not None:
                self.cfg.add_edge(else_exit, after.bid)
        else:
            self.cfg.add_edge(head.bid, after.bid)

        self.loops.append(_LoopFrame(head.bid, after.bid))
        body_entry = self.cfg.new_block("loop-body")
        self.cfg.add_edge(head.bid, body_entry.bid)
        body_exit = self._suite(stmt.body, body_entry.bid)
        if body_exit is not None:
            self.cfg.add_edge(body_exit, head.bid)
        self.loops.pop()
        return after.bid

    def _assert(self, stmt: ast.Assert, current: int) -> Optional[int]:
        # A failing assert raises AssertionError: the failure route goes
        # to the handlers / through finallies to the exit, and the code
        # after the assert is reached only on the passing path.
        self._append(current, stmt)
        self._raise_edges(current)
        target = self._through_finallies(current)
        self.cfg.add_edge(target, self.cfg.exit)
        ok = self.cfg.new_block("assert-ok")
        self.cfg.add_edge(current, ok.bid)
        return ok.bid

    def _match(self, stmt: ast.Match, current: int) -> Optional[int]:
        self._append(current, BranchCondition(stmt.subject, "match"))
        self._raise_edges(current)

        exits: List[int] = []
        irrefutable = False
        for case in stmt.cases:
            entry = self.cfg.new_block("case")
            self.cfg.add_edge(current, entry.bid)
            # Capture patterns bind names on entry to the case body;
            # materialize them as synthetic assignments from the subject
            # so transfer functions see the bindings.
            for name, pattern in _pattern_captures(case.pattern):
                bind = ast.Assign(
                    targets=[ast.Name(id=name, ctx=ast.Store())],
                    value=stmt.subject,
                )
                ast.copy_location(bind, pattern)
                ast.fix_missing_locations(bind)
                self._append(entry.bid, bind)
            if case.guard is not None:
                self._append(entry.bid, BranchCondition(case.guard, "if"))
            case_exit = self._suite(case.body, entry.bid)
            if case_exit is not None:
                exits.append(case_exit)
            if case.guard is None and _pattern_irrefutable(case.pattern):
                irrefutable = True
        if not irrefutable:
            # No case matched: control falls past the whole statement.
            exits.append(current)
        if not exits:
            return None
        join = self.cfg.new_block("match-join").bid
        for e in exits:
            self.cfg.add_edge(e, join)
        return join

    def _with(self, stmt, current: int) -> Optional[int]:
        for item in stmt.items:
            self._append(current, BranchCondition(item.context_expr, "with"))
            if item.optional_vars is not None:
                bind = ast.Assign(
                    targets=[item.optional_vars], value=item.context_expr
                )
                ast.copy_location(bind, stmt)
                self._append(current, bind)
        self._raise_edges(current)
        # A `with` statement is an implicit try/finally: a raise anywhere
        # in the body runs __exit__ and then propagates.  Model that with
        # a synthetic handler block active for the body — every body
        # statement gets an edge to it — which routes onward to the
        # enclosing handlers (when inside a try) or through the enclosing
        # finally suites to the function exit.
        propagate = self.cfg.new_block("with-raise")
        body_entry = self.cfg.new_block("with-body")
        self.cfg.add_edge(current, body_entry.bid)
        self.handlers.append([propagate.bid])
        try:
            body_exit = self._suite(stmt.body, body_entry.bid)
        finally:
            self.handlers.pop()
        self._raise_edges(propagate.bid)
        target = self._through_finallies(propagate.bid)
        self.cfg.add_edge(target, self.cfg.exit)
        return body_exit

    def _try(self, stmt: ast.Try, current: int) -> Optional[int]:
        finally_route = self._make_finally_router(stmt)

        handler_entries: List[int] = [
            self.cfg.new_block("except").bid for _ in stmt.handlers
        ]

        # Build the guarded body with handler edges active.
        body_entry = self.cfg.new_block("try")
        self.cfg.add_edge(current, body_entry.bid)
        if handler_entries:
            self.handlers.append(handler_entries)
        if finally_route is not None:
            self.finallies.append(finally_route)
        body_exit = self._suite(stmt.body, body_entry.bid)
        if finally_route is not None:
            self.finallies.pop()
        if handler_entries:
            self.handlers.pop()

        # else suite runs only on clean body completion.
        if stmt.orelse and body_exit is not None:
            body_exit = self._suite(stmt.orelse, body_exit)

        exits: List[int] = []
        if body_exit is not None:
            exits.append(body_exit)

        for handler, entry_bid in zip(stmt.handlers, handler_entries):
            if handler.type is not None:
                self._append(entry_bid, BranchCondition(handler.type, "if"))
            if finally_route is not None:
                self.finallies.append(finally_route)
            handler_exit = self._suite(handler.body, entry_bid)
            if finally_route is not None:
                self.finallies.pop()
            if handler_exit is not None:
                exits.append(handler_exit)

        if not stmt.finalbody:
            if not exits:
                return None
            join = self.cfg.new_block("try-join").bid
            for e in exits:
                self.cfg.add_edge(e, join)
            return join

        # Normal completion also flows through the finally suite.
        fin_entry = self.cfg.new_block("finally")
        for e in exits:
            self.cfg.add_edge(e, fin_entry.bid)
        fin_exit = self._suite(stmt.finalbody, fin_entry.bid)
        return fin_exit

    def _make_finally_router(self, stmt: ast.Try):
        """A callable routing abrupt exits through this try's finally."""
        if not stmt.finalbody:
            return None

        def route(from_bid: int) -> int:
            # A return inside the finally copy must not re-enter this
            # router (infinite recursion); mask it while building.
            idx = self.finallies.index(route) if route in self.finallies else -1
            if idx >= 0:
                self.finallies.pop(idx)
            try:
                fin_entry = self.cfg.new_block("finally-abrupt")
                self.cfg.add_edge(from_bid, fin_entry.bid)
                fin_exit = self._suite(list(stmt.finalbody), fin_entry.bid)
            finally:
                if idx >= 0:
                    self.finallies.insert(idx, route)
            return fin_exit if fin_exit is not None else fin_entry.bid

        return route


def _pattern_captures(pattern) -> List[Tuple[str, ast.AST]]:
    """(name, node) for every capture binding inside a match pattern."""
    out: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(pattern):
        if isinstance(node, ast.MatchAs) and node.name is not None:
            out.append((node.name, node))
        elif isinstance(node, ast.MatchStar) and node.name is not None:
            out.append((node.name, node))
        elif isinstance(node, ast.MatchMapping) and node.rest is not None:
            out.append((node.rest, node))
    return out


def _pattern_irrefutable(pattern) -> bool:
    """Does the pattern match any subject (``case _:`` / bare capture)?"""
    if isinstance(pattern, ast.MatchAs):
        return pattern.pattern is None or _pattern_irrefutable(
            pattern.pattern
        )
    if isinstance(pattern, ast.MatchOr):
        return any(_pattern_irrefutable(p) for p in pattern.patterns)
    return False


def build_cfg(node) -> CFG:
    """Build the CFG of a function/module body.

    ``node`` may be an ``ast.FunctionDef`` / ``AsyncFunctionDef``, an
    ``ast.Module``, or a plain list of statements.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
        body = node.body
    else:
        body = list(node)
    return _CFGBuilder().build(body)


def iter_function_defs(tree: ast.AST):
    """Yield every (possibly nested) function definition in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class ForwardAnalysis:
    """Worklist forward dataflow over a :class:`CFG`.

    Subclasses provide the lattice and transfer function:

    ``initial_state()``
        The state entering the CFG entry block.
    ``join(a, b)``
        Least upper bound of two states (must be monotone).
    ``transfer(state, stmt)``
        New state after one statement (``stmt`` is an ``ast.stmt`` or a
        :class:`BranchCondition`).  Must not mutate ``state``.

    :meth:`run` iterates to a fixpoint and returns ``{block id: input
    state}``; :meth:`state_before` replays a block's prefix to recover
    the state at a particular statement.
    """

    #: Safety valve: iterations are bounded by ``len(blocks) * _MAX_VISITS``.
    _MAX_VISITS = 64

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.block_in: Dict[int, object] = {}

    # -- lattice hooks (override) -------------------------------------------
    def initial_state(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def transfer(self, state, stmt):
        raise NotImplementedError

    # -- engine --------------------------------------------------------------
    def _block_out(self, bid: int, state):
        for stmt in self.cfg.blocks[bid].stmts:
            state = self.transfer(state, stmt)
        return state

    def run(self) -> Dict[int, object]:
        cfg = self.cfg
        self.block_in = {cfg.entry: self.initial_state()}
        visits: Dict[int, int] = {}
        worklist: List[int] = [cfg.entry]
        while worklist:
            bid = worklist.pop(0)
            visits[bid] = visits.get(bid, 0) + 1
            if visits[bid] > self._MAX_VISITS:
                continue
            out = self._block_out(bid, self.block_in[bid])
            for succ in cfg.blocks[bid].succs:
                if succ not in self.block_in:
                    self.block_in[succ] = out
                    worklist.append(succ)
                else:
                    joined = self.join(self.block_in[succ], out)
                    if joined != self.block_in[succ]:
                        self.block_in[succ] = joined
                        if succ not in worklist:
                            worklist.append(succ)
        return self.block_in

    def state_before(self, bid: int, stmt: object):
        """The state immediately before ``stmt`` inside block ``bid``."""
        state = self.block_in.get(bid)
        if state is None:
            state = self.initial_state()
        for s in self.cfg.blocks[bid].stmts:
            if s is stmt:
                return state
            state = self.transfer(state, s)
        return state
