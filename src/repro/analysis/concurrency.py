"""Concurrency lint rules: lock discipline for the serve/obs thread surface.

The serving stack holds shared mutable state behind ~10 locks — the
score cache's LRU map, the single flight's in-flight table, the breaker's
state machine, every metrics instrument — and nothing but code review
guards the discipline.  This module makes the discipline *declarative*
and machine-checked:

Annotation convention
---------------------
An instance attribute that must only be touched while holding a lock is
annotated with a trailing comment on its initializing assignment::

    class ScoreCache:
        def __init__(self):
            self._lock = threading.Lock()
            self._hits = 0  # guarded-by: _lock

The lock name is the ``self.<attr>`` used in ``with`` statements (for a
``Condition`` built over a lock, annotate with the *condition* attribute
if that is what the code acquires).  Methods named ``__init__`` or
ending in ``_locked`` are exempt from RL101 — the ``_locked`` suffix is
the repo's convention for helpers whose contract is "caller holds the
lock".

Rule catalogue
--------------
RL101  A ``# guarded-by:``-annotated attribute is read or written
       outside a ``with self.<lock>:`` block (closures count as outside:
       they may run after the lock is released).
RL102  Check-then-act split across two separate ``with self.<lock>:``
       blocks in one method: a guarded attribute tested in the first
       block and mutated in the second is not atomic — the lock was
       released in between.
RL103  Lock-order violation: nested ``with`` statements define a
       whole-program acquisition-order graph; a cycle means two call
       paths can deadlock.  Reported on every edge participating in a
       cycle.
RL104  ``threading.Thread`` / ``ThreadPoolExecutor`` (or Timer /
       Process / ProcessPoolExecutor) created with no reachable
       ``join()`` / ``shutdown()`` — in the enclosing function, or
       anywhere in the enclosing class when the object is stored on
       ``self``.  Returning the object hands the obligation to the
       caller.
RL105  Blocking call while holding a lock: ``time.sleep``, ``open()``,
       ``Future.result()``, zero-argument ``.join()``, or
       ``.wait()`` / ``.acquire()`` on anything other than the held
       lock itself (``Condition.wait`` on the held condition releases
       it, so it is exempt).
RL107  ``shared_memory.SharedMemory`` created or attached with no
       reachable ``close()`` — plus ``unlink()`` when ``create=True`` —
       in the enclosing function, or anywhere in the enclosing class
       when the segment is stored on ``self``.  Returning the segment
       hands the obligation to the caller.  Leaked POSIX segments
       outlive the process.

The annotation parser is shared with the runtime lockset detector
(:mod:`repro.analysis.racecheck`), so one ``# guarded-by:`` comment
feeds both the static rules and the Eraser-style dynamic check.
"""

from __future__ import annotations

import ast
import inspect
import io
import re
import textwrap
import tokenize
from typing import Iterable, Iterator

from .rules import Finding, Rule, Severity

__all__ = [
    "guard_comment_lines",
    "guarded_fields",
    "GuardedAccessRule",
    "CheckThenActRule",
    "LockOrderRule",
    "UnjoinedThreadRule",
    "BlockingCallUnderLockRule",
    "SharedMemoryLifecycleRule",
    "CONCURRENCY_RULES",
]

_GUARD_COMMENT = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

# Names that plausibly denote a lock object; used to keep RL103/RL105
# from treating arbitrary context managers (files, spans, no_grad) as
# lock acquisitions.
_LOCKISH = ("lock", "cond", "mutex", "sem")

# Container methods that mutate in place (RL102's "act" half).
_MUTATORS = {
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "popleft", "remove", "setdefault",
    "update",
}


# ---------------------------------------------------------------------------
# annotation parsing (shared with repro.analysis.racecheck)
# ---------------------------------------------------------------------------


def guard_comment_lines(source: str) -> dict[int, str]:
    """``{line_number: lock_attr}`` for every ``# guarded-by:`` comment."""
    lines: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _GUARD_COMMENT.search(token.string)
            if match:
                lines[token.start[0]] = match.group(1)
    except tokenize.TokenError:
        pass
    return lines


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested class definitions."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _guarded_fields_in_class(
    classdef: ast.ClassDef, comments: dict[int, str]
) -> dict[str, str]:
    """``{attr: lock_attr}`` declared by annotated ``self.X = ...`` lines."""
    guarded: dict[str, str] = {}
    for node in _own_nodes(classdef):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        lock = comments.get(node.lineno)
        if lock is None:
            continue
        for target in targets:
            attr = _self_attr(target)
            if attr is not None:
                guarded[attr] = lock
    return guarded


def guarded_fields(cls: type) -> dict[str, str]:
    """Runtime view of a class's ``# guarded-by:`` annotations.

    Returns ``{attribute: lock_attribute}``; empty when the source is
    unavailable (built-ins, REPL classes) or carries no annotations.
    The racecheck detector uses this to decide which fields of a
    tracked object to monitor.
    """
    try:
        source = textwrap.dedent(inspect.getsource(cls))
    except (OSError, TypeError):
        return {}
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return {}
    comments = guard_comment_lines(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            return _guarded_fields_in_class(node, comments)
    return {}


# ---------------------------------------------------------------------------
# statement walking with held-lock tracking
# ---------------------------------------------------------------------------


def _is_lockish(name: str) -> bool:
    lowered = name.lower()
    return any(piece in lowered for piece in _LOCKISH)


def _stmt_expressions(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Expressions attached directly to ``stmt`` (not nested statements)."""
    for _field, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for element in value:
                if isinstance(element, ast.expr):
                    yield element


def _child_statement_groups(stmt: ast.stmt) -> list[list[ast.stmt]]:
    groups = []
    for field in ("body", "orelse", "finalbody"):
        value = getattr(stmt, field, None)
        if isinstance(value, list) and value:
            groups.append(value)
    for handler in getattr(stmt, "handlers", ()) or ():
        groups.append(handler.body)
    return groups


def _scan_expr(expr: ast.expr, held: frozenset):
    """Yield ``(node, attr, held)`` for every ``self.X`` access in ``expr``.

    Lambda bodies restart with an empty held set: they execute later,
    possibly after every lock here has been released.
    """
    stack = [(expr, held)]
    while stack:
        node, locks = stack.pop()
        if isinstance(node, ast.Lambda):
            stack.append((node.body, frozenset()))
            continue
        attr = _self_attr(node)
        if attr is not None:
            yield node, attr, locks
        for child in ast.iter_child_nodes(node):
            stack.append((child, locks))


def _walk_accesses(stmts: Iterable[ast.stmt], held: frozenset):
    """Yield ``(node, attr, held)`` for every ``self.X`` access under
    ``stmts``, tracking which ``with self.<lock>:`` attrs are held.

    Nested function bodies (closures) restart with an empty held set —
    the ``with`` wraps the *definition*, not the call.
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _walk_accesses(stmt.body, frozenset())
            continue
        if isinstance(stmt, ast.ClassDef):
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in stmt.items:
                yield from _scan_expr(item.context_expr, frozenset(acquired))
                lock = _self_attr(item.context_expr)
                if lock is not None:
                    acquired.add(lock)
            yield from _walk_accesses(stmt.body, frozenset(acquired))
            continue
        for expr in _stmt_expressions(stmt):
            yield from _scan_expr(expr, held)
        for group in _child_statement_groups(stmt):
            yield from _walk_accesses(group, held)


def _class_methods(classdef: ast.ClassDef):
    for stmt in classdef.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


# ---------------------------------------------------------------------------
# RL101 — guarded attribute accessed without its lock
# ---------------------------------------------------------------------------


class GuardedAccessRule(Rule):
    id = "RL101"
    severity = Severity.ERROR
    needs_source = True
    description = (
        "`# guarded-by:` attribute accessed outside `with self.<lock>:`"
    )

    def check_source(
        self, tree: ast.Module, source: str, path: str
    ) -> Iterator[Finding]:
        comments = guard_comment_lines(source)
        if not comments:
            return
        for classdef in ast.walk(tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            guarded = _guarded_fields_in_class(classdef, comments)
            if not guarded:
                continue
            for method in _class_methods(classdef):
                if method.name == "__init__" or method.name.endswith("_locked"):
                    continue
                for node, attr, held in _walk_accesses(method.body, frozenset()):
                    lock = guarded.get(attr)
                    if lock is not None and lock not in held:
                        yield self.finding(
                            node,
                            path,
                            f"`self.{attr}` is annotated `# guarded-by: "
                            f"{lock}` but `{classdef.name}.{method.name}` "
                            f"accesses it without holding `self.{lock}`",
                        )


# ---------------------------------------------------------------------------
# RL102 — check-then-act split across a lock release
# ---------------------------------------------------------------------------


def _lock_blocks(method: ast.stmt, locks: set[str]) -> list[tuple[str, ast.With]]:
    """``(lock, with_node)`` for every ``with self.<lock>:`` in ``method``."""
    blocks = []
    for node in ast.walk(method):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr in locks:
                blocks.append((attr, node))
    blocks.sort(key=lambda pair: pair[1].lineno)
    return blocks


def _guarded_reads_in_tests(
    block: ast.With, guarded: dict[str, str], lock: str
) -> set[str]:
    """Guarded attrs (of ``lock``) read in condition positions in ``block``."""
    checked: set[str] = set()
    for node in ast.walk(block):
        test = None
        if isinstance(node, (ast.If, ast.While, ast.Assert)):
            test = node.test
        elif isinstance(node, ast.IfExp):
            test = node.test
        if test is None:
            continue
        for sub in ast.walk(test):
            attr = _self_attr(sub)
            if attr is not None and guarded.get(attr) == lock:
                checked.add(attr)
    return checked


def _mutation_root(target: ast.expr) -> str | None:
    """The ``self.X`` base of an assignment/delete target, if any."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        attr = _self_attr(node)
        if attr is not None:
            return attr
        node = node.value
    return None


def _guarded_mutations(
    block: ast.With, guarded: dict[str, str], lock: str
) -> dict[str, ast.AST]:
    """``{attr: node}`` for guarded attrs (of ``lock``) mutated in ``block``."""
    mutated: dict[str, ast.AST] = {}

    def note(attr: str | None, node: ast.AST) -> None:
        if attr is not None and guarded.get(attr) == lock:
            mutated.setdefault(attr, node)

    for node in ast.walk(block):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                note(_mutation_root(target), node)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            note(_mutation_root(node.target), node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                note(_mutation_root(target), node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                note(_self_attr(node.func.value), node)
    return mutated


class CheckThenActRule(Rule):
    id = "RL102"
    severity = Severity.ERROR
    needs_source = True
    description = (
        "check-then-act on a guarded attribute split across two lock blocks"
    )

    def check_source(
        self, tree: ast.Module, source: str, path: str
    ) -> Iterator[Finding]:
        comments = guard_comment_lines(source)
        if not comments:
            return
        for classdef in ast.walk(tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            guarded = _guarded_fields_in_class(classdef, comments)
            if not guarded:
                continue
            for method in _class_methods(classdef):
                if method.name == "__init__":
                    continue
                blocks = _lock_blocks(method, set(guarded.values()))
                for i, (lock_a, node_a) in enumerate(blocks):
                    contained = set(ast.walk(node_a))
                    for lock_b, node_b in blocks[i + 1:]:
                        if lock_a != lock_b or node_b in contained:
                            continue
                        checked = _guarded_reads_in_tests(node_a, guarded, lock_a)
                        acted = _guarded_mutations(node_b, guarded, lock_b)
                        for attr in sorted(checked & set(acted)):
                            yield self.finding(
                                acted[attr],
                                path,
                                f"`self.{attr}` is tested under `self."
                                f"{lock_a}` at line {node_a.lineno} but "
                                f"mutated in a separate `with self."
                                f"{lock_b}:` block — the check-then-act "
                                "is not atomic across the lock release",
                            )


# ---------------------------------------------------------------------------
# RL103 — whole-program lock acquisition order
# ---------------------------------------------------------------------------


def _lock_node_id(expr: ast.expr, class_name: str | None) -> str | None:
    attr = _self_attr(expr)
    if attr is not None and _is_lockish(attr):
        return f"{class_name or '<module>'}.{attr}"
    if isinstance(expr, ast.Name) and _is_lockish(expr.id):
        return expr.id
    return None


class LockOrderRule(Rule):
    """Program-level rule: state accumulates across every linted file."""

    id = "RL103"
    severity = Severity.ERROR
    program = True
    description = "inconsistent lock acquisition order (potential deadlock)"

    def begin(self) -> dict:
        return {"edges": {}}

    def observe(
        self, state: dict, tree: ast.Module, path: str, source: str
    ) -> None:
        self._collect(tree.body, None, [], state["edges"], path)

    def _collect(self, stmts, class_name, held, edges, path) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.ClassDef):
                self._collect(stmt.body, stmt.name, [], edges, path)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def runs later: locks held here are not held
                # when its body executes.
                self._collect(stmt.body, class_name, [], edges, path)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = list(held)
                for item in stmt.items:
                    node_id = _lock_node_id(item.context_expr, class_name)
                    if node_id is None:
                        continue
                    for outer in inner:
                        if outer != node_id:
                            edges.setdefault(
                                (outer, node_id),
                                (path, item.context_expr.lineno),
                            )
                    inner.append(node_id)
                self._collect(stmt.body, class_name, inner, edges, path)
            else:
                for group in _child_statement_groups(stmt):
                    self._collect(group, class_name, held, edges, path)

    def finalize(self, state: dict) -> Iterator[Finding]:
        edges = state["edges"]
        adjacency: dict[str, set[str]] = {}
        for outer, inner in edges:
            adjacency.setdefault(outer, set()).add(inner)
        ordered = sorted(edges.items(), key=lambda kv: (kv[1][0], kv[1][1]))
        for (outer, inner), (path, line) in ordered:
            if self._reaches(adjacency, inner, outer):
                yield Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=path,
                    line=line,
                    col=0,
                    message=(
                        f"acquiring `{inner}` while holding `{outer}` "
                        f"conflicts with another code path that acquires "
                        f"`{outer}` while (transitively) holding "
                        f"`{inner}` — potential deadlock"
                    ),
                )

    @staticmethod
    def _reaches(adjacency: dict[str, set[str]], start: str, goal: str) -> bool:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        # Single-file convenience entry (lint_source); the driver calls
        # begin/observe/finalize directly when linting whole trees.
        state = self.begin()
        self.observe(state, tree, path, "")
        yield from self.finalize(state)


# ---------------------------------------------------------------------------
# RL104 — threads/executors without a reachable join/shutdown
# ---------------------------------------------------------------------------


class UnjoinedThreadRule(Rule):
    id = "RL104"
    severity = Severity.ERROR
    description = "Thread/Executor created without a reachable join/shutdown"

    _FACTORIES = {
        "Thread",
        "Timer",
        "Process",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
    }
    _RELEASES = {"join", "shutdown"}

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            factory = self._factory_name(node.func)
            if factory is None:
                continue
            if not self._released(node, parents, tree):
                yield self.finding(
                    node,
                    path,
                    f"`{factory}` is created here but no `.join()`/"
                    "`.shutdown()` is reachable from this scope — the "
                    "worker can outlive its owner (store it on `self` "
                    "and release it in a close/stop method, or join "
                    "before returning)",
                )

    def _factory_name(self, func: ast.expr) -> str | None:
        if isinstance(func, ast.Name) and func.id in self._FACTORIES:
            return func.id
        if isinstance(func, ast.Attribute) and func.attr in self._FACTORIES:
            return func.attr
        return None

    def _released(self, node: ast.Call, parents, tree: ast.Module) -> bool:
        chain = []
        cursor: ast.AST | None = node
        while cursor is not None:
            chain.append(cursor)
            cursor = parents.get(cursor)
        # Handing the object to the caller transfers the obligation.
        if any(isinstance(link, ast.Return) for link in chain):
            return True
        assigned_to_self = any(
            isinstance(link, (ast.Assign, ast.AnnAssign))
            and any(
                _self_attr(target) is not None
                for target in (
                    link.targets if isinstance(link, ast.Assign) else [link.target]
                )
            )
            for link in chain
        )
        functions = [
            link
            for link in chain
            if isinstance(link, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            if self._has_release(function):
                return True
        if assigned_to_self:
            for link in chain:
                if isinstance(link, ast.ClassDef) and self._has_release(link):
                    return True
        if not functions and self._has_release(tree):
            return True
        return False

    def _has_release(self, scope: ast.AST) -> bool:
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._RELEASES
            ):
                return True
        return False


# ---------------------------------------------------------------------------
# RL105 — blocking calls while holding a lock
# ---------------------------------------------------------------------------


def _lockish_expr_text(expr: ast.expr) -> str | None:
    attr = _self_attr(expr)
    if attr is not None and _is_lockish(attr):
        return f"self.{attr}"
    if isinstance(expr, ast.Name) and _is_lockish(expr.id):
        return expr.id
    return None


def _calls_in_expr(expr: ast.expr, held: frozenset):
    stack = [(expr, held)]
    while stack:
        node, locks = stack.pop()
        if isinstance(node, ast.Lambda):
            stack.append((node.body, frozenset()))
            continue
        if isinstance(node, ast.Call):
            yield node, locks
        for child in ast.iter_child_nodes(node):
            stack.append((child, locks))


def _walk_calls(stmts: Iterable[ast.stmt], held: frozenset):
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _walk_calls(stmt.body, frozenset())
            continue
        if isinstance(stmt, ast.ClassDef):
            yield from _walk_calls(stmt.body, frozenset())
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in stmt.items:
                yield from _calls_in_expr(item.context_expr, frozenset(acquired))
                text = _lockish_expr_text(item.context_expr)
                if text is not None:
                    acquired.add(text)
            yield from _walk_calls(stmt.body, frozenset(acquired))
            continue
        for expr in _stmt_expressions(stmt):
            yield from _calls_in_expr(expr, held)
        for group in _child_statement_groups(stmt):
            yield from _walk_calls(group, held)


class BlockingCallUnderLockRule(Rule):
    id = "RL105"
    severity = Severity.ERROR
    description = "blocking call (I/O, .result(), sleep) while holding a lock"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for call, held in _walk_calls(tree.body, frozenset()):
            if not held:
                continue
            reason = self._blocking_reason(call, held)
            if reason is not None:
                locks = ", ".join(f"`{name}`" for name in sorted(held))
                yield self.finding(
                    call,
                    path,
                    f"{reason} while holding {locks} — blocking under a "
                    "lock stalls every other thread contending for it; "
                    "move the call outside the critical section",
                )

    @staticmethod
    def _blocking_reason(call: ast.Call, held: frozenset) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "sleep":
                return "`sleep()`"
            if func.id == "open":
                return "`open()`"
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                func.attr == "sleep"
                and isinstance(receiver, ast.Name)
                and receiver.id == "time"
            ):
                return "`time.sleep()`"
            if func.attr == "result":
                return "`Future.result()`"
            if func.attr == "join" and not call.args:
                return "`.join()`"
            if func.attr in ("wait", "acquire"):
                try:
                    text = ast.unparse(receiver)
                except Exception:
                    return None
                if text not in held:
                    return f"`{text}.{func.attr}()`"
        return None


# ---------------------------------------------------------------------------
# RL107 — shared-memory segments without a reachable close/unlink
# ---------------------------------------------------------------------------


class SharedMemoryLifecycleRule(Rule):
    id = "RL107"
    severity = Severity.ERROR
    description = "SharedMemory segment without a reachable close()/unlink()"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if self._segment_name(node.func) is None:
                continue
            creating = self._creates(node)
            required = {"close", "unlink"} if creating else {"close"}
            missing = self._missing_releases(node, parents, tree, required)
            if missing:
                verbs = "/".join(f"`.{name}()`" for name in sorted(missing))
                kind = "created" if creating else "attached"
                yield self.finding(
                    node,
                    path,
                    f"`SharedMemory` segment is {kind} here but no {verbs} "
                    "is reachable from this scope — a leaked POSIX segment "
                    "outlives the process (store it on `self` and release "
                    "it in a close method, or return it to the caller)",
                )

    @staticmethod
    def _segment_name(func: ast.expr) -> str | None:
        if isinstance(func, ast.Name) and func.id == "SharedMemory":
            return func.id
        if isinstance(func, ast.Attribute) and func.attr == "SharedMemory":
            return func.attr
        return None

    @staticmethod
    def _creates(node: ast.Call) -> bool:
        # ``create=True`` (or any non-literal-False value, conservatively)
        # means this process owns the segment and must unlink it too.
        for keyword in node.keywords:
            if keyword.arg == "create":
                value = keyword.value
                if isinstance(value, ast.Constant):
                    return bool(value.value)
                return True
        return False

    def _missing_releases(
        self, node: ast.Call, parents, tree: ast.Module, required: set[str]
    ) -> set[str]:
        chain = []
        cursor: ast.AST | None = node
        while cursor is not None:
            chain.append(cursor)
            cursor = parents.get(cursor)
        # Handing the segment to the caller transfers the obligation.
        if any(isinstance(link, ast.Return) for link in chain):
            return set()
        assigned_to_self = any(
            isinstance(link, (ast.Assign, ast.AnnAssign))
            and any(
                _self_attr(target) is not None
                for target in (
                    link.targets if isinstance(link, ast.Assign) else [link.target]
                )
            )
            for link in chain
        )
        functions = [
            link
            for link in chain
            if isinstance(link, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scopes = list(functions)
        if assigned_to_self:
            scopes.extend(
                link for link in chain if isinstance(link, ast.ClassDef)
            )
        if not functions:
            scopes.append(tree)
        missing = set(required)
        for scope in scopes:
            missing -= self._releases_in(scope)
            if not missing:
                return set()
        return missing

    @staticmethod
    def _releases_in(scope: ast.AST) -> set[str]:
        found = set()
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("close", "unlink")
            ):
                found.add(node.func.attr)
        return found


CONCURRENCY_RULES: tuple[Rule, ...] = (
    GuardedAccessRule(),
    CheckThenActRule(),
    LockOrderRule(),
    UnjoinedThreadRule(),
    BlockingCallUnderLockRule(),
    SharedMemoryLifecycleRule(),
)
