"""The rule catalog, :data:`RULES`: the project's invariants as AST checks.

A rule has a ``name`` (what reports and waivers call it), a ``lineage``
(the bug this tree shipped and then fixed in review that the rule
descends from) and ``check(ctx)``, which yields the findings for one
parsed module.  README's rule table documents each one.  The rules
are deliberately *project-shaped*, not general lints: they encode naming
and structure conventions this codebase already follows (lock attributes
match ``*lock*``, column stores match ``*store*``, worker threads are
named and joined), trading generality for near-zero false positives on
this tree.  Known limits are documented per rule; escapes the analysis
cannot see (cross-module flow, attribute aliasing) stay the review's job.

False positives that are *deliberate* designs carry a per-line
``# repro: ignore[rule] why`` suppression at the call site — grep for
``repro: ignore`` to audit every waiver in the tree.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.context import Finding, ModuleContext, walk_scope

_LOCKISH_RE = re.compile(r"lock", re.IGNORECASE)
_STORE_RE = re.compile(r"store", re.IGNORECASE)

#: attribute calls that can block on another thread's progress (or hand
#: control to arbitrary code) and therefore must not run under a lock.
_BLOCKING_ATTRS = ("submit", "result", "join", "add_done_callback")

#: legacy global-state numpy.random functions; all draw from the hidden
#: process-wide RandomState, which no SeedSequence plumbing can make
#: reproducible across (seed, workers) configurations.
_NP_RANDOM_LEGACY = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "uniform", "normal",
        "standard_normal", "binomial", "poisson", "exponential", "geometric",
        "beta", "gamma", "bytes", "get_state", "set_state",
    }
)


# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #


def _terminal_name(node: ast.AST) -> "str | None":
    """The rightmost identifier of a Name or Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node: ast.AST) -> "str | None":
    """``a.b.c`` for an Attribute chain rooted in a Name, else None."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_lockish(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name is not None and _LOCKISH_RE.search(name) is not None


def _lock_expr(node: ast.With) -> "ast.expr | None":
    for item in node.items:
        if _is_lockish(item.context_expr):
            return item.context_expr
    return None


def _walk_body(statements: "list[ast.stmt]") -> "Iterator[ast.AST]":
    """Walk a statement list without descending into nested scopes."""
    for stmt in statements:
        yield stmt
        yield from walk_scope(stmt)


def _is_factory_call(node: ast.AST, module: str, name: str, imported: "set[str]") -> bool:
    """Whether ``node`` is a call of ``module.name`` (or bare imported ``name``)."""
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    if dotted == f"{module}.{name}":
        return True
    return dotted == name and name in imported


def _imported_names(ctx: ModuleContext, module: str) -> "set[str]":
    """Names imported at module level via ``from <module> import ...``."""
    names: "set[str]" = set()
    for node in ctx.tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _setflags_readonly_lines(func: ast.AST) -> "dict[str, int]":
    """name -> earliest line where ``name.setflags(write=False)`` is called."""
    lines: "dict[str, int]" = {}
    for node in walk_scope(func):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "setflags" or not isinstance(node.func.value, ast.Name):
            continue
        write_false = any(
            kw.arg == "write"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in node.keywords
        ) or (
            node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value is False
        )
        if write_false:
            name = node.func.value.id
            lines[name] = min(lines.get(name, node.lineno), node.lineno)
    return lines


# --------------------------------------------------------------------------- #
# Rules
# --------------------------------------------------------------------------- #


class CacheStoreReadonlyRule:
    """Arrays inserted into a ``*store*`` mapping must be read-only first."""

    name = "cache-store-readonly"
    lineage = (
        "PR 3: ColumnCache cached a writable contiguous *view* of the "
        "solver's output; a caller mutating the base array silently "
        "corrupted every future hit"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for func in ctx.functions():
            readonly = _setflags_readonly_lines(func)
            for node in walk_scope(func):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Subscript)
                ):
                    continue
                container = _terminal_name(node.targets[0].value)
                if container is None or _STORE_RE.search(container) is None:
                    continue
                value = node.value
                if isinstance(value, ast.Name):
                    if readonly.get(value.id, node.lineno + 1) < node.lineno:
                        continue
                    message = (
                        f"{value.id!r} is stored into {container!r} without a "
                        "preceding setflags(write=False); cached arrays must "
                        "be immutable before they are shared"
                    )
                else:
                    message = (
                        f"store into {container!r} must go through a local "
                        "name made read-only with setflags(write=False) "
                        "first, not an inline expression"
                    )
                yield ctx.finding(node, self.name, message)


class LockAcrossBlockingRule:
    """No yield/await or blocking call while lexically holding a lock."""

    name = "lock-across-blocking"
    lineage = (
        "PR 4: the operator cache derived variants while holding its "
        "non-reentrant lock; the same shape with an executor .submit or a "
        "future .result under a lock is a deadlock waiting for load"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for func in ctx.functions():
            for node in walk_scope(func):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                lock = _lock_expr(node)
                if lock is None:
                    continue
                held = ast.unparse(lock)
                for sub in _walk_body(node.body):
                    if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)):
                        kind = type(sub).__name__.lower()
                        yield ctx.finding(
                            sub,
                            self.name,
                            f"{kind} while holding {held!r}: the lock stays "
                            "held across a suspension point",
                        )
                    elif (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _BLOCKING_ATTRS
                    ):
                        yield ctx.finding(
                            sub,
                            self.name,
                            f".{sub.func.attr}() called while holding "
                            f"{held!r}: blocking on another thread (or "
                            "running callbacks) under a lock invites "
                            "deadlock",
                        )


class LockReentryRule:
    """No call into a sibling that re-acquires the held non-reentrant lock."""

    name = "lock-reentry"
    lineage = (
        "PR 4: TransitionOperator.damped() called self.matrix() while "
        "holding self._lock, which matrix() re-acquires — a guaranteed "
        "self-deadlock on a plain (non-reentrant) Lock"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        imported = _imported_names(ctx, "threading")
        yield from self._check_classes(ctx, imported)
        yield from self._check_module(ctx, imported)

    # -- class scope: self._lock attributes ----------------------------- #

    def _check_classes(
        self, ctx: ModuleContext, imported: "set[str]"
    ) -> Iterable[Finding]:
        for cls in ctx.classes():
            methods = {
                stmt.name: stmt
                for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            lock_attrs: "set[str]" = set()
            for method in methods.values():
                for node in walk_scope(method):
                    if (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and isinstance(node.targets[0].value, ast.Name)
                        and node.targets[0].value.id == "self"
                        and _is_factory_call(node.value, "threading", "Lock", imported)
                    ):
                        lock_attrs.add(node.targets[0].attr)
            if not lock_attrs:
                continue
            acquires = {
                name: self._self_attrs_acquired(method, lock_attrs)
                for name, method in methods.items()
            }
            for method in methods.values():
                for node in walk_scope(method):
                    if not isinstance(node, ast.With):
                        continue
                    attr = self._self_lock_attr(node, lock_attrs)
                    if attr is None:
                        continue
                    for sub in _walk_body(node.body):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and isinstance(sub.func.value, ast.Name)
                            and sub.func.value.id == "self"
                            and attr in acquires.get(sub.func.attr, ())
                        ):
                            yield ctx.finding(
                                sub,
                                self.name,
                                f"self.{sub.func.attr}() acquires non-"
                                f"reentrant 'self.{attr}', which is already "
                                f"held here — this deadlocks",
                            )

    @staticmethod
    def _self_lock_attr(node: ast.With, lock_attrs: "set[str]") -> "str | None":
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in lock_attrs
            ):
                return expr.attr
        return None

    @staticmethod
    def _self_attrs_acquired(method: ast.AST, lock_attrs: "set[str]") -> "set[str]":
        acquired: "set[str]" = set()
        for node in walk_scope(method):
            expr = None
            if isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    break
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                expr = node.func.value
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in lock_attrs
            ):
                acquired.add(expr.attr)
        return acquired

    # -- module scope: module-global locks ------------------------------ #

    def _check_module(
        self, ctx: ModuleContext, imported: "set[str]"
    ) -> Iterable[Finding]:
        module_locks = {
            stmt.targets[0].id
            for stmt in ctx.tree.body
            if isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and _is_factory_call(stmt.value, "threading", "Lock", imported)
        }
        if not module_locks:
            return
        functions = {
            stmt.name: stmt
            for stmt in ctx.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        acquires = {
            name: {
                item.context_expr.id
                for node in walk_scope(func)
                if isinstance(node, ast.With)
                for item in node.items
                if isinstance(item.context_expr, ast.Name)
                and item.context_expr.id in module_locks
            }
            for name, func in functions.items()
        }
        for func in functions.values():
            for node in walk_scope(func):
                if not isinstance(node, ast.With):
                    continue
                held = {
                    item.context_expr.id
                    for item in node.items
                    if isinstance(item.context_expr, ast.Name)
                    and item.context_expr.id in module_locks
                }
                if not held:
                    continue
                for sub in _walk_body(node.body):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and acquires.get(sub.func.id, set()) & held
                    ):
                        shared = sorted(acquires[sub.func.id] & held)[0]
                        yield ctx.finding(
                            sub,
                            self.name,
                            f"{sub.func.id}() acquires non-reentrant "
                            f"{shared!r}, which is already held here — "
                            "this deadlocks",
                        )


class ConditionWaitLoopRule:
    """``Condition.wait`` must sit in a predicate loop."""

    name = "condition-wait-loop"
    lineage = (
        "the idle audit of the gateway lane's deadline loop "
        "(repro.serving.batcher): a wait outside a predicate loop misses "
        "spurious wakeups and the size-flush race where another thread "
        "drains the queue between notify and wakeup"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        imported = _imported_names(ctx, "threading")
        attrs: "set[str]" = set()
        names: "set[str]" = set()
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and _is_factory_call(node.value, "threading", "Condition", imported)
            ):
                continue
            target = node.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
            elif isinstance(target, ast.Name):
                names.add(target.id)
        if not attrs and not names:
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wait"
            ):
                continue
            value = node.func.value
            tracked = (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
                and value.attr in attrs
            ) or (isinstance(value, ast.Name) and value.id in names)
            if not tracked:
                continue
            in_loop = False
            for ancestor in ctx.ancestors(node):
                if isinstance(ancestor, ast.While):
                    in_loop = True
                    break
                if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break
            if not in_loop:
                yield ctx.finding(
                    node,
                    self.name,
                    f"{ast.unparse(value)}.wait() outside a while loop: "
                    "re-check the predicate after every wakeup (spurious "
                    "wakeups and notify races are real)",
                )


class ThreadLifecycleRule:
    """Worker threads are daemonized and joined by some shutdown method."""

    name = "thread-lifecycle"
    lineage = (
        "PR 5: the prefetcher/batcher background threads hang interpreter "
        "exit when non-daemon, and leak across tests when no stop() joins "
        "them — the sanitizer's per-module thread-leak check is the "
        "runtime half of this rule"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        imported = _imported_names(ctx, "threading")
        for node in ast.walk(ctx.tree):
            if not _is_factory_call(node, "threading", "Thread", imported):
                continue
            daemon_true = any(
                kw.arg == "daemon"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            )
            if not daemon_true:
                yield ctx.finding(
                    node,
                    self.name,
                    "threading.Thread(...) without daemon=True: a non-daemon "
                    "worker blocks interpreter exit if any shutdown path "
                    "misses it",
                )
        for cls in ctx.classes():
            methods = [
                stmt
                for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            thread_assigns = [
                node
                for method in methods
                for node in walk_scope(method)
                if isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id == "self"
                and _is_factory_call(node.value, "threading", "Thread", imported)
            ]
            if not thread_assigns:
                continue
            joins = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                for method in methods
                for node in walk_scope(method)
            )
            if not joins:
                for assign in thread_assigns:
                    yield ctx.finding(
                        assign,
                        self.name,
                        f"class {cls.name!r} keeps a thread attribute but no "
                        "method ever join()s it; add a stop()/close() that "
                        "joins the worker",
                    )


class NpRandomLegacyRule:
    """Randomness flows through SeedSequence plumbing, not global state."""

    name = "np-random-legacy"
    lineage = (
        "PR 3: sharded Monte Carlo walks are reproducible per (seed, "
        "workers) only because every stream descends from one SeedSequence; "
        "one hidden-global draw anywhere breaks bit-reproducibility"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        aliases = {"numpy"}
        for node in ctx.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        aliases.add(alias.asname or "numpy")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) != 3 or parts[0] not in aliases or parts[1] != "random":
                continue
            func = parts[2]
            if func in _NP_RANDOM_LEGACY:
                yield ctx.finding(
                    node,
                    self.name,
                    f"{dotted}() draws from the hidden global RandomState; "
                    "use an explicit Generator (repro.utils.rng.ensure_rng)",
                )
            elif func == "default_rng" and not node.args and not node.keywords:
                yield ctx.finding(
                    node,
                    self.name,
                    f"{dotted}() without a seed is OS-entropy-seeded and "
                    "unreproducible; plumb a seed or Generator through "
                    "repro.utils.rng.ensure_rng",
                )


#: the catalog, in the order its rules run.
RULES = (
    CacheStoreReadonlyRule(),
    LockAcrossBlockingRule(),
    LockReentryRule(),
    ConditionWaitLoopRule(),
    ThreadLifecycleRule(),
    NpRandomLegacyRule(),
)
