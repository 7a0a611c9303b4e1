"""Determinism rules (``det-*``) for identity-path modules.

Run ids, golden results, shard ids and journal outcomes are all content
hashes over data produced by the simulator path.  Anything there that
depends on the wall clock, process identity, unseeded randomness, the
environment, or hash iteration order silently changes identity between
hosts and runs — the exact failure class MeRLiN-style campaign pruning
cannot tolerate, because grouping relies on bit-identical re-execution.

* ``det-wallclock`` — calls into ``time.*`` / ``datetime.now`` & friends.
* ``det-random``    — unseeded RNG (``random.*``, ``numpy.random.*``
  except the explicitly seeded constructors).
* ``det-environ``   — reads of ``os.environ`` / ``os.getenv``.
* ``det-id``        — ``id()`` of an object (CPython address, differs
  across processes; never stable enough to serialize or hash).
* ``det-float-eq``  — ``==`` / ``!=`` against a float literal.
* ``det-set-iter``  — iterating (or materialising) a set-typed value
  without ``sorted()``; hash order is not part of any contract.

All six apply only inside :meth:`LintConfig.in_determinism_scope`;
modules outside the identity-path prefixes are not checked, and single
justified sites use ``# repro-lint: disable=det-... -- why``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Union

from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.rules import finding, import_table, register, resolve_name

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Seeded RNG constructors that are fine on the identity path.
_SEEDED_RNG = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
}

#: ``datetime`` members that read the wall clock.
_DATETIME_CLOCKS = {
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class _ScopedRule:
    """Shared ``applies``: determinism rules run on identity-path modules."""

    def applies(self, context: ModuleContext, config: LintConfig) -> bool:
        return config.in_determinism_scope(context.module)


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register
class WallClockRule(_ScopedRule):
    rule_id = "det-wallclock"
    description = (
        "identity-path code must not read the wall clock "
        "(time.*, datetime.now/utcnow/today)"
    )

    def check(
        self, context: ModuleContext, config: LintConfig
    ) -> Iterator[Finding]:
        imports = import_table(context.tree)
        for call in _calls(context.tree):
            origin = resolve_name(call.func, imports)
            if origin is None:
                continue
            if origin.startswith("time.") or origin in _DATETIME_CLOCKS:
                yield finding(
                    context, self.rule_id, call,
                    f"call to {origin} on the identity path",
                    hint="thread timestamps in from a caller outside the "
                         "identity path (e.g. repro.obs)",
                )


@register
class RandomRule(_ScopedRule):
    rule_id = "det-random"
    description = (
        "identity-path code must not draw from unseeded RNGs "
        "(random.*, numpy.random.* except seeded constructors)"
    )

    def check(
        self, context: ModuleContext, config: LintConfig
    ) -> Iterator[Finding]:
        imports = import_table(context.tree)
        for call in _calls(context.tree):
            origin = resolve_name(call.func, imports)
            if origin is None or origin in _SEEDED_RNG:
                continue
            if origin.startswith("random.") or origin.startswith("numpy.random."):
                yield finding(
                    context, self.rule_id, call,
                    f"call to {origin} uses global/unseeded RNG state",
                    hint="accept a seeded numpy Generator (default_rng(seed)) "
                         "or random.Random(seed) as an argument",
                )


@register
class EnvironRule(_ScopedRule):
    rule_id = "det-environ"
    description = "identity-path code must not read os.environ / os.getenv"

    def check(
        self, context: ModuleContext, config: LintConfig
    ) -> Iterator[Finding]:
        imports = import_table(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            origin = resolve_name(node, imports)
            if origin in ("os.environ", "os.getenv"):
                # Attribute chains are visited at every depth; only report
                # the exact match, not e.g. the `os` Name inside it.
                yield finding(
                    context, self.rule_id, node,
                    f"read of {origin} on the identity path",
                    hint="pass configuration explicitly (spec fields or "
                         "function arguments), not via the environment",
                )


@register
class IdentityHashRule(_ScopedRule):
    rule_id = "det-id"
    description = (
        "id() values are process-local addresses; never let them reach "
        "hashes, payloads or ordering"
    )

    def check(
        self, context: ModuleContext, config: LintConfig
    ) -> Iterator[Finding]:
        for call in _calls(context.tree):
            if (isinstance(call.func, ast.Name)
                    and call.func.id == "id"
                    and len(call.args) == 1):
                yield finding(
                    context, self.rule_id, call,
                    "id() of an object on the identity path",
                    hint="use an explicit stable key (index, sequence "
                         "number, content hash) instead of the CPython "
                         "object address",
                )


@register
class FloatEqRule(_ScopedRule):
    rule_id = "det-float-eq"
    description = "== / != against a float literal is rounding-fragile"

    @staticmethod
    def _is_float_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp):
            return FloatEqRule._is_float_expr(node.operand)
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            return True
        return False

    def check(
        self, context: ModuleContext, config: LintConfig
    ) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_float_expr(operand) for operand in operands):
                yield finding(
                    context, self.rule_id, node,
                    "float equality comparison on the identity path",
                    hint="compare against an integer encoding, or use an "
                         "explicit tolerance (math.isclose) outside the "
                         "identity path",
                )


# ----------------------------------------------------------------------
# det-set-iter: set-typed expression inference per scope
# ----------------------------------------------------------------------
def _scope_statements(root: ast.AST) -> List[ast.AST]:
    """``root``'s descendants, not descending into nested function defs
    (each def is analysed as its own scope)."""
    collected: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            collected.append(child)
            visit(child)

    visit(root)
    return collected


class _SetTypes:
    """Tracks which expressions / local names are set-typed in one scope."""

    def __init__(self, config: LintConfig) -> None:
        self._config = config
        self.set_locals: Set[str] = set()

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) and node.id in self.set_locals:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (isinstance(func, ast.Attribute)
                    and func.attr in self._config.set_returning):
                return True
        return False

    def learn(self, node: ast.AST) -> None:
        """Record set-typed locals from an assignment statement."""
        if not isinstance(node, ast.Assign):
            return
        for target in node.targets:
            if isinstance(target, ast.Name) and self.is_set_expr(node.value):
                self.set_locals.add(target.id)
            elif (isinstance(target, ast.Tuple)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in self._config.set_returning):
                # ``a, b = x.drain_dirty()`` — a multi-set drain: every
                # unpacked name is a set.
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.set_locals.add(element.id)


@register
class SetIterRule(_ScopedRule):
    rule_id = "det-set-iter"
    description = (
        "iterating or materialising a set without sorted() leaks hash "
        "order into results"
    )

    _MATERIALIZERS = ("list", "tuple")

    def check(
        self, context: ModuleContext, config: LintConfig
    ) -> Iterator[Finding]:
        scopes: List[ast.AST] = [context.tree]
        scopes.extend(
            node for node in ast.walk(context.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            nodes = _scope_statements(scope)
            types = _SetTypes(config)
            for node in nodes:  # pass 1: learn set-typed locals
                types.learn(node)
            for node in nodes:  # pass 2: flag unsorted consumption
                yield from self._check_node(context, node, types)

    def _check_node(
        self, context: ModuleContext, node: ast.AST, types: _SetTypes
    ) -> Iterator[Finding]:
        if isinstance(node, ast.For) and types.is_set_expr(node.iter):
            yield self._finding(context, node.iter, "for-loop over")
        elif isinstance(node, ast.comprehension) and types.is_set_expr(node.iter):
            yield self._finding(context, node.iter, "comprehension over")
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name)
                    and func.id in self._MATERIALIZERS
                    and node.args
                    and types.is_set_expr(node.args[0])):
                yield self._finding(
                    context, node.args[0], f"{func.id}() materialisation of"
                )

    def _finding(
        self, context: ModuleContext, node: ast.AST, what: str
    ) -> Finding:
        return finding(
            context, self.rule_id, node,
            f"{what} a set-typed value without sorted()",
            hint="wrap the expression in sorted(...) so downstream bytes "
                 "and payloads are order-stable",
        )
