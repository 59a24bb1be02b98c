"""Hygiene rule: stdout discipline, mutable defaults, exception habits.

* ``print()`` in library code — stdout belongs to rendered artefacts
  and JSON results (the CI stray-stdout check diffs it byte-for-byte);
  diagnostics must route through :mod:`repro.obs.logs`.  Entry-point
  modules (``repro.cli``, ``repro.__main__``) are exempt: printing the
  result *is* their job.
* mutable default arguments — the classic shared-state trap; use
  ``None`` plus an in-body default.
* bare ``except:`` — catches ``KeyboardInterrupt``/``SystemExit`` and
  hides typos; name the exception types.
* swallowed ``except`` — a handler whose body is only ``pass``/``...``
  drops the error on the floor.  Deliberate drops (e.g. best-effort
  cleanup) carry a ``# repro: allow[hygiene]`` pragma with the reason.
"""

from __future__ import annotations

import ast

from repro.check.rules import Rule, register
from repro.check.walker import SourceFile

#: Modules whose purpose is writing to stdout.
PRINT_EXEMPT_MODULES = frozenset({"repro.cli", "repro.__main__"})

#: Constructors whose no-arg/any-arg results are mutable containers.
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "OrderedDict", "Counter"}
)


@register
class HygieneRule(Rule):
    """Flags prints, mutable defaults and bad except clauses."""

    name = "hygiene"

    def check(self, source: SourceFile) -> None:
        print_exempt = source.module in PRINT_EXEMPT_MODULES
        for node in source.nodes:
            if isinstance(node, ast.Call):
                if (
                    not print_exempt
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                ):
                    self.report(
                        source,
                        node,
                        "print",
                        "print() in library code pollutes stdout; route "
                        "diagnostics through repro.obs.logs.get_logger()",
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                self._check_defaults(source, node)
            elif isinstance(node, ast.ExceptHandler):
                self._check_handler(source, node)

    def _check_defaults(self, source: SourceFile, node: ast.AST) -> None:
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            if self._is_mutable(default):
                name = getattr(node, "name", "<lambda>")
                self.report(
                    source,
                    default,
                    "mutable-default",
                    f"mutable default argument in {name}(): evaluated "
                    "once at def time and shared across calls — default "
                    "to None and build inside the body",
                )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in MUTABLE_FACTORIES
        )

    def _check_handler(self, source: SourceFile, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                source,
                node,
                "bare-except",
                "bare 'except:' catches KeyboardInterrupt and SystemExit; "
                "name the exception types",
            )
        if all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        ):
            self.report(
                source,
                node,
                "swallowed-except",
                "exception swallowed without handling or logging; log it, "
                "re-raise, or justify with '# repro: allow[hygiene]'",
            )
