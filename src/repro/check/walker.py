"""Source discovery, parsing and pragma extraction for ``repro.check``.

The walker turns a source tree into :class:`SourceFile` objects — path,
dotted module name, parsed AST, raw lines and the suppression pragmas
found in comments.  Rules never touch the filesystem; they consume
``SourceFile`` instances, which also makes every rule trivially
testable from an inline string (:meth:`SourceFile.from_text`).

Per-file facts that several rules need — every node in walk order, the
resolved import map and the ``if TYPE_CHECKING:`` spans — are computed
once per file, on first use, and cached on the :class:`SourceFile`
itself; the pure functions :func:`resolve_imports` and
:func:`type_checking_spans` stay available for one-off use.

Pragma grammar
--------------
A violation is suppressed by a comment on any physical line its
flagged node spans::

    started_at = time.time()  # repro: allow[determinism] wall-clock uptime base

The bracket takes a comma-separated list of rule families or specific
codes (``allow[determinism]``, ``allow[hygiene/swallowed-except]``,
``allow[determinism,concurrency]``).  Text after the bracket is a
free-form justification — encouraged, never parsed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

#: Matches one suppression comment; group 1 is the rule list.
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")


class CheckConfigError(Exception):
    """Raised for unusable roots, unparseable baselines and bad rule names."""


@dataclass(frozen=True)
class SourceFile:
    """One parsed source file plus everything rules need to inspect it."""

    path: str
    module: str
    text: str
    tree: ast.Module
    lines: tuple[str, ...]
    #: line number -> set of allowed rule names (families or codes).
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The top-level subpackage under ``repro`` (or ``<root>``)."""
        parts = self.module.split(".")
        if len(parts) == 1:  # repro itself
            return "<root>"
        if len(parts) == 2:
            # Ambiguous by name alone: "repro.geo" is the geo package's
            # __init__ (rules apply) but "repro.cli" is a root module
            # (exempt).  The filename settles it.
            if self.path.endswith("__init__.py"):
                return parts[1]
            return "<root>"
        return parts[1]

    @cached_property
    def nodes(self) -> tuple[ast.AST, ...]:
        """Every node of the module, in :func:`ast.walk` order."""
        return tuple(ast.walk(self.tree))

    @cached_property
    def import_nodes(self) -> tuple[ast.Import | ast.ImportFrom, ...]:
        """Every ``import``/``from ... import`` statement, in walk order."""
        return tuple(
            node for node in self.nodes if isinstance(node, (ast.Import, ast.ImportFrom))
        )

    @cached_property
    def imports(self) -> dict[str, str]:
        """Local name -> imported dotted path (:func:`resolve_imports`)."""
        return _import_map(self.import_nodes)

    @cached_property
    def type_only_spans(self) -> tuple[tuple[int, int], ...]:
        """``if TYPE_CHECKING:`` body spans (:func:`type_checking_spans`)."""
        return tuple(_type_checking_spans(self.nodes))

    def type_only(self, lineno: int) -> bool:
        """True when ``lineno`` sits in an ``if TYPE_CHECKING:`` body."""
        return any(start <= lineno <= end for start, end in self.type_only_spans)

    @classmethod
    def from_text(cls, text: str, path: str = "<memory>", module: str = "repro._mem") -> "SourceFile":
        """Parse inline source — the unit-test entry point."""
        tree = ast.parse(text, filename=path)
        lines = tuple(text.splitlines())
        return cls(
            path=path,
            module=module,
            text=text,
            tree=tree,
            lines=lines,
            pragmas=extract_pragmas(lines),
        )

    def line_at(self, lineno: int) -> str:
        """The stripped source text of a 1-based line ('' out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def allowed(self, span: tuple[int, int], names: frozenset[str]) -> bool:
        """True when any line of ``span`` carries a pragma matching ``names``."""
        first, last = span
        for lineno in range(first, last + 1):
            granted = self.pragmas.get(lineno)
            if granted and granted & names:
                return True
        return False


def extract_pragmas(lines: tuple[str, ...]) -> dict[int, frozenset[str]]:
    """Per-line suppression pragmas, parsed from comments.

    A pragma on a code line covers that line; a pragma on a pure
    comment line also covers the line below it (for statements too long
    to carry a trailing comment).
    """
    pragmas: dict[int, frozenset[str]] = {}
    for index, line in enumerate(lines, start=1):
        if "#" not in line or "repro:" not in line:
            continue
        match = PRAGMA_RE.search(line)
        if not match:
            continue
        names = frozenset(
            name.strip() for name in match.group(1).split(",") if name.strip()
        )
        if not names:
            continue
        pragmas[index] = pragmas.get(index, frozenset()) | names
        if line.lstrip().startswith("#"):
            pragmas[index + 1] = pragmas.get(index + 1, frozenset()) | names
    return pragmas


def module_name_for(path: Path, src_root: Path) -> str:
    """Dotted module name of ``path`` relative to ``src_root``'s parent.

    ``src/repro/serve/app.py`` -> ``repro.serve.app``;
    ``src/repro/geo/__init__.py`` -> ``repro.geo``.
    """
    rel = path.relative_to(src_root.parent)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def iter_source_files(src_root: Path) -> Iterator[SourceFile]:
    """Parse every ``*.py`` under ``src_root``, sorted for stable output.

    A file with a syntax error becomes a :class:`CheckConfigError` —
    the checker refuses to silently skip what it cannot parse.
    """
    for path in sorted(src_root.rglob("*.py")):
        try:
            source = SourceFile.from_text(
                path.read_text(encoding="utf-8"),
                path=path.relative_to(src_root.parent.parent).as_posix(),
                module=module_name_for(path, src_root),
            )
        except SyntaxError as exc:
            raise CheckConfigError(f"cannot parse {path}: {exc}") from exc
        yield source


def type_checking_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """Line spans of ``if TYPE_CHECKING:`` bodies (type-only imports).

    Imports inside these blocks never execute at runtime, so the
    layering rule treats them as documentation, not dependencies.
    """
    return _type_checking_spans(ast.walk(tree))


def _type_checking_spans(nodes: Iterable[ast.AST]) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    for node in nodes:
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if is_tc and node.body:
            spans.append((node.body[0].lineno, max(s.end_lineno or s.lineno for s in node.body)))
    return spans


def resolve_imports(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted path they were imported as.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime as dt`` -> ``{"dt": "datetime.datetime"}``.
    Used to resolve call sites like ``np.random.rand`` back to their
    canonical ``numpy.random.rand`` identity.
    """
    return _import_map(ast.walk(tree))


def _import_map(nodes: Iterable[ast.AST]) -> dict[str, str]:
    names: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                names[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                names[local] = f"{node.module}.{alias.name}"
    return names
