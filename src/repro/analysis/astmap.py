"""Static localization of ``at_share`` call sites in workload source.

The auditor knows *which* graph edge is wrong; this pass knows *where*
the edge came from.  A plain AST walk over the workload module that
issued the annotation finds every ``runtime.at_share(src, dst, q)``
call, records whether the q argument is a numeric literal (patchable in
place) or a computed expression (loop-generated sites like photo's
stencil rows — suggestion only), and exposes the literal's exact source
span so the repair engine can rewrite it without reformatting anything
else.

Recognized call shapes (each covered by a test in
``tests/analysis/test_astmap.py``):

- attribute-qualified: ``runtime.at_share(...)``, ``self.at_share(...)``,
  or any other receiver — the trailing attribute decides;
- bare name: ``at_share(...)``, including when imported under an alias
  (``from ... import at_share as share_hint``) or bound to a local name
  (``share = runtime.at_share``) — module-level aliases are tracked;
- arguments positional or keyword: ``at_share(a, b, 0.3)``,
  ``at_share(a, b, q=0.3)``, ``at_share(src=a, dst=b, q=0.3)``.

Everything here is deterministic: sites are reported in source order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Set, Tuple

__all__ = [
    "ShareSite",
    "scan_share_sites",
    "site_at",
    "patch_literal",
]

_LOOP_NODES = (ast.For, ast.While, ast.AsyncFor)


@dataclass(frozen=True)
class ShareSite:
    """One static ``at_share`` call: where it is and what it passes."""

    path: str
    line: int
    end_line: int
    src_expr: str
    dst_expr: str
    q_expr: str
    q_literal: Optional[float]
    # (lineno, col_offset, end_lineno, end_col_offset) of the q argument,
    # present only when the argument is a numeric literal
    q_span: Optional[Tuple[int, int, int, int]]
    in_loop: bool

    @property
    def patchable(self) -> bool:
        """A literal q can be rewritten in place; an expression cannot."""
        return self.q_span is not None

    def render(self) -> str:
        loop = " [loop]" if self.in_loop else ""
        return (
            f"{self.path}:{self.line}  "
            f"at_share({self.src_expr}, {self.dst_expr}, {self.q_expr}){loop}"
        )


def _alias_names(tree: ast.AST) -> Set[str]:
    """Module-level names bound to ``at_share``.

    Covers ``from m import at_share [as x]`` and ``x = <expr>.at_share``
    (or ``x = at_share``) assignments anywhere in the module — the
    symbolic-alias approximation the lock scan already uses for mutexes.
    """
    aliases: Set[str] = {"at_share"}
    for _ in range(2):  # one re-pass resolves alias-of-alias chains
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for name in node.names:
                    if name.name == "at_share":
                        aliases.add(name.asname or name.name)
            elif isinstance(node, ast.Assign):
                value = node.value
                is_share = (
                    isinstance(value, ast.Attribute)
                    and value.attr == "at_share"
                ) or (
                    isinstance(value, ast.Name) and value.id in aliases
                )
                if is_share:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            aliases.add(target.id)
    return aliases


def _is_at_share(call: ast.Call, aliases: Optional[Set[str]] = None) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == "at_share"
    if isinstance(func, ast.Name):
        return func.id in (aliases if aliases is not None else {"at_share"})
    return False


def _share_arguments(
    call: ast.Call,
) -> Optional[Tuple[ast.expr, ast.expr]]:
    """The (src, dst) argument expressions, positional or keyword."""
    src: Optional[ast.expr] = call.args[0] if len(call.args) >= 1 else None
    dst: Optional[ast.expr] = call.args[1] if len(call.args) >= 2 else None
    for keyword in call.keywords:
        if keyword.arg == "src":
            src = keyword.value
        elif keyword.arg == "dst":
            dst = keyword.value
    if src is None or dst is None:
        return None
    return src, dst


def _q_argument(call: ast.Call) -> Optional[ast.expr]:
    if len(call.args) >= 3:
        return call.args[2]
    for keyword in call.keywords:
        if keyword.arg == "q":
            return keyword.value
    return None


def _literal_value(node: ast.expr) -> Optional[float]:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    return None


class _SiteCollector(ast.NodeVisitor):
    def __init__(self, path: str, aliases: Set[str]) -> None:
        self.path = path
        self.aliases = aliases
        self.sites: List[ShareSite] = []
        self._loop_depth = 0

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        arguments = (
            _share_arguments(node) if _is_at_share(node, self.aliases) else None
        )
        if arguments is not None:
            src_node, dst_node = arguments
            q_node = _q_argument(node)
            q_literal = _literal_value(q_node) if q_node is not None else None
            q_span: Optional[Tuple[int, int, int, int]] = None
            if (
                q_node is not None
                and q_literal is not None
                and q_node.end_lineno is not None
                and q_node.end_col_offset is not None
            ):
                q_span = (
                    q_node.lineno,
                    q_node.col_offset,
                    q_node.end_lineno,
                    q_node.end_col_offset,
                )
            self.sites.append(
                ShareSite(
                    path=self.path,
                    line=node.lineno,
                    end_line=node.end_lineno or node.lineno,
                    src_expr=ast.unparse(src_node),
                    dst_expr=ast.unparse(dst_node),
                    q_expr=ast.unparse(q_node) if q_node is not None else "?",
                    q_literal=q_literal,
                    q_span=q_span,
                    in_loop=self._loop_depth > 0,
                )
            )
        self.generic_visit(node)


def scan_share_sites(path: str) -> List[ShareSite]:
    """All ``at_share`` calls in one source file, in source order.

    Raises ``OSError`` when the file is unreadable and ``SyntaxError``
    when it does not parse.
    """
    source = Path(path).read_text(encoding="utf-8")
    tree = ast.parse(source, filename=path)
    collector = _SiteCollector(path, _alias_names(tree))
    collector.visit(tree)
    return collector.sites


def site_at(sites: List[ShareSite], line: int) -> Optional[ShareSite]:
    """The site whose call spans ``line``, if any."""
    for site in sites:
        if site.line <= line <= site.end_line:
            return site
    return None


def patch_literal(source: str, span: Tuple[int, int, int, int], text: str) -> str:
    """Replace the source span (1-based lines, 0-based cols) with ``text``."""
    lines = source.splitlines(keepends=True)
    lineno, col, end_lineno, end_col = span
    if lineno == end_lineno:
        line = lines[lineno - 1]
        lines[lineno - 1] = line[:col] + text + line[end_col:]
        return "".join(lines)
    first = lines[lineno - 1][:col] + text
    last = lines[end_lineno - 1][end_col:]
    return "".join(lines[: lineno - 1]) + first + last + "".join(lines[end_lineno:])
