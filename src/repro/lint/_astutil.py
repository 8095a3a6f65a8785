"""Small AST helpers shared by the rule modules."""

from __future__ import annotations

import ast

__all__ = ["ImportMap", "dotted_name"]


def dotted_name(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute chains as a dotted string, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Resolve names in one module back to the dotted path they import.

    Tracks ``import x.y as z`` (``z -> x.y``) and ``from m import n as
    a`` (``a -> m.n``); relative imports keep their leading dots, e.g.
    ``from ..obs.events import SIM_SLOT`` maps ``SIM_SLOT`` to
    ``..obs.events.SIM_SLOT``.  :meth:`resolve` then canonicalises any
    expression (``np.random.default_rng`` -> ``numpy.random.default_rng``).
    """

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> ImportMap:
        imap = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    imap.aliases[bound] = target
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    imap.aliases[bound] = f"{module}.{alias.name}"
        return imap

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted path of an expression, or ``None``."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head
