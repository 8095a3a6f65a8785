"""The finding record every rule produces and every reporter consumes."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (path, line, col, rule) so reports are stable across
    runs and directory-walk order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """The classic compiler-style one-liner: ``path:line:col: id msg``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, blob: dict) -> Finding:
        return cls(
            path=str(blob["path"]),
            line=int(blob["line"]),
            col=int(blob["col"]),
            rule=str(blob["rule"]),
            message=str(blob["message"]),
        )
