"""Float-safety rules: a float share must stay finite.

Grants and ledgers are whole bytes (:mod:`repro.core.apportion`), so
no engine's bits depend on a float operation order any more.  Float
shares with a data-dependent divisor remain — the allocators'
``allocate`` proposals and the core float API — and for those the
order of a multiply and a divide decides whether the result is finite:
dividing by a subnormal weight total first overflows to inf where the
multiply-first order stays finite (a real bug found by fuzzing).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..findings import Finding
from ..registry import FLOAT_SCOPE, rule


@rule(
    "float-div-before-mul",
    rationale="`a / b * c` overflows to inf when b is subnormal; float "
    "shares must use the multiply-before-divide order `a * c / b`",
    scope=FLOAT_SCOPE,
)
def check_div_before_mul(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Div)
            # A literal divisor (unit conversions like `x / 8.0 * s`)
            # cannot be subnormal; only data-dependent divisors reorder.
            and not (
                isinstance(node.left.right, ast.Constant)
                and isinstance(node.left.right.value, (int, float))
            )
        ):
            yield ctx.finding(
                "float-div-before-mul",
                node,
                "divide-before-multiply (`a / b * c`); write the "
                "overflow-safe `a * c / b` (or parenthesise a deliberate "
                "ratio as `c * (a / b)`)",
            )
