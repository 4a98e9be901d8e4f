"""Constant propagation and expression simplification (low form).

Folds literal primops/muxes, propagates single-definition node values that
are literals or plain references, and applies algebraic identities.  Runs to
a bounded fixpoint.  This is also the engine the FSM coverage pass reuses to
simplify next-state expressions (§4.3).
"""

from __future__ import annotations

from typing import Optional

from ..ir.nodes import (
    Circuit,
    Connect,
    DefNode,
    Expr,
    Module,
    Mux,
    PrimOp,
    Ref,
    SIntLiteral,
    UIntLiteral,
)
from ..ir.ops import eval_op
from ..ir.traversal import is_literal, literal_value, map_expr, map_module_exprs
from ..ir.types import SIntType, UIntType, bit_width, is_signed, to_signed
from .base import CompileState, Pass

MAX_ITERATIONS = 8


def make_literal(raw: int, tpe) -> Expr:
    """Build a literal of ``tpe`` from a raw bit pattern."""
    if is_signed(tpe):
        return SIntLiteral(to_signed(raw, bit_width(tpe)), bit_width(tpe))
    return UIntLiteral(raw & ((1 << bit_width(tpe)) - 1), bit_width(tpe))


def _is_true(expr: Expr) -> bool:
    return isinstance(expr, UIntLiteral) and expr.value == 1 and expr.width == 1


def _is_false(expr: Expr) -> bool:
    return isinstance(expr, UIntLiteral) and expr.value == 0


def _is_zero(expr: Expr) -> bool:
    return is_literal(expr) and literal_value(expr) == 0


def simplify_expr(expr: Expr) -> Expr:
    """One-step local simplification of ``expr`` (children assumed simplified)."""
    if isinstance(expr, Mux):
        if _is_true(expr.cond):
            return _fit(expr.tval, expr)
        if _is_false(expr.cond):
            return _fit(expr.fval, expr)
        if expr.tval == expr.fval:
            return _fit(expr.tval, expr)
        # mux(c, 1, 0) == c for 1-bit results
        if (
            bit_width(expr.tpe) == 1
            and not is_signed(expr.tpe)
            and _is_true(expr.tval)
            and _is_false(expr.fval)
        ):
            return expr.cond
        return expr
    if not isinstance(expr, PrimOp):
        return expr
    args = expr.args
    if all(is_literal(a) for a in args):
        raw = eval_op(expr.op, [literal_value(a) for a in args], [a.tpe for a in args], expr.consts)
        return make_literal(raw, expr.type)
    if expr.op == "and":
        a, b = args
        if _is_false(a) or _is_false(b):
            return make_literal(0, expr.type)
        if _is_true(a) and bit_width(expr.type) == 1:
            return b
        if _is_true(b) and bit_width(expr.type) == 1:
            return a
    elif expr.op == "or":
        a, b = args
        if _is_zero(a) and bit_width(b.tpe) == bit_width(expr.type) and not is_signed(b.tpe):
            return b
        if _is_zero(b) and bit_width(a.tpe) == bit_width(expr.type) and not is_signed(a.tpe):
            return a
        if bit_width(expr.type) == 1 and (_is_true(a) or _is_true(b)):
            return make_literal(1, expr.type)
    elif expr.op == "not":
        inner = args[0]
        # not() of a signed value is unsigned: only an operand of the
        # result's own type can stand in for not(not(x))
        if isinstance(inner, PrimOp) and inner.op == "not" and inner.args[0].tpe == expr.type:
            return inner.args[0]
    elif expr.op == "bits":
        hi, lo = expr.consts
        inner = args[0]
        if lo == 0 and hi == bit_width(inner.tpe) - 1 and not is_signed(inner.tpe):
            return inner
        if isinstance(inner, PrimOp) and inner.op == "bits":
            # bits(bits(x, h2, l2), hi, lo) == bits(x, l2+hi, l2+lo)
            _, l2 = inner.consts
            return PrimOp("bits", inner.args, (l2 + hi, l2 + lo), expr.type)
    elif expr.op == "pad":
        inner = args[0]
        if bit_width(inner.tpe) >= expr.consts[0] and inner.tpe == expr.type:
            return inner
    elif expr.op in ("asUInt", "asSInt"):
        inner = args[0]
        if inner.tpe == expr.type:
            return inner
    elif expr.op in ("eq", "neq"):
        a, b = args
        if a == b:
            return make_literal(1 if expr.op == "eq" else 0, expr.type)
    return expr


def _fit(expr: Expr, template: Expr) -> Expr:
    """Adjust ``expr`` to the exact type of ``template`` (pad if narrower)."""
    if expr.tpe == template.tpe:
        return expr
    if bit_width(expr.tpe) <= bit_width(template.tpe) and is_signed(expr.tpe) == is_signed(template.tpe):
        return simplify_expr(PrimOp.make("pad", (expr,), (bit_width(template.tpe),)))
    return template  # cannot represent; keep the original


def simplify_deep(expr: Expr) -> Expr:
    """Bottom-up full simplification of an expression tree."""
    return map_expr(expr, simplify_expr)


class ConstProp(Pass):
    """Propagate constants and copies through node definitions (low form)."""

    def run(self, state: CompileState) -> CompileState:
        modules = [self._run_module(m) for m in state.circuit.modules]
        circuit = Circuit(state.circuit.main, modules, state.circuit.annotations)
        return CompileState(circuit, state.cover_paths, state.metadata)

    def _run_module(self, module: Module) -> Module:
        current = module
        for _ in range(MAX_ITERATIONS):
            subst = self._build_substitution(current)

            def rewrite(expr: Expr) -> Expr:
                if isinstance(expr, Ref) and expr.name in subst:
                    return subst[expr.name]
                return simplify_expr(expr)

            new = map_module_exprs(current, rewrite)
            if _modules_equal(new, current):
                return new
            current = new
        return current

    @staticmethod
    def _build_substitution(module: Module) -> dict[str, Expr]:
        """Nodes whose value is a literal or a plain ref can be inlined."""
        subst: dict[str, Expr] = {}
        for stmt in module.body:
            if isinstance(stmt, DefNode) and (is_literal(stmt.value) or isinstance(stmt.value, Ref)):
                subst[stmt.name] = stmt.value
        # resolve chains node_a -> node_b -> literal
        changed = True
        while changed:
            changed = False
            for name, value in list(subst.items()):
                if isinstance(value, Ref) and value.name in subst and subst[value.name] != value:
                    subst[name] = subst[value.name]
                    changed = True
        return subst


def _modules_equal(a: Module, b: Module) -> bool:
    from ..ir.printer import print_circuit

    return print_circuit(Circuit(a.name, [a])) == print_circuit(Circuit(b.name, [b]))
