"""Assumption contexts derived from loop structure.

Inside the body of ``DO V = lo, hi`` the facts ``lo <= V <= hi`` hold (the
body only executes for in-range values), with MAX lower bounds and MIN
upper bounds contributing one fact per arm.  Blocking drivers build their
contexts here, then add problem facts (``KS >= 2``, ``N >= KS`` ...) on
top.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.expr import Max, Min
from repro.ir.stmt import Loop, Procedure, Stmt
from repro.ir.visit import walk_stmts
from repro.symbolic.affine import to_affine
from repro.symbolic.assume import Assumptions


def _strip_mod_terms(e):
    """Drop ``+ MOD(...)`` terms from a lower-bound expression.

    Unroll-and-jam writes its main-loop lower bound as
    ``lo + MOD(trips, u)``; for any iteration that actually executes,
    ``trips >= 0`` so ``MOD(trips, u) >= 0`` and ``var >= lo`` still holds
    (facts are consulted only about executing iterations, so the empty-loop
    case is vacuous)."""
    from repro.ir.expr import BinOp, Call

    if isinstance(e, BinOp) and e.op == "+":
        if isinstance(e.right, Call) and e.right.name == "MOD":
            return _strip_mod_terms(e.left)
        if isinstance(e.left, Call) and e.left.name == "MOD":
            return _strip_mod_terms(e.right)
        return BinOp("+", _strip_mod_terms(e.left), _strip_mod_terms(e.right))
    return e


def add_loop_facts(ctx: Assumptions, loop: Loop) -> Assumptions:
    """``ctx`` plus ``lo <= loop.var <= hi`` (arm-wise through MAX/MIN)."""
    lows = loop.lo.args if isinstance(loop.lo, Max) else (loop.lo,)
    for arm in lows:
        arm = _strip_mod_terms(arm)
        if to_affine(arm) is not None:
            ctx = ctx.assume_ge(loop.var, arm)
    highs = loop.hi.args if isinstance(loop.hi, Min) else (loop.hi,)
    for arm in highs:
        if to_affine(arm) is not None:
            ctx = ctx.assume_le(loop.var, arm)
    return ctx


def context_for_loops(
    root: Procedure | Stmt | Sequence[Stmt],
    base: Optional[Assumptions] = None,
) -> Assumptions:
    """A context holding the range facts of every loop under ``root``.

    DANGER: facts for same-named loops are merged, so this is only sound
    when every loop variable has one consistent range under ``root`` —
    index-set splitting breaks that (three sibling I loops with disjoint
    ranges would yield a contradictory context).  Restructuring drivers
    must use :func:`context_for_path` instead; this remains for
    self-contained nests and tests.
    """
    ctx = base or Assumptions()
    for s in walk_stmts(root):
        if isinstance(s, Loop):
            ctx = add_loop_facts(ctx, s)
    return ctx


def context_for_path(
    root: Procedure | Stmt | Sequence[Stmt],
    target: Loop,
    base: Optional[Assumptions] = None,
) -> Assumptions:
    """Facts for the loops *enclosing* ``target`` (inclusive).

    Sound regardless of sibling loops: only the unique root-to-target path
    contributes, which is exactly the set of variables with well-defined
    values while ``target`` executes.
    """
    from repro.ir.visit import loop_path

    ctx = base or Assumptions()
    for l in loop_path(root, target):
        ctx = add_loop_facts(ctx, l)
    return ctx
