"""The Givens QR optimization pipeline (paper Sec. 5.4, Fig. 9 -> Fig. 10).

No block algorithm is known for Givens QR; the paper instead shows that
the same toolkit — IndexSetSplit and IF-inspection — fixes its memory
behaviour: interchanging J innermost gives stride-one access to
``A(J,K)`` and makes ``A(L,K)`` loop-invariant, but the interchange is
blocked by (a) a recurrence that exists only for the element ``A(L,L)``,
(b) scalars C/S carried between the rotation setup and the sweep, and
(c) the guard, whose operand the rotation itself zeroes.

:func:`optimize_givens` derives Fig. 10 from Fig. 9 with the generic
transformations, in the paper's order:

1. **IndexSetSplit** of the K loop at L — the recurrence with ``A(L,L)``
   lives only in the first iteration (then fully unrolled, giving the
   A1/A2 block);
2. **scalar expansion** of C, S into C(J), S(J);
3. **distribution with fused IF-inspection** of the J loop — the first
   piece keeps the guard and records the executed ranges, the second
   becomes the executor (re-evaluating the guard would be wrong: the
   rotation zeroed ``A(J,L)``);
4. **interchange** (twice), putting K outermost over (JN, J).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.context import context_for_path
from repro.errors import TransformError
from repro.ir.stmt import If, Loop, Procedure
from repro.ir.visit import find_loops, loop_by_var
from repro.symbolic.assume import Assumptions
from repro.transform.base import non_comment, sole_inner_loop
from repro.transform.if_inspection import guarded_distribute_with_inspection
from repro.transform.index_set_split import eliminate_single_trip, split_index_set
from repro.transform.interchange import interchange
from repro.transform.scalars import scalar_expand


def optimize_givens(
    proc: Procedure,
    ctx: Optional[Assumptions] = None,
    log: Optional[list[str]] = None,
) -> Procedure:
    """Derive the Fig. 10 structure from the Fig. 9 point algorithm."""
    base = ctx or Assumptions()
    steps = log if log is not None else []

    j_loop = loop_by_var(proc.body, "J")
    body = non_comment(j_loop.body)
    if len(body) != 1 or not isinstance(body[0], If):
        raise TransformError("expected the Fig. 9 guarded rotation body")
    guard_then = non_comment(body[0].then)
    k_loop = next((s for s in guard_then if isinstance(s, Loop)), None)
    if k_loop is None:
        raise TransformError("expected the K sweep inside the guard")

    # 1. IndexSetSplit of K at L: the A(L,L) recurrence is confined to the
    #    first iteration.
    ctx1 = context_for_path(proc, k_loop, base)
    proc, (peel, _rest) = split_index_set(proc, k_loop, k_loop.lo, ctx1)
    steps.append(f"index-set split {k_loop.var} at {k_loop.lo!r} (A(L,L) recurrence)")
    # fully unroll the single-iteration peel
    peel_live = next(l for l in find_loops(proc) if l == peel)
    proc = eliminate_single_trip(proc, peel_live, context_for_path(proc, peel_live, base))
    steps.append("unrolled the peeled first iteration (the A1/A2 block)")

    # 2. scalar expansion of the rotation coefficients over J
    j_live = loop_by_var(proc.body, "J")
    proc = scalar_expand(proc, j_live, ("C", "S"))
    steps.append("scalar-expanded C, S -> C(J), S(J)")

    # 3. distribution of J with fused IF-inspection
    j_live = loop_by_var(proc.body, "J")
    then = non_comment(j_live.body)[0].then
    split_at = next(k for k, s in enumerate(then) if isinstance(s, Loop))
    ctx3 = context_for_path(proc, j_live, base)
    proc, executor = guarded_distribute_with_inspection(proc, j_live, split_at, ctx3)
    steps.append("distributed J with fused IF-inspection (guard operand is zeroed)")

    # 4. interchange J past K, then JN past K: K becomes outermost of the
    #    executor, giving stride-one A(J,K) and invariant A(L,K).
    executor_live = next(l for l in find_loops(proc) if l == executor)
    inner_j = sole_inner_loop(executor_live)
    proc = interchange(proc, inner_j, context_for_path(proc, inner_j, base))
    steps.append("interchanged J inside K")
    executor_live = next(
        l for l in find_loops(proc) if l.var == executor.var and not _is_outer_k(l)
    )
    proc = interchange(proc, executor_live, context_for_path(proc, executor_live, base))
    steps.append("interchanged JN inside K (K now outermost of the sweep)")
    return proc


def _is_outer_k(loop: Loop) -> bool:  # pragma: no cover - trivial guard
    return False
