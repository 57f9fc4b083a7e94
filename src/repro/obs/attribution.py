"""Loop-level miss attribution: *which* loop/statement/array misses.

The speedup tables report whole-run miss counts; explaining them needs the
breakdown this module provides.  The interpreter maintains a
:class:`Provenance` — the (procedure, loop-nest path, statement) the
execution is currently inside — and :class:`repro.machine.tracer.CacheTracer`
reads it at every simulated access, accumulating per-site counters in a
:class:`MissAttribution`.  Sites are keyed ``(loop path, statement label,
array)``, the finest grain, and the coarser views (per loop nest, per
statement, per array) are aggregations of it — so every view's totals sum
exactly to the run's :class:`~repro.machine.cache.CacheStats`, an
invariant the ``repro.obs/1`` invariants and the test suite both assert.

Dirty evictions (write-backs) are charged to the access that *triggered*
the eviction, not the statement that originally dirtied the line — the
trigger is what a blocking transformation moves, so it is the attribution
that explains the tables.
"""

from __future__ import annotations

from repro.ir.pretty import fmt_expr
from repro.ir.stmt import Assign, If, Loop, Stmt

#: site key for accesses issued outside any DO loop (procedure prologue).
TOPLEVEL = "(toplevel)"


def stmt_label(stmt: Stmt) -> str:
    """Short, stable display label for a statement (the store target for
    assignments — ``A(I,J)`` — since that is how the paper talks about
    statements)."""
    if isinstance(stmt, Assign):
        return fmt_expr(stmt.target)
    if isinstance(stmt, If):
        return f"IF {fmt_expr(stmt.cond)}"[:48]
    if isinstance(stmt, Loop):
        return f"DO {stmt.var}"
    return type(stmt).__name__


class Provenance:
    """Where execution currently is: procedure, loop-nest path, statement.

    The interpreter pushes/pops loop variables once per executed ``Loop``
    statement (not per iteration) and points ``stmt`` at the statement
    about to run; labels are computed once per IR node and memoized by
    object identity (IR nodes are pinned alive by the procedure tree for
    the whole run, so ids are stable).
    """

    __slots__ = ("procedure", "path", "stmt", "_labels")

    def __init__(self, procedure: str = "") -> None:
        self.procedure = procedure
        self.path: tuple[str, ...] = ()
        self.stmt: str = ""
        self._labels: dict[int, str] = {}

    def push_loop(self, var: str) -> None:
        self.path = self.path + (var,)

    def pop_loop(self) -> None:
        self.path = self.path[:-1]

    def set_stmt(self, stmt: Stmt) -> None:
        key = id(stmt)
        label = self._labels.get(key)
        if label is None:
            label = self._labels[key] = stmt_label(stmt)
        self.stmt = label


# per-site counter slots
_ACC, _MISS, _WB, _TLB, _WRITES = range(5)


def _row_dict(row: list[int]) -> dict:
    return {
        "accesses": row[_ACC],
        "misses": row[_MISS],
        "writebacks": row[_WB],
        "tlb_misses": row[_TLB],
        "writes": row[_WRITES],
    }


class MissAttribution:
    """Fine-grained access/miss/write-back counters per provenance site."""

    def __init__(self) -> None:
        # (loop path, statement label, array) -> [acc, miss, wb, tlb, writes]
        self.sites: dict[tuple[tuple[str, ...], str, str], list[int]] = {}

    def record(
        self,
        path: tuple[str, ...],
        stmt: str,
        array: str,
        is_write: bool,
        miss: bool,
        writebacks: int,
        tlb_miss: bool,
    ) -> None:
        key = (path, stmt, array)
        row = self.sites.get(key)
        if row is None:
            row = self.sites[key] = [0, 0, 0, 0, 0]
        row[_ACC] += 1
        if miss:
            row[_MISS] += 1
        if writebacks:
            row[_WB] += writebacks
        if tlb_miss:
            row[_TLB] += 1
        if is_write:
            row[_WRITES] += 1

    # ---- aggregations ------------------------------------------------------
    def _agg(self, keyfn) -> dict[str, dict]:
        out: dict[str, list[int]] = {}
        for (path, stmt, array), row in self.sites.items():
            k = keyfn(path, stmt, array)
            acc = out.get(k)
            if acc is None:
                acc = out[k] = [0, 0, 0, 0, 0]
            for i in range(5):
                acc[i] += row[i]
        return {k: _row_dict(v) for k, v in sorted(out.items())}

    def by_loop(self) -> dict[str, dict]:
        """Per loop nest, keyed ``"K/I/J"`` (outer to inner)."""
        return self._agg(lambda path, stmt, array: "/".join(path) or TOPLEVEL)

    def by_statement(self) -> dict[str, dict]:
        """Per statement, keyed ``"K/I/J: A(I,J)"``."""
        return self._agg(
            lambda path, stmt, array: f"{'/'.join(path) or TOPLEVEL}: {stmt}"
        )

    def by_array(self) -> dict[str, dict]:
        return self._agg(lambda path, stmt, array: array)

    def totals(self) -> dict:
        total = [0, 0, 0, 0, 0]
        for row in self.sites.values():
            for i in range(5):
                total[i] += row[i]
        return _row_dict(total)

    def to_dict(self) -> dict:
        """JSON form: the fine rows (sorted by misses, descending) plus the
        three aggregate views and the totals."""
        rows = [
            {"loop": "/".join(path) or TOPLEVEL, "statement": stmt, "array": array,
             **_row_dict(row)}
            for (path, stmt, array), row in self.sites.items()
        ]
        rows.sort(key=lambda r: (-r["misses"], -r["accesses"], r["loop"], r["statement"]))
        return {
            "rows": rows,
            "by_loop": self.by_loop(),
            "by_statement": self.by_statement(),
            "by_array": self.by_array(),
            "totals": self.totals(),
        }
