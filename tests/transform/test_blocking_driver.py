"""The strip-mine-and-interchange blocking driver, end to end."""

import pytest

from repro.ir.build import assign, do, ref
from repro.ir.expr import Min, Var
from repro.ir.pretty import to_fortran
from repro.ir.stmt import ArrayDecl, Procedure
from repro.ir.visit import find_loops, loop_by_var
from repro.runtime.validate import assert_equivalent
from repro.symbolic.assume import Assumptions
from repro.transform.blocking import block_loop


class TestSec23Rectangular:
    def test_paper_result(self, vecadd_proc):
        out, report = block_loop(vecadd_proc, "J", "JS")
        assert report.blocked_innermost == 1
        assert report.residual_point_loops == 0
        assert not report.used_index_set_split
        # structure: DO J step JS / DO I / DO JJ
        loops = find_loops(out)
        assert [l.var for l in loops] == ["J", "I", "JJ"]
        for n, m, js in ((13, 9, 4), (12, 9, 4), (5, 3, 8)):
            assert_equivalent(vecadd_proc, out, {"N": n, "M": m, "JS": js})


class TestSec33ComplexDependence:
    def make(self):
        s1 = assign(ref("T", "I"), ref("A", "I"))
        s2 = do("K", "I", "N", assign(ref("A", "K"), ref("A", "K") + ref("T", "I")))
        return Procedure(
            "p", ("N",),
            (ArrayDecl("A", (Var("N"),)), ArrayDecl("T", (Var("N"),))),
            (do("I", 1, "N", s1, s2),),
        )

    def test_split_then_partial_blocking(self):
        p = self.make()
        out, report = block_loop(p, "I", "IS")
        assert report.used_index_set_split
        assert report.blocked_innermost >= 1  # the disjoint region
        assert report.residual_point_loops >= 1  # the true recurrence
        for n, s in ((23, 5), (20, 5), (7, 10), (1, 3)):
            assert_equivalent(p, out, {"N": n, "IS": s})


class TestLUWithoutPivoting:
    def test_figure6_derived(self):
        from repro.algorithms import lu_point_ir

        ctx = Assumptions().assume_ge("N", 2)
        out, report = block_loop(lu_point_ir(), "K", "KS", ctx=ctx)
        assert report.used_index_set_split
        assert report.blocked_innermost == 1
        text = to_fortran(out)
        # the Fig. 6 signature: trailing update with KK innermost and the
        # triangular clamp KK <= I-1
        assert "DO KK = K, MIN(I - 1, K + KS - 1" in text
        for n, ks in ((12, 4), (13, 4), (9, 3), (5, 8)):
            assert_equivalent(lu_point_ir(), out, {"N": n, "KS": ks})


class TestUnblockable:
    def test_sequential_scan_stays_point(self):
        # a genuine full-length recurrence: nothing to carve off
        p = Procedure(
            "scan", ("N",),
            (ArrayDecl("A", (Var("N"),)),),
            (do("I", 2, "N", assign(ref("A", "I"), ref("A", Var("I") - 1) + 1.0)),),
        )
        out, report = block_loop(p, "I", "IS")
        assert report.blocked_innermost == 0
        # and the program still runs correctly
        assert_equivalent(p, out, {"N": 9, "IS": 3})


class TestContextDoesNotLeak:
    def test_block_loop_leaves_callers_context_unchanged(self):
        from repro.algorithms import lu_point_ir

        ctx = Assumptions().assume_ge("N", 2)
        key = ctx.facts_key()
        _, report = block_loop(lu_point_ir(), "K", "KS", ctx=ctx)
        assert report.blocked_innermost >= 1
        # block_loop assumes KS >= 2 internally; the caller must not see it
        assert ctx.facts_key() == key
        assert ctx.lower_bound("KS") is None
