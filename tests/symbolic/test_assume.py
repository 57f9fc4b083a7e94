"""Assumption contexts: bound derivation and sign decisions."""

from repro.ir.expr import Min, Var
from repro.symbolic.assume import Assumptions


class TestBasicFacts:
    def test_range_gives_bounds(self):
        ctx = Assumptions().assume_range("N", 1, 100)
        assert ctx.lower_bound("N") == 1
        assert ctx.upper_bound("N") == 100

    def test_is_nonneg_three_valued(self):
        ctx = Assumptions().assume_ge("KS", 1)
        assert ctx.is_nonneg(Var("KS") - 1) is True
        assert ctx.is_nonneg(-Var("KS")) is False
        assert ctx.is_nonneg(Var("KS") - 5) is None

    def test_is_pos(self):
        ctx = Assumptions().assume_ge("KS", 2)
        assert ctx.is_pos(Var("KS") - 1) is True
        assert ctx.is_pos(1 - Var("KS")) is False

    def test_is_zero(self):
        ctx = Assumptions()
        assert ctx.is_zero(Var("I") - Var("I")) is True
        assert ctx.is_zero(Var("I") - Var("J")) is None
        ctx2 = Assumptions().assume_range("D", 0, 0)
        assert ctx2.is_zero(Var("D")) is True


class TestChainedBounds:
    def test_transitive_substitution(self):
        # K <= N - KS and KS >= 2  =>  K + KS - 1 < N
        ctx = (
            Assumptions()
            .assume_ge("KS", 2)
            .assume_le("K", Var("N") - Var("KS"))
            .assume_ge("K", 1)
        )
        assert ctx.compare(Var("K") + Var("KS") - 1, Var("N")) == "<"

    def test_relational_fact_stored_both_ways(self):
        # I >= KK + 1 also bounds KK above by I - 1
        ctx = Assumptions().assume_ge("I", Var("KK") + 1).assume_le("I", Var("N"))
        assert ctx.compare(Var("KK"), Var("N")) == "<"

    def test_cycle_terminates(self):
        ctx = Assumptions().assume_le("A", Var("B")).assume_le("B", Var("A"))
        # consistent but unresolvable to constants; must not hang
        assert ctx.compare(Var("A"), Var("C")) is None


class TestCompare:
    def test_constant_difference(self):
        ctx = Assumptions()
        assert ctx.compare(Var("K") + 1, Var("K")) == ">"
        assert ctx.compare(Var("K"), Var("K")) == "=="
        assert ctx.compare(Var("K") - 2, Var("K")) == "<"

    def test_unknown_is_none(self):
        assert Assumptions().compare(Var("A"), Var("B")) is None

    def test_non_affine_is_none(self):
        assert Assumptions().compare(Min((Var("A"), Var("B"))), Var("A")) is None

    def test_implies_helpers(self):
        ctx = Assumptions().assume_ge("N", 5)
        assert ctx.implies_le(5, Var("N"))
        assert ctx.implies_lt(4, Var("N"))
        assert not ctx.implies_lt(5, Var("N"))



class TestImmutableContext:
    def test_assume_returns_new_context(self):
        ctx = Assumptions().assume_ge("N", 1)
        key = ctx.facts_key()
        assert ctx.lower_bound("N") == 1  # warm the bound memo first
        ctx2 = ctx.assume_ge("N", 10)
        assert ctx2 is not ctx
        assert ctx.facts_key() == key
        assert ctx.lower_bound("N") == 1
        assert ctx2.lower_bound("N") == 10

    def test_range_and_le_leave_receiver_unchanged(self):
        ctx = Assumptions().assume_ge("K", 1)
        key = ctx.facts_key()
        ctx.assume_le("K", Var("N"))
        ctx.assume_range("J", 1, Var("K"))
        assert ctx.facts_key() == key
        assert ctx.upper_bound(Var("K") - Var("N")) is None

    def test_known_or_unusable_fact_returns_same_context(self):
        ctx = Assumptions().assume_ge("N", 2)
        assert ctx.assume_ge("N", 2) is ctx
        assert ctx.assume_ge(Min((Var("A"), Var("B"))), 0) is ctx


class TestForLoopNest:
    def test_builder(self):
        ctx = Assumptions.for_loop_nest([("I", 1, Var("N")), ("J", Var("I"), Var("N"))])
        assert ctx.is_nonneg(Var("J") - 1) is True  # J >= I >= 1
