"""Inequality assumptions and sign decisions over affine forms.

The transformations need a small number of *decidable* questions answered
under a context of facts such as ``1 <= KS``, ``KS <= N`` or
``K <= N - 1``:

- is ``e >= 0`` / ``e > 0`` / ``e == 0``?
- compare two loop bounds; prune MIN/MAX arms.
- is one array section contained in / disjoint from another?

The engine keeps, per variable, a set of affine *lower* and *upper* bounds
and decides the sign of a target affine form by recursively substituting
bounds for variables (choosing a lower or upper bound according to the sign
of the coefficient) until a constant candidate emerges.  This is a bounded,
sound-but-incomplete procedure: ``None`` answers mean "unknown", and every
caller treats unknown conservatively.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from repro.ir.expr import Expr
from repro.symbolic.affine import Affine, Rat, to_affine

_MAX_DEPTH = 5


class Assumptions:
    """An immutable conjunction of affine inequalities usable as a
    decision context.

    :meth:`assume_ge` / :meth:`assume_le` / :meth:`assume_range` return a
    *new* context; arbitrary affine facts ``aff >= 0`` that mention
    several variables are stored as bounds on each mentioned variable
    (``c·v >= -rest`` ⇒ a bound on ``v``), which the recursive substitution
    can then chain through.  Facts never change, so bound answers are
    memoized per instance.
    """

    def __init__(self) -> None:
        self._lo: dict[str, tuple[Affine, ...]] = {}
        self._hi: dict[str, tuple[Affine, ...]] = {}
        self._bounds: dict[tuple[Affine, bool], Optional[Rat]] = {}
        self._key: Optional[tuple] = None

    # ---- building the context -------------------------------------------
    def _coerce(self, e) -> Optional[Affine]:
        if isinstance(e, Affine):
            return e
        if isinstance(e, (int, Fraction)):
            return Affine.constant(e)
        if isinstance(e, str):
            return Affine.variable(e)
        if isinstance(e, Expr):
            return to_affine(e)
        return None

    def assume_ge(self, left, right) -> "Assumptions":
        """This context plus the fact ``left >= right``."""
        l, r = self._coerce(left), self._coerce(right)
        if l is None or r is None:
            return self  # non-affine facts are simply unusable, not errors
        return self._with_fact(l - r)

    def assume_le(self, left, right) -> "Assumptions":
        """This context plus the fact ``left <= right``."""
        return self.assume_ge(right, left)

    def assume_range(self, var: str, lo=None, hi=None) -> "Assumptions":
        """This context plus ``lo <= var <= hi`` (either side optional)."""
        ctx = self
        if lo is not None:
            ctx = ctx.assume_ge(var, lo)
        if hi is not None:
            ctx = ctx.assume_le(var, hi)
        return ctx

    def _with_fact(self, aff: Affine) -> "Assumptions":
        """This context plus ``aff >= 0``, stored as a bound on each
        variable it mentions; ``self`` when no bound is new."""
        lo, hi = dict(self._lo), dict(self._hi)
        for name, coeff in aff.coeffs:
            rest = aff - Affine(((name, coeff),), 0)
            if coeff > 0:
                side, bound = lo, rest * Fraction(-1, coeff)  # name >= -rest / coeff
            else:
                side, bound = hi, rest * Fraction(1, -coeff)  # name <= rest / (-coeff)
            have = side.get(name, ())
            if bound not in have:
                side[name] = have + (bound,)
        if lo == self._lo and hi == self._hi:
            return self
        out = Assumptions()
        out._lo, out._hi = lo, hi
        return out

    def facts_key(self) -> tuple:
        """Hashable canonical key of the stored facts.

        Two contexts with the same provable facts (same bound sets, in any
        insertion order) produce equal keys, so analysis results computed
        under one context can be reused under a structurally equal one
        (:mod:`repro.pipeline.cache`).  Values are rendered as
        ``Fraction`` so the key (and every store digest derived from it)
        does not depend on :class:`Affine`'s internal number types.
        """
        def side(bounds: dict[str, tuple[Affine, ...]]) -> tuple:
            return tuple(
                (name, tuple(sorted(
                    (tuple((n, Fraction(c)) for n, c in b.coeffs), Fraction(b.const))
                    for b in bs
                )))
                for name, bs in sorted(bounds.items())
            )

        if self._key is None:
            self._key = (side(self._lo), side(self._hi))
        return self._key

    # ---- decisions --------------------------------------------------------
    def _const_bounds(self, aff: Affine, want_upper: bool, depth: int, seen: frozenset[str]) -> list[Rat]:
        """Constant candidates bounding ``aff`` from above (or below)."""
        if aff.is_constant:
            return [aff.const]
        if depth <= 0:
            return []
        # Pick the first variable and substitute each applicable bound.
        name, coeff = aff.coeffs[0]
        if name in seen:
            return []
        want_var_upper = (coeff > 0) == want_upper
        candidates = (self._hi if want_var_upper else self._lo).get(name, [])
        out: list[Rat] = []
        rest = aff - Affine(((name, coeff),), 0)
        for bound in candidates:
            substituted = rest + bound * coeff
            out.extend(
                self._const_bounds(substituted, want_upper, depth - 1, seen | {name})
            )
        return out

    def _bound(self, e, upper: bool) -> Optional[Rat]:
        aff = self._coerce(e)
        if aff is None:
            return None
        if aff.is_constant:
            return aff.const
        if not self._lo and not self._hi:
            return None  # only constants are bounded; shared empty contexts grow no memo
        key = (aff, upper)
        if key not in self._bounds:
            vals = self._const_bounds(aff, upper, _MAX_DEPTH, frozenset())
            self._bounds[key] = (min(vals) if upper else max(vals)) if vals else None
        return self._bounds[key]

    def lower_bound(self, e) -> Optional[Rat]:
        """Best provable constant lower bound, or None."""
        return self._bound(e, upper=False)

    def upper_bound(self, e) -> Optional[Rat]:
        """Best provable constant upper bound, or None."""
        return self._bound(e, upper=True)

    def is_nonneg(self, e) -> Optional[bool]:
        """True if provably >= 0, False if provably < 0, else None."""
        lb = self.lower_bound(e)
        if lb is not None and lb >= 0:
            return True
        ub = self.upper_bound(e)
        if ub is not None and ub < 0:
            return False
        return None

    def is_pos(self, e) -> Optional[bool]:
        lb = self.lower_bound(e)
        if lb is not None and lb > 0:
            return True
        ub = self.upper_bound(e)
        if ub is not None and ub <= 0:
            return False
        return None

    def is_zero(self, e) -> Optional[bool]:
        aff = self._coerce(e)
        if aff is None:
            return None
        if aff.is_constant:
            return aff.const == 0
        lb, ub = self.lower_bound(aff), self.upper_bound(aff)
        if lb is not None and ub is not None and lb == ub == 0:
            return True
        if (lb is not None and lb > 0) or (ub is not None and ub < 0):
            return False
        return None

    def compare(self, left, right) -> Optional[str]:
        """Relate two affine quantities: one of '<', '<=', '==', '>=', '>',
        or None when undecidable.  The strongest provable relation wins."""
        l, r = self._coerce(left), self._coerce(right)
        if l is None or r is None:
            return None
        d = l - r
        if d.is_constant:
            if d.const == 0:
                return "=="
            return "<" if d.const < 0 else ">"
        lb, ub = self.lower_bound(d), self.upper_bound(d)
        if lb is not None and lb > 0:
            return ">"
        if lb is not None and lb >= 0:
            return ">="
        if ub is not None and ub < 0:
            return "<"
        if ub is not None and ub <= 0:
            return "<="
        return None

    def implies_le(self, left, right) -> bool:
        """Convenience: is ``left <= right`` provable?"""
        rel = self.compare(left, right)
        return rel in ("<", "<=", "==")

    def implies_lt(self, left, right) -> bool:
        return self.compare(left, right) == "<"

    # ---- common contexts ---------------------------------------------------
    @staticmethod
    def for_loop_nest(bounds: Iterable[tuple[str, object, object]]) -> "Assumptions":
        """Context asserting ``lo <= var <= hi`` for each (var, lo, hi);
        non-affine bounds are skipped."""
        ctx = Assumptions()
        for var, lo, hi in bounds:
            ctx = ctx.assume_range(var, lo, hi)
        return ctx
