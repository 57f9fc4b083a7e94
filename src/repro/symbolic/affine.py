"""Canonical affine (linear) forms with exact rational coefficients.

An :class:`Affine` is ``const + sum(coeffs[v] * v)``.  Conversion from IR
expressions (:func:`to_affine`) succeeds exactly when the expression is
affine in its variables: sums, differences, products with a constant side,
and integer division by a constant that exactly divides every coefficient.
Everything the dependence tests, section algebra, and triangular-interchange
bound formulas consume goes through this form, so "is this subscript
analyzable" has one definition across the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from repro.ir.expr import (
    BinOp,
    Const,
    Expr,
    IntDiv,
    Var,
    add as e_add,
    mul as e_mul,
    sub as e_sub,
)

Rat = Union[int, Fraction]


def _q(x) -> Rat:
    """Canonical rational: an ``int``, or a ``Fraction`` with denominator > 1."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Affine:
    """Immutable affine form: ``const + Σ coeffs[v]·v``.

    ``coeffs`` never stores zero coefficients; equality is exact.  Values
    are canonical (:func:`_q`), so integer forms never pay for ``Fraction``.
    """

    coeffs: tuple[tuple[str, Rat], ...]
    const: Rat

    # ---- construction ---------------------------------------------------
    @staticmethod
    def make(coeffs: Mapping[str, Rat] | None = None, const: Rat = 0) -> "Affine":
        items = []
        if coeffs:
            for name in sorted(coeffs):
                c = _q(coeffs[name])
                if c != 0:
                    items.append((name, c))
        return Affine(tuple(items), _q(const))

    @staticmethod
    def constant(value: Rat) -> "Affine":
        return Affine((), _q(value))

    @staticmethod
    def variable(name: str) -> "Affine":
        return Affine(((name, 1),), 0)

    # ---- inspection ------------------------------------------------------
    def coeff(self, name: str) -> Rat:
        for n, c in self.coeffs:
            if n == name:
                return c
        return 0

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def constant_value(self) -> Optional[Rat]:
        return self.const if self.is_constant else None

    def is_integral(self) -> bool:
        """True when all coefficients and the constant are integers."""
        return type(self.const) is int and all(type(c) is int for _, c in self.coeffs)

    # ---- arithmetic ------------------------------------------------------
    def __add__(self, other: "Affine | Rat") -> "Affine":
        if not isinstance(other, Affine):
            return Affine(self.coeffs, _q(self.const + other))
        if not other.coeffs:
            return Affine(self.coeffs, _q(self.const + other.const))
        d = dict(self.coeffs)
        for n, c in other.coeffs:
            d[n] = _q(d.get(n, 0) + c)
        items = tuple((n, d[n]) for n in sorted(d) if d[n] != 0)
        return Affine(items, _q(self.const + other.const))

    def __radd__(self, other: Rat) -> "Affine":
        return self + other

    def __sub__(self, other: "Affine | Rat") -> "Affine":
        if not isinstance(other, Affine):
            return Affine(self.coeffs, _q(self.const - other))
        return self + (other * -1)

    def __rsub__(self, other: Rat) -> "Affine":
        return (self * -1) + other

    def __mul__(self, k: Rat) -> "Affine":
        k = _q(k)
        if k == 1:
            return self
        if k == 0:
            return Affine((), 0)
        return Affine(tuple((n, _q(c * k)) for n, c in self.coeffs), _q(self.const * k))

    def __rmul__(self, k: Rat) -> "Affine":
        return self * k

    def __neg__(self) -> "Affine":
        return self * -1

    def substitute(self, mapping: Mapping[str, "Affine"]) -> "Affine":
        """Replace variables by affine forms."""
        out = Affine.constant(self.const)
        for n, c in self.coeffs:
            if n in mapping:
                out = out + mapping[n] * c
            else:
                out = out + Affine(((n, c),), 0)
        return out

    def eval(self, env: Mapping[str, Rat]) -> Rat:
        """Evaluate with every variable bound (KeyError otherwise)."""
        total = self.const
        for n, c in self.coeffs:
            total += c * _q(env[n])
        return _q(total)

    def __repr__(self) -> str:
        parts = []
        for n, c in self.coeffs:
            parts.append(f"{c}*{n}" if c != 1 else n)
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def to_affine(e: Expr) -> Optional[Affine]:
    """Convert an IR expression to affine form; None when not affine.

    Float literals are rejected — affine reasoning is for subscripts and
    bounds, which are integral.  ``IntDiv`` converts only when the divisor
    is a constant that exactly divides every coefficient and the constant
    term (so truncation provably does nothing); otherwise None, keeping the
    analysis conservative.
    """
    if isinstance(e, Const):
        if isinstance(e.value, float):
            return None
        return Affine.constant(e.value)
    if isinstance(e, Var):
        return Affine.variable(e.name)
    if isinstance(e, BinOp):
        if e.op == "+":
            l, r = to_affine(e.left), to_affine(e.right)
            return None if l is None or r is None else l + r
        if e.op == "-":
            l, r = to_affine(e.left), to_affine(e.right)
            return None if l is None or r is None else l - r
        if e.op == "*":
            l, r = to_affine(e.left), to_affine(e.right)
            if l is None or r is None:
                return None
            lc, rc = l.constant_value(), r.constant_value()
            if lc is not None:
                return r * lc
            if rc is not None:
                return l * rc
            return None
        return None
    if isinstance(e, IntDiv):
        l, r = to_affine(e.left), to_affine(e.right)
        if l is None or r is None:
            return None
        rc = r.constant_value()
        if rc is None or rc == 0 or type(rc) is not int:
            return None
        q = l * Fraction(1, rc)
        return q if q.is_integral() else None
    return None


def from_affine(a: Affine) -> Expr:
    """Rebuild a tidy IR expression from an affine form.

    Requires integral coefficients (loop bounds and subscripts are
    integers); raises ValueError otherwise.
    """
    if not a.is_integral():
        raise ValueError(f"cannot render non-integral affine form {a!r}")
    terms: list[Expr] = []
    for n, c in a.coeffs:
        terms.append(Var(n) if c == 1 else e_mul(Const(c), Var(n)))
    if not terms:
        return Const(a.const)
    out = terms[0]
    for t in terms[1:]:
        out = e_add(out, t)
    if a.const > 0:
        out = e_add(out, Const(a.const))
    elif a.const < 0:
        out = e_sub(out, Const(-a.const))
    return out


def affine_equal(e1: Expr, e2: Expr) -> Optional[bool]:
    """Structurally-independent equality: True/False when both convert to
    affine form, None when either is not affine."""
    a1, a2 = to_affine(e1), to_affine(e2)
    if a1 is None or a2 is None:
        return None
    return a1 == a2


def affine_diff(e1: Expr, e2: Expr) -> Optional[Affine]:
    """``e1 - e2`` as an affine form, or None."""
    a1, a2 = to_affine(e1), to_affine(e2)
    if a1 is None or a2 is None:
        return None
    return a1 - a2
