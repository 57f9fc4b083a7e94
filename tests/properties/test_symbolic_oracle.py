"""Properties: the symbolic layer against exact small-system reasoning.

*Decisions.*  Random facts ``aff >= 0`` over at most three variables form
an :class:`Assumptions` context.  Every integer point of the box
``[-4, 4]^k`` that satisfies the facts is enumerated; every non-``None``
answer of ``compare``, ``lower_bound``, ``upper_bound``, ``is_nonneg``
and ``is_zero`` must hold at each of them.  (The engine may say "unknown"
as often as it likes; it may never be wrong.)  A draw whose facts no box
point satisfies is vacuous and rejected.

*Arithmetic.*  :class:`Affine` keeps integral values as ``int`` and uses
``Fraction`` only for real denominators.  Its ``+``, ``-``, ``*`` by a
rational, ``substitute`` and ``eval`` must agree with a pure-``Fraction``
reference implemented here, and every stored value must be canonical.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from repro.symbolic.affine import Affine
from repro.symbolic.assume import Assumptions

NAMES = ("X", "Y", "Z")
BOX = range(-4, 5)

# ---------------------------------------------------------------------------
# decisions vs brute-force enumeration
# ---------------------------------------------------------------------------


def int_form(k: int, coeff: int, const: int):
    """(coefficients over the first k names, constant) with small ints."""
    return st.tuples(
        st.tuples(*[st.integers(-coeff, coeff)] * k),
        st.integers(-const, const),
    )


def as_affine(form) -> Affine:
    coeffs, const = form
    return Affine.make(dict(zip(NAMES, coeffs)), const)


def value(form, point) -> int:
    coeffs, const = form
    return const + sum(c * x for c, x in zip(coeffs, point))


@st.composite
def systems(draw):
    k = draw(st.integers(1, 3))
    facts = draw(st.lists(int_form(k, 2, 4), min_size=1, max_size=4))
    query = draw(int_form(k, 3, 5))
    other = draw(int_form(k, 3, 5))
    return k, facts, query, other


HOLDS = {
    "<": lambda d: d < 0,
    "<=": lambda d: d <= 0,
    "==": lambda d: d == 0,
    ">=": lambda d: d >= 0,
    ">": lambda d: d > 0,
}


@settings(max_examples=200, deadline=None)
@given(systems())
def test_every_decision_holds_at_every_satisfying_point(system):
    k, facts, query, other = system
    points = [p for p in itertools.product(BOX, repeat=k)
              if all(value(f, p) >= 0 for f in facts)]
    assume(points)  # facts unsatisfiable in the box: vacuous draw

    ctx = Assumptions()
    for f in facts:
        ctx = ctx.assume_ge(as_affine(f), 0)
    q, o = as_affine(query), as_affine(other)
    qs = [value(query, p) for p in points]
    diffs = [a - value(other, p) for a, p in zip(qs, points)]

    lb, ub = ctx.lower_bound(q), ctx.upper_bound(q)
    if lb is not None:
        assert min(qs) >= lb
    if ub is not None:
        assert max(qs) <= ub
    nonneg = ctx.is_nonneg(q)
    if nonneg is not None:
        assert all((v >= 0) == nonneg for v in qs)
    zero = ctx.is_zero(q)
    if zero is not None:
        assert all((v == 0) == zero for v in qs)
    rel = ctx.compare(q, o)
    if rel is not None:
        assert all(HOLDS[rel](d) for d in diffs), rel
    # the memo answers a repeated query exactly as the first time
    assert (ctx.lower_bound(q), ctx.upper_bound(q)) == (lb, ub)


# ---------------------------------------------------------------------------
# integer-first arithmetic vs a pure-Fraction reference
# ---------------------------------------------------------------------------

rationals = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
forms = st.tuples(st.dictionaries(st.sampled_from(NAMES), rationals, max_size=3), rationals)


def ref_make(coeffs, const):
    """Reference form: ({name: nonzero Fraction}, Fraction)."""
    return ({n: Fraction(c) for n, c in coeffs.items() if c != 0}, Fraction(const))


def ref_add(a, b):
    out = dict(a[0])
    for n, c in b[0].items():
        out[n] = out.get(n, Fraction(0)) + c
    return ref_make(out, a[1] + b[1])


def ref_mul(a, k):
    return ref_make({n: c * k for n, c in a[0].items()}, a[1] * k)


def ref_substitute(a, mapping):
    out = ref_make({}, a[1])
    for n, c in a[0].items():
        out = ref_add(out, ref_mul(mapping[n], c) if n in mapping else ref_make({n: c}, 0))
    return out


def ref_eval(a, env):
    return a[1] + sum(c * Fraction(env[n]) for n, c in a[0].items())


def canonical(v) -> bool:
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def agrees(aff: Affine, ref) -> bool:
    values = [c for _, c in aff.coeffs] + [aff.const]
    return (all(canonical(v) for v in values)
            and dict(aff.coeffs) == ref[0] and aff.const == ref[1])


@settings(max_examples=200, deadline=None)
@given(forms, forms, rationals, st.dictionaries(st.sampled_from(NAMES), forms, max_size=2),
       st.fixed_dictionaries({n: rationals for n in NAMES}))
def test_integer_first_arithmetic_matches_fraction_reference(fa, fb, k, subst, env):
    a, b = Affine.make(*fa), Affine.make(*fb)
    ra, rb = ref_make(*fa), ref_make(*fb)
    assert agrees(a, ra) and agrees(b, rb)
    assert agrees(a + b, ref_add(ra, rb))
    assert agrees(a - b, ref_add(ra, ref_mul(rb, -1)))
    assert agrees(a * k, ref_mul(ra, Fraction(k)))
    assert agrees(-a, ref_mul(ra, -1))
    assert agrees(a + k, ref_add(ra, ref_make({}, k)))
    mapping = {n: Affine.make(*f) for n, f in subst.items()}
    ref_mapping = {n: ref_make(*f) for n, f in subst.items()}
    assert agrees(a.substitute(mapping), ref_substitute(ra, ref_mapping))
    got = a.eval(env)
    assert canonical(got) and got == ref_eval(ra, env)
    # hashing and equality are those of the exact rationals
    assert hash(a * 1) == hash(Affine.make(*fa)) and a * 1 == a
