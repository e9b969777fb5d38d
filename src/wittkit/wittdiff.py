"""Witt differential operators: lifted divided powers restricted through w-tilde.

An operator here is a divided-power differential operator over Z/p^L acting on
(Z/p^L)[z...]; its restriction to W_L(A) is computed by conjugation with the
injection w-tilde, i.e. as wtilde^-1 o lift o wtilde.  The section-3 relations
with R, Phi and V are checked sample-wise and exactly.
"""

from __future__ import annotations

from .rings import LaurentElem, ScaleExceeded, VariableMismatch
from .weyl import WeylElement, apply as weyl_apply
from .witt import (
    _MAX_RELATION_WORK,
    NotInImage,
    WittVector,
    _relation_work,
    restrict,
    tilde_w,
    tilde_w_inverse,
    verschiebung,
    witt_phi,
    witt_scalar_mul,
)


def lift_operator(base, length):
    """The WeylElement over Z/p^L, L = length >= n, realized on
    A_L = (Z/p^L)[z...], that lifts an operator over Z/p^n coefficientwise:
    its residues are their own integer lifts."""
    if base.n > length:
        raise ValueError("cannot lift from n = %d to length %d"
                         % (base.n, length))
    return WeylElement._trusted(base.p, length, base.num_vars, base.terms,
                                base.allowed_negative)


def partial_op(p, num_vars, j, r, length):
    """The canonical lift of d_j^[r] over Z/p^length."""
    rr = [0] * num_vars
    rr[j] = r
    base = WeylElement.monomial(p, 1, num_vars, (0,) * num_vars, rr)
    return lift_operator(base, length)


def i_star(op):
    """Reduce a Witt differential operator back to characteristic p.

    Inverts the Teichmuller-lift presentation: the realized coefficient of
    d^[r] is the p^(L-1)-th power of a coefficient lift, so reducing mod p
    and extracting p^(L-1)-th roots of the exponents recovers the char-p
    coefficients.  For Teichmuller lifts this satisfies i_star([op]) = op.
    """
    p, L = op.p, op.n
    step = p ** (L - 1)
    by_order = {}
    for (e, r), c in op.terms.items():
        if c % p == 0:
            continue
        if any(v % step for v in e):
            raise NotInImage("coefficient is not a Teichmuller realization")
        root = tuple(v // step for v in e)
        key = (root, r)
        by_order[key] = (by_order.get(key, 0) + c) % p
    return WeylElement(p, 1, op.num_vars, by_order, op.allowed_negative)


def apply_witt(op, x):
    """Evaluate the restriction of op, a lift over Z/p^L, to W_L(A) by
    w-tilde conjugation; the restriction exists by the factorization
    theorem."""
    if x.n != op.n:
        raise ValueError("vector length disagrees with operator level")
    return tilde_w_inverse(weyl_apply(op, tilde_w(x)))


# ----------------------------------------------------------------------
# relation checks (restriction / Frobenius / Verschiebung / filtration)
# ----------------------------------------------------------------------

RELATIONS = ("restriction", "frobenius", "verschiebung", "filtration")


def check_relation(which, p, n, d, r, samples, rng, j=0):
    """Exact sample checks of the section-3 relations for d_j^[r].

    ``n`` follows the text's convention: operators live over Z/p^(n+1) and
    act on W_(n+1)(A).  d^[r/p] is the zero operator when p does not
    divide r.
    """
    if samples < 1:
        raise ValueError("need samples >= 1, got samples = %d" % samples)
    if not 0 <= j < d:
        raise ValueError("need 0 <= j < d, got j = %d, d = %d" % (j, d))
    if which not in RELATIONS:
        raise ValueError("unknown relation %r" % (which,))
    work = _relation_work(which, p, n, samples)
    if work > _MAX_RELATION_WORK:
        raise ScaleExceeded(
            "the %s relation at p = %d, n = %d with %d samples would take"
            " about %d term products, over the limit of %d"
            % (which, p, n, samples, work, _MAX_RELATION_WORK))
    L = n + 1
    op_hi = partial_op(p, d, j, r, L)
    op_lo = None  # the right-hand side's operator, where there is one
    if which == "restriction" and r % p == 0:
        op_lo = partial_op(p, d, j, r // p, L - 1)
    elif which == "frobenius" and r % p == 0:
        op_lo = partial_op(p, d, j, r // p, L)
    elif which == "verschiebung":
        op_lo = partial_op(p, d, j, r, L - 1)
    failures = []
    for _ in range(samples):
        if which == "restriction":
            x = random_witt_vector(p, L, d, rng)
            lhs = restrict(apply_witt(op_hi, x))
            if op_lo is None:
                rhs = witt_scalar_mul(0, restrict(x))
            else:
                rhs = apply_witt(op_lo, restrict(x))
            if lhs != rhs:
                failures.append(x.to_json())
        elif which == "frobenius":
            x = random_witt_vector(p, L, d, rng)
            lhs = apply_witt(op_hi, witt_phi(x))
            if op_lo is None:
                rhs = witt_scalar_mul(0, x)
            else:
                rhs = witt_phi(apply_witt(op_lo, x))
            if lhs != rhs:
                failures.append(x.to_json())
        elif which == "verschiebung":
            x = random_witt_vector(p, L - 1, d, rng)
            lhs = apply_witt(op_hi, verschiebung(x))
            rhs = verschiebung(apply_witt(op_lo, x))
            if lhs != rhs:
                failures.append(x.to_json())
        else:  # filtration
            i = rng.randrange(1, L)
            x = random_witt_vector(p, L, d, rng, first_zero=i)
            out = apply_witt(op_hi, x)
            if any(not out.coords[s].is_zero() for s in range(i)):
                failures.append(x.to_json())
    return {"relation": which, "p": p, "n": n, "d": d, "r": r,
            "cases": samples, "failures": failures}


def random_witt_vector(p, length, d, rng, first_zero=0, poly_only=False):
    """A sparse random Witt vector with small monomial Laurent coordinates:
    the ring is checked once, by building the zero coordinate."""
    if length < 1:
        raise VariableMismatch("need length >= 1, got %r" % (length,))
    neg = () if poly_only else tuple(range(d))
    zero = LaurentElem.zero(p, 1, d, neg)
    coords = []
    for idx in range(length):
        if idx < first_zero:
            coords.append(zero)
            continue
        terms = {}
        for _ in range(rng.randrange(0, 3)):
            e = tuple(
                rng.randrange(0, 4) if poly_only else rng.randrange(-2, 4)
                for _ in range(d)
            )
            terms[e] = rng.randrange(1, p)
        coords.append(zero._with(terms))
    return WittVector._trusted(p, length, coords)

