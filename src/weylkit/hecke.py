"""Decategorified monodromic Hecke algebroid on the standard basis T_w.

Elements are finitely supported Z[v, 1/v]-combinations of group elements
lying in a fixed character bimodule {chi} W~ {chi'}.  The normalization is

    T_r^2 = (1/v - v) T_r + T_e,      b_r = T_r + v,

so Bott-Samelson coefficients have nonnegative integer coefficients and the
ungraded statements are recovered at v = 1.  Products with mismatched middle
characters are zero.  Group-element equality is matrix equality, so the word
problem is exact.  Descents are the sign of one wall at one point
(affine.below_wall), never length counts, and the T_m of a minimal m is
clean: it shifts the support.  t_multiply writes each support term y once as
y = m r_1 ... r_k with m minimal, by the one walk over the simple walls
(affine._descend, on affine.descend), so T_y = T_m T_{r_1} ... T_{r_k}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from weylkit.affine import (
    AffineCoroot,
    CharacterPoint,
    ExtendedWeylElement,
    GramForm,
    IntegralSystem,
    _descend,
    affine_coroot_reflection,
    below_wall,
    extended_act_character,
    slice_act_inverse,
)
from weylkit.duality import VerificationFailed
from weylkit.integral import CharacterMismatch, integral_simple_system, is_minimal
from weylkit.rootdata import RootDatum


# ---------------------------------------------------------------------------
# Laurent polynomials in v


class LaurentPoly:
    """Finitely supported integer Laurent polynomial; zero coefficients are
    never stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[int, int]] = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def v(exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: Dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def at_one(self) -> int:
        return sum(self.coeffs.values())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else str(c)
                bits.append(f"{head}v^{e}" if e != 1 else f"{head}v")
        return "+".join(bits).replace("+-", "-")


V = LaurentPoly.v()
V_INV = LaurentPoly.v(-1)
ONE = LaurentPoly.one()


# ---------------------------------------------------------------------------
# Hecke elements


@dataclass
class HeckeElement:
    left_char: CharacterPoint
    right_char: CharacterPoint
    support: Dict[ExtendedWeylElement, LaurentPoly]

    def __post_init__(self):
        self.support = {g: c for g, c in self.support.items() if not c.is_zero()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.left_char == other.left_char
            and self.right_char == other.right_char
            and self.support == other.support
        )

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if (self.left_char, self.right_char) != (other.left_char, other.right_char):
            raise CharacterMismatch(f"cannot add elements of characters {self.left_char, self.right_char} and {other.left_char, other.right_char}")
        out = dict(self.support)
        for g, c in other.support.items():
            out[g] = out.get(g, LaurentPoly.zero()) + c
        return HeckeElement(self.left_char, self.right_char, out)

    def scale(self, p: LaurentPoly) -> "HeckeElement":
        return HeckeElement(self.left_char, self.right_char, {g: c * p for g, c in self.support.items()})


def t_element(
    rd: RootDatum, form: GramForm, chi_right: CharacterPoint, g: ExtendedWeylElement
) -> HeckeElement:
    left = extended_act_character(g, form, chi_right)
    return HeckeElement(left, chi_right, {g: LaurentPoly.one()})


def unit_element(rd: RootDatum, chi: CharacterPoint) -> HeckeElement:
    return HeckeElement(chi, chi, {ExtendedWeylElement.unit(rd.rank): LaurentPoly.one()})


def zero_element(chi_left: CharacterPoint, chi_right: CharacterPoint) -> HeckeElement:
    return HeckeElement(chi_left, chi_right, {})


# ---------------------------------------------------------------------------
# multiplication


def _mult_by_simple(rd: RootDatum, system: IntegralSystem, elt: HeckeElement, ac: AffineCoroot) -> HeckeElement:
    """Right multiplication by T_r, r the reflection of a simple wall ac of
    system: l(g r) < l(g) iff g^{-1} x0 is below the wall of ac."""
    r = affine_coroot_reflection(rd, ac)
    form, x0 = system.form, system.base_point
    out: Dict[ExtendedWeylElement, LaurentPoly] = {}
    vdiff = V_INV - V
    for g, c in elt.support.items():
        gr = g * r
        out[gr] = out.get(gr, LaurentPoly.zero()) + c
        if below_wall(form, ac, slice_act_inverse(g, form, x0)):
            out[g] = out.get(g, LaurentPoly.zero()) + c * vdiff
    return HeckeElement(elt.left_char, elt.right_char, out)


def _times_minimal(elt: HeckeElement, m: ExtendedWeylElement, right_char: CharacterPoint) -> HeckeElement:
    """Right multiplication by the clean T_m of a minimal m: a support shift."""
    return HeckeElement(elt.left_char, right_char, {g * m: p for g, p in elt.support.items()})


def t_multiply(rd: RootDatum, form: GramForm, a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Bilinear product; mismatched middle characters give the zero element.
    A support term y = m r_1 ... r_k of b (_descend) gives T_m T_{r_1} ... T_{r_k}."""
    out = zero_element(a.left_char, b.right_char)
    if a.right_char != b.left_char:
        return out
    system = integral_simple_system(rd, form, b.right_char)
    for y, c in b.support.items():
        m, word = _descend(rd, system, y)
        elt = _times_minimal(a.scale(c), m, b.right_char)
        for ac in word:
            elt = _mult_by_simple(rd, system, elt, ac)
        out = out + elt
    return out


# ---------------------------------------------------------------------------
# Bott-Samelson words


def bott_samelson_product(rd: RootDatum, form: GramForm, chi: CharacterPoint, word: Sequence):
    """Expand a word of simple reflections and minimal elements in the
    T-basis; returns (element, multiplicity table keyed by group element).

    Tokens are ("r", reflection) with the reflection simple for the current
    right character, or ("omega", minimal element).  An "r" letter is
    elt b_r = elt T_r + v elt; an "omega" letter shifts the support.
    """
    elt = unit_element(rd, chi)
    cur = chi
    for kind, g in word:
        if kind == "r":
            system = integral_simple_system(rd, form, cur)
            ac = dict(zip(system.simple_reflections(rd), system.simples)).get(g)
            if ac is None:
                raise CharacterMismatch("reflection is not simple for the running character")
            elt = _mult_by_simple(rd, system, elt, ac) + elt.scale(V)
        elif kind == "omega":
            nxt = extended_act_character(g.inverse(), form, cur)
            if not is_minimal(integral_simple_system(rd, form, nxt), g):
                raise CharacterMismatch("omega token is not a minimal element")
            elt = _times_minimal(elt, g, nxt)
            cur = nxt
        else:
            raise ValueError(f"unknown token kind {kind!r}")
    table = {g: c for g, c in elt.support.items()}
    for g, c in table.items():
        if not c.nonnegative():
            raise VerificationFailed(f"Bott-Samelson multiplicity {c} of {g} is negative")
    return elt, table


# ---------------------------------------------------------------------------
# relation checking


def check_relations(rd: RootDatum, form: GramForm, chi: CharacterPoint, omegas: Sequence[ExtendedWeylElement] = ()) -> dict:
    """Verify quadratic, braid (every finite order, 2, 3, 4 or 6 here) and
    omega-conjugation relations on the integral system of chi; a report."""
    system = integral_simple_system(rd, form, chi)
    refl = system.simple_reflections(rd)
    failures = []
    unit = unit_element(rd, chi)
    vdiff = V_INV - V
    for r in refl:
        tr = t_element(rd, form, chi, r)
        lhs = t_multiply(rd, form, tr, tr)
        rhs = tr.scale(vdiff) + unit
        if lhs != rhs:
            failures.append(("quadratic", r))
    skipped_infinite = []
    for i in range(len(refl)):
        for j in range(i + 1, len(refl)):
            m = system.coxeter[i][j]
            if m == "infinite":
                skipped_infinite.append((i, j))
                continue
            lhs = unit
            rhs = unit
            for k in range(m):
                lhs = t_multiply(rd, form, lhs, t_element(rd, form, chi, refl[i] if k % 2 == 0 else refl[j]))
                rhs = t_multiply(rd, form, rhs, t_element(rd, form, chi, refl[j] if k % 2 == 0 else refl[i]))
            if lhs != rhs:
                failures.append(("braid", (i, j, m)))
    for om in omegas:
        t_om = t_element(rd, form, chi, om)
        t_om_inv = t_element(rd, form, chi, om.inverse())
        for r in refl:
            conj = om * r * om.inverse()
            if conj not in set(refl):
                failures.append(("omega does not normalize S", (om, r)))
                continue
            lhs = t_multiply(rd, form, t_multiply(rd, form, t_om, t_element(rd, form, chi, r)), t_om_inv)
            rhs = t_element(rd, form, chi, conj)
            if lhs != rhs:
                failures.append(("omega conjugation", (om, r)))
    return {
        "failures": failures,
        "infinite_pairs": skipped_infinite,
        "ok": not failures,
    }
