"""The character front-end of the integral-Weyl-group core: integral
coroots, the Coxeter subgroup, the stabilizer, blocks and their minimal
representatives at a character point.

A character point chi = (c, chi_f) selects the affine coroots alpha_n with
chi_f(alpha) + n Q(alpha) c in Z, those of the level c S at theta = chi_f, so
integral_simple_system wraps the one builder, duality.integral_system, at
the level c~ S, c~ in (0, 1] the representative of c (at c = 0 the rows S lam
are integral like 0 lam), and theta = chi_f.  The geometry stays S: the walls
and base point are the same, and its q(alpha) are ints where a level's are
Fractions.  Omega_chi is affine.length_zero_group of the system.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from weylkit.affine import (
    AffineCoroot,
    CharacterPoint,
    ExtendedWeylElement,
    GramForm,
    IntegralSystem,
    _descend,
    act_affine_coroot,
    affine_coroot_reflection,
    below_wall,
    extended_act_character,
    progression_contains,
    slice_act_inverse,
)
from weylkit.duality import Level, integral_system, level_progressions
from weylkit.rootdata import RootDatum

__all__ = [
    "CharacterMismatch",
    "NotInStabilizerOrbit",
    "IntegralSystem",
    "integral_simple_system",
    "is_minimal",
    "minimal_rep",
    "omega_compose",
    "conjugate_to_simple",
]


class CharacterMismatch(ValueError):
    pass


class NotInStabilizerOrbit(ValueError):
    pass


def _character_level(form: GramForm, chi: CharacterPoint):
    """The level c~ S and theta = chi_f of chi, c~ in (0, 1]."""
    c = chi.central.as_fraction() or Fraction(1)
    return Level(tuple(tuple(c * x for x in row) for row in form.matrix)), tuple(f.as_fraction() for f in chi.finite)


@lru_cache(maxsize=None)
def _progressions_cached(rd: RootDatum, form: GramForm, chi: CharacterPoint):
    return tuple(level_progressions(rd, *_character_level(form, chi)).items())


@lru_cache(maxsize=None)
def integral_simple_system(rd: RootDatum, form: GramForm, chi: CharacterPoint) -> IntegralSystem:
    return integral_system(rd, form, *_character_level(form, chi))


def is_minimal(system: IntegralSystem, g: ExtendedWeylElement) -> bool:
    """Whether g is the minimal element of g W: g^{-1} x0 is below no simple
    wall of system, so no simple is a right descent of g."""
    p = slice_act_inverse(g, system.form, system.base_point)
    return not any(below_wall(system.form, ac, p) for ac in system.simples)


# ---------------------------------------------------------------------------
# minimal (length-zero) representatives and block machinery


def minimal_rep(
    rd: RootDatum, form: GramForm, chi_right: CharacterPoint, x: ExtendedWeylElement
) -> ExtendedWeylElement:
    """Minimal element of the block of x: x = m r_1 ... r_k (_descend) in the
    integral system of chi_right, with m the unique length-zero element of
    x W_chi.  m is checked to be minimal, read off m itself, and to keep the
    left character of x."""
    chi_left = extended_act_character(x, form, chi_right)
    system = integral_simple_system(rd, form, chi_right)
    m, _ = _descend(rd, system, x)
    if not is_minimal(system, m):
        raise NotInStabilizerOrbit(f"walk from {x} ended at {m}, which is not minimal")
    if extended_act_character(m, form, chi_right) != chi_left:
        raise CharacterMismatch(f"walk from {x} changed the left character {chi_left}")
    return m


def omega_compose(
    rd: RootDatum,
    form: GramForm,
    a: ExtendedWeylElement,
    chi_mid: CharacterPoint,
    b: ExtendedWeylElement,
    chi_right: CharacterPoint,
) -> ExtendedWeylElement:
    """Product of minimal elements; the result is again minimal (l:minmult)."""
    if (left := extended_act_character(b, form, chi_right)) != chi_mid:
        raise CharacterMismatch(f"left character {left} of {b} is not the middle character {chi_mid}")
    right = integral_simple_system(rd, form, chi_right)
    if not is_minimal(integral_simple_system(rd, form, chi_mid), a) or not is_minimal(right, b):
        raise NotInStabilizerOrbit(f"omega_compose expects minimal elements, not {a} and {b}")
    out = a * b
    if not is_minimal(right, out):
        raise NotInStabilizerOrbit(f"product of the minimal elements {a} and {b} is not minimal")
    return out


def conjugate_to_simple(
    rd: RootDatum, form: GramForm, chi: CharacterPoint, r: AffineCoroot
) -> ExtendedWeylElement:
    """Minimal u with u r u^{-1} simple in the ambient affine system and in
    the integral system of u chi, by a descent on the reflection t of r: an
    ambient simple s is a left descent of t iff t x0 is below its wall.
    When the first such wall (in the ambient order) is t's own, t is simple
    (Dyer); otherwise s != t, so s t s is a reflection of length l(t) - 2,
    and s conjugates r, u and chi."""
    ambient = integral_simple_system(rd, form, CharacterPoint.trivial(rd.rank))
    u = ExtendedWeylElement.unit(rd.rank)
    cur = r
    cur_chi = chi
    while True:
        t = affine_coroot_reflection(rd, cur)
        tx0 = slice_act_inverse(t, form, ambient.base_point)  # t is its own inverse
        # a reflection has length >= 1, so some wall of the alcove of x0 separates
        s = next(s for s in ambient.simples if below_wall(form, s, tx0))
        s_refl = affine_coroot_reflection(rd, s)
        if s_refl == t:
            break
        # the conjugating ambient simple cannot be integral, else r would
        # not have been simple in the integral system
        if progression_contains(dict(_progressions_cached(rd, form, cur_chi))[s.coroot], s.n):
            raise NotInStabilizerOrbit(f"descent from {r} crosses the integral wall {s}; {r} is not simple")
        u = s_refl * u
        cur = act_affine_coroot(s_refl, rd, form, cur)
        cur_chi = extended_act_character(s_refl, form, cur_chi)
    if not is_minimal(integral_simple_system(rd, form, chi), u):
        raise NotInStabilizerOrbit(f"conjugator {u} of {r} is not minimal")
    if u * affine_coroot_reflection(rd, r) * u.inverse() != t:
        raise NotInStabilizerOrbit(f"conjugator {u} does not send the reflection of {r} to that of {cur}")
    if cur not in integral_simple_system(rd, form, cur_chi).simples:
        raise NotInStabilizerOrbit(f"conjugate {cur} of {r} is not simple in the new integral system")
    return u
