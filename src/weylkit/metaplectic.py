"""Metaplectic endoscopic group and dual from a central character order.

Given (root datum, weight form S, central value c), the endoscopic torus has
cocharacter lattice {lam : c S(lam, -) integral}, coroots are rescaled by the
minimal level N making each affine coroot integral, and roots are divided
correspondingly.  The bullet comparison realizes the conjugation by tau^mu
between the two integral affine Weyl groups inside the affine transformations
of the rational cocharacter space, where translations act tautologically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from weylkit.exact import (
    QmodZ,
    Vec,
    _over_common_denominator,
    dot,
    identity,
    lattice_basis_from_generators,
    mat_inv,
    mat_mul,
    mat_vec,
    solve_integer_affine,
    solve_linear,
    transpose,
    vec_scale,
    vec_sub,
)
from weylkit.affine import CharacterPoint, GramForm, progression_min_at_least
from weylkit.integral import integral_simple_system
from weylkit.rootdata import (
    RootDatum,
    _coroot_table,
    cartan_matrix,
    langlands_dual,
    validate_root_datum,
)


class ValidationFailed(RuntimeError):
    pass


class NoCommonFrame(ValueError):
    pass


@dataclass(frozen=True)
class EndoscopicData:
    cochar_basis: Tuple[Vec, ...]  # rows, in the source lattice coordinates
    rescale: Tuple[Tuple[Vec, int], ...]  # coroot -> N
    rd_h: RootDatum
    rd_h_dual: RootDatum


def endoscopic_lattice(rd: RootDatum, form: GramForm, c: QmodZ) -> Tuple[Vec, ...]:
    """Basis rows of {lam : c S(lam, mu) in Z for all mu}, the lam with
    c.num S lam = 0 (mod c.den): the right-hand side 0 solves to the
    particular 0, and the lattice holds c.den Z^n, so the basis has n rows."""
    n = rd.rank
    return solve_integer_affine([[c.num * x for x in row] for row in form.matrix], [0] * n, [c.den] * n).basis


def rescale_factor(rd: RootDatum, form: GramForm, c: QmodZ, coroot: Vec) -> int:
    """Minimal positive N with the affine coroot (alpha, N) central-integral:
    the levels n with n q(alpha) c in Z are the multiples of the denominator
    of q(alpha) c, so N is that denominator."""
    return c.den // math.gcd(form.q(coroot) * c.num, c.den)


def _indecomposable(positives) -> set:
    """The simple system of a set of positive (co)roots: those that are not
    the difference of two others in it."""
    pos = set(map(tuple, positives))
    return {a for a in pos if not any(tuple(x - y for x, y in zip(a, b)) in pos for b in pos if b != a)}


def endoscopic_root_datum(rd: RootDatum, form: GramForm, c: QmodZ) -> EndoscopicData:
    basis = endoscopic_lattice(rd, form, c)
    bt = transpose(basis)  # columns are the new basis vectors
    inv_num, e = _over_common_denominator(*mat_inv(bt))  # bt^{-1} = inv_num / e
    rescale = tuple((tuple(cv), rescale_factor(rd, form, c, cv)) for cv in rd.coroots)
    coroots_h, roots_h = [], []
    for (cv, nfac), a in zip(rescale, rd.roots):
        target = vec_scale(cv, nfac)
        new_cv = mat_vec(inv_num, target)
        if any(x % e for x in new_cv):
            raise ValidationFailed(f"rescaled coroot {target} is not in the endoscopic lattice")
        coroots_h.append(tuple(x // e for x in new_cv))
        new_rt = [dot(a, brow) for brow in basis]
        if any(x % nfac for x in new_rt):
            raise ValidationFailed(f"rescaled root for {cv} is not integral on the lattice")
        roots_h.append(tuple(x // nfac for x in new_rt))
    rd_h = RootDatum(
        rd.rank,
        tuple(roots_h),
        tuple(coroots_h),
        tuple(sorted(rd.simple_indices)),  # H's roots are positive multiples of G's: same chamber, same walls
        tuple(tuple(Fraction(x) for x in row) for row in mat_mul(rd.ambient_basis, bt)),
        name=f"H({rd.name},c={c})",
    )
    bad = validate_root_datum(rd_h)
    if bad:
        raise ValidationFailed(f"{rd_h.name} is not a root datum: " + "; ".join(bad))
    return EndoscopicData(basis, rescale, rd_h, langlands_dual(rd_h))


# ---------------------------------------------------------------------------
# bullet comparison inside Aff(X_{*,Q})
#
# Affine maps are (w, t) pairs acting tautologically: v |-> w(v) + t, with
# rational translations; ExtendedWeylElement's group law matches this action.


def bullet_weyl_compare(rd: RootDatum, form: GramForm, chi: CharacterPoint) -> dict:
    """Conjugate the bullet integral group by tau^mu and compare with the
    endoscopic side; also report whether bullet = full on each side.

    The level step of a simple integral direction alpha is its rescale N:
    both are the denominator of c~ q(alpha), as c - c~ and q(alpha) are
    integers.  mu is solved over Q in the span of the simple integral
    coroots: the integral directions are closed under their own reflections,
    so their positive indecomposables are a simple system, whose Cartan
    matrix is invertible."""
    n = rd.rank
    if len(chi.finite) != n:
        raise NoCommonFrame(f"character {chi} has {len(chi.finite)} finite values for the rank {n}")
    endo = endoscopic_root_datum(rd, form, chi.central)
    system = integral_simple_system(rd, form, chi)
    progs = dict(system.progressions)
    directions = tuple(cv for cv in rd.coroots if progs[cv] is not None)
    simples = tuple(sorted(_indecomposable(cv for cv in directions if rd.is_positive_coroot(cv))))

    # per simple integral direction: (alpha, i_alpha the minimal nonnegative
    # integral level)
    families = [(cv, progression_min_at_least(progs[cv], 0)) for cv in simples]

    # mu solved over Q in the span of the simple integral coroots
    coeffs = solve_linear(cartan_matrix(rd, simples), [-i0 for _, i0 in families])
    mu = tuple(sum((x * cv[i] for x, cv in zip(coeffs, simples)), Fraction(0)) for i in range(n))
    termwise = _termwise_conjugation(rd, mu, families)

    # lattice parts agree: stabilizer translations = endoscopic lattice
    lat_match = lattice_basis_from_generators(system.translation_lattice) == lattice_basis_from_generators(endo.cochar_basis)

    # direction matching: chi-integral directions = chi_f-integral directions of H
    # chi_f = f/d: N alpha is chi_f-integral iff N <f, alpha> = 0 (mod d)
    d = math.lcm(*(x.den for x in chi.finite))
    fn = [x.num * (d // x.den) for x in chi.finite]
    h_integral = {cv for cv, nfac in endo.rescale if nfac * dot(fn, cv) % d == 0}
    dir_match = set(map(tuple, directions)) == h_integral

    # bullet = full iff the integral reflections generate the admissible Weyl
    # parts, which contain and permute them; these parts are also the
    # stabilizer of chi_f in W(H)
    admissible = {w for w, _ in system.stabilizer}
    g_side_full = _reflections_generate(rd, admissible, directions)
    h_side_full = _h_reflection_criterion(rd, admissible)

    return {
        "endoscopic": endo,
        "mu": mu,
        "termwise_conjugation": termwise,
        "lattice_match": lat_match,
        "direction_match": dir_match,
        "g_bullet_is_full": g_side_full,
        "h_bullet_is_full": h_side_full,
        "verified": termwise and lat_match and dir_match,
    }


def _termwise_conjugation(rd: RootDatum, mu, families) -> bool:
    """tau g_j tau^{-1} = h_j for tau = t^mu and each family (alpha, i0),
    with g_j = t^{(i0 + j N) alpha} s_alpha and h_j = t^{j N alpha} s_alpha,
    N the step and rescale of alpha.  The left side is t^mu t^v s t^{-mu} =
    t^{v + mu - s(mu)} s for v = (i0 + j N) alpha and s = s_alpha, so both
    sides carry t^{j N alpha}, and the identity for every j is
    mu - s(mu) = -i0 alpha."""
    termwise = True
    for cv, i0 in families:
        shift = vec_sub(mu, mat_vec(rd.reflection(_coroot_table(rd).index[cv]), mu))  # mu - s(mu)
        termwise &= all(i0 * x + y == 0 for x, y in zip(cv, shift))
    return termwise


def _reflections_generate(rd: RootDatum, group, directions) -> bool:
    """Whether the reflections of the coroots D = directions generate the
    finite group, which contains them and permutes D: group = W_D x| Stab(D+)
    for D+ the positive members of D, as W_D acts simply transitively on the
    positive systems of D, so they generate it iff only e keeps D+ positive."""
    positive = [cv for cv in directions if rd.is_positive_coroot(cv)]
    ident = identity(rd.rank)
    return all(w == ident or not all(rd.is_positive_coroot(mat_vec(w, cv)) for cv in positive) for w in group)


def _h_reflection_criterion(rd: RootDatum, stabilizing) -> bool:
    """Remark criterion: the stabilizer of chi_f in W(H) is generated by the
    reflections it contains, whose coroots it permutes.  H's reflections are
    G's, so W(H) is W(G) on the lattice Lambda_H = {lam : c S(lam, -) in Z^n}
    of H, with G's positive system, and w stabilizes iff v = chi_f o w^{-1} -
    chi_f is integral on Lambda_H.  That stabilizer is the set of admissible
    Weyl parts of the chi-stabilizer, those w with c~ S lam = v (mod Z^n) for
    some lam, i.e. v in Z^n + A Z^n for A = c~ S: A is symmetric, so the dual
    lattice of Z^n + A Z^n is Z^n cap A^{-1} Z^n = Lambda_H, and a full-rank
    lattice is the dual of its dual.  At c = 0, c~ = 1 and both sides are Z^n
    (S is integral).  So stabilizing is the set of admissible w."""
    directions = [cv for i, cv in enumerate(rd.coroots) if rd.reflection(i) in stabilizing]
    return _reflections_generate(rd, stabilizing, directions)
