"""The front-end of the integral-Weyl-group core, and quantum-Langlands level
duality: the iota conjugation (verified exactly: into, by one integer test
per generator of the integral group, and onto by counting admissible Weyl
parts and comparing translation lattices), alcove matching, the
finite-longest group, and the parahoric bijection.

Slice picture: a point of the level-one slice is a rational covector x on the
cocharacter lattice; t^lam w sends x to x o w^{-1} - kappa(lam, -).  The wall
of the integral reflection t^{n a} s_a is {x : <x, a> = -n kappa(a,a)/2}, and
the admissible n per direction form an arithmetic progression determined by
theta.  A level kappa, of any signature, supplies these progressions and the
stabilizer congruences kappa(lam, -) = w(theta) - theta (mod 1) to
integral_system, the one builder of integral systems, for both front-ends: a
level is its own geometry, and a character c is the level c~ S on the
geometry S (integral.integral_simple_system).  Group elements are integer;
only slice points, levels and theta are rational.  An "irrational" flag on a
component forces the level-zero-only progression there, and adds exact rows
that pin lam's projection onto that component to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from weylkit.exact import (
    Vec,
    _over_common_denominator,
    det,
    dot,
    lattice_basis_from_generators,
    lattice_contains,
    mat_inv,
    mat_mul,
    mat_vec,
    rank as mat_rank,
    transpose,
    vec_sub,
)
from weylkit.affine import (
    AffineCoroot,
    ExtendedWeylElement,
    IntegralSystem,
    Progression,
    _descend,
    _show,
    affine_coroot_reflection,
    connected_components,
    coxeter_system,
    descend,
    dominant_base_point,
    length_zero_group,
    read_square,
    simple_system_from_progressions,
    slice_act_inverse,
    stabilizer_cosets,
)
from weylkit.rootdata import (
    RootDatum,
    _coroot_table,
    cartan_matrix,
    langlands_dual,
    longest_element,
    simple_coordinates,
    weyl_elements,
)


class Degenerate(ValueError):
    pass


class IrrationalSquareLength(ValueError):
    pass


class VerificationFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# levels


@dataclass(frozen=True)
class Level:
    """Nondegenerate W-invariant rational form on the cocharacter space;
    components listed in `irrational` behave as irrational multiples of the
    stored rational block (only the n = 0 wall survives there)."""

    gram: Tuple[Tuple[Fraction, ...], ...]
    irrational: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.gram, self.irrational)))
        object.__setattr__(self, "_numerators", _over_common_denominator(*self.gram))  # (K, e), kappa = K / e
        object.__setattr__(self, "_q", {})  # the memo of q

    def __hash__(self):  # levels key caches: hash the Fraction gram once
        return self._hash

    def q(self, coroot: Vec) -> Fraction:  # once per level and coroot, on integers
        if coroot not in self._q:
            k, e = self._numerators
            self._q[coroot] = Fraction(dot(mat_vec(k, coroot), coroot), 2 * e)
        return self._q[coroot]

    def covector(self, v) -> Tuple[Fraction, ...]:
        """kappa(v, -) as a value tuple on the cocharacter basis."""
        return mat_vec(self.gram, v)


def level_from_config(rd: RootDatum, gram, irrational=()) -> Level:
    lvl = Level(read_square(gram, rd.rank, Degenerate), frozenset(irrational))
    validate_level(rd, lvl)
    return lvl


def validate_level(rd: RootDatum, lvl: Level):
    n = rd.rank
    g = read_square(lvl.gram, n, Degenerate)
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
        raise Degenerate(f"level {_show(g)} must be symmetric")
    if det(g) == 0:
        raise Degenerate(f"level {_show(g)} must be nondegenerate")
    for w in rd.simple_reflections():
        if mat_mul(mat_mul(transpose(w), g), w) != g:
            raise Degenerate(f"level {_show(g)} must be Weyl invariant")
    count = len(finite_components(rd))
    for i in lvl.irrational:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < count:
            raise ValueError(f"irrational component index {i!r} is not in range({count})")


def finite_components(rd: RootDatum) -> Tuple[Tuple[int, ...], ...]:
    """Connected components of the finite diagram as tuples of simple indices."""
    c = cartan_matrix(rd, rd.simple_coroots)
    return connected_components(len(c), lambda i, j: c[i][j] != 0)


@lru_cache(maxsize=None)
def _coroot_components(rd: RootDatum) -> Dict[Vec, int]:
    """Each coroot's component: the one holding the support of its root.  The
    support of a root is connected in the Dynkin diagram (Bourbaki, Lie VI
    1.6), so one component holds it."""
    comps = [set(comp) for comp in finite_components(rd)]
    out = {}
    for cv, coords in zip(rd.coroots, simple_coordinates(rd)):
        support = {i for i, c in enumerate(coords) if c}
        out[cv] = next(ci for ci, comp in enumerate(comps) if support <= comp)
    return out


@lru_cache(maxsize=None)
def _inverse_gram(lvl: Level) -> Tuple[Tuple[Fraction, ...], ...]:
    """kappa^{-1}, once per level."""
    try:
        return tuple(tuple(Fraction(x) for x in r) for r in mat_inv(lvl.gram))
    except ValueError:
        raise Degenerate(f"level {_show(lvl.gram)} must be nondegenerate")


def dual_level(rd: RootDatum, lvl: Level) -> Tuple[RootDatum, Level]:
    """Dual datum with the transported inverse form; exact involution."""
    return langlands_dual(rd), Level(_inverse_gram(lvl), lvl.irrational)


def _dual_side(rd: RootDatum, lvl: Level, theta):
    """The side iota maps to: (rd^vee, -kappa^{-1} as a Level, kappa^{-1} theta)."""
    kinv = _inverse_gram(lvl)
    neg = Level(tuple(tuple(-x for x in r) for r in kinv), lvl.irrational)
    return langlands_dual(rd), neg, mat_vec(kinv, tuple(Fraction(x) for x in theta))


# ---------------------------------------------------------------------------
# the integral Weyl group at a level


def level_progressions(rd: RootDatum, lvl: Level, theta) -> Dict[Vec, Progression]:
    """{n : <theta, alpha> + n kappa(alpha,alpha)/2 in Z} as a progression for
    every coroot alpha, once per +- pair, on integers: for
    kappa = K/e and theta = t/d, the levels of alpha solve a n = b (mod D),
    D = lcm(2e, d), a = K(alpha, alpha) D/2e, b = -<t, alpha> D/d, and those
    of -alpha are their negatives: p(-alpha) = ((-i) mod m, m) for p(alpha) =
    (i, m), and None with it.  Components are read only if some are flagged."""
    (tn,), d = _over_common_denominator(theta)
    k, e = lvl._numerators
    big = math.lcm(2 * e, d)
    components = _coroot_components(rd) if lvl.irrational else {}
    out = dict.fromkeys(rd.coroots)  # keys in rd.coroots order
    for cv in _coroot_table(rd).half:
        t = dot(tn, cv)
        if components.get(cv) in lvl.irrational:
            p = q = (0, 0) if t % d == 0 else None
        else:
            a, b = dot(mat_vec(k, cv), cv) * (big // (2 * e)), -t * (big // d)
            g = math.gcd(a, big)
            if b % g:
                p = q = None
            else:
                m = big // g
                i = b // g * pow(a // g, -1, m) % m
                p, q = (i, m), (-i % m, m)
        out[cv], out[tuple(-x for x in cv)] = p, q
    return out


@lru_cache(maxsize=None)
def _stabilizer_rows(rd: RootDatum, lvl: Level):
    """Rows of the congruences kappa_eff lam = w(theta) - theta (mod 1), and
    the exact rows P lam = 0.  P = B (B^T K B)^{-1} B^T K is the
    kappa-orthogonal projector onto the span B of the flagged coroots, and
    kappa_eff = K (1 - P) drops that span."""
    if not lvl.irrational:
        return lvl.gram, ()
    basis, components = [], _coroot_components(rd)
    for cv in rd.coroots:
        if components[cv] in lvl.irrational and mat_rank(basis + [cv]) == len(basis) + 1:
            basis.append(cv)
    if not basis:
        return lvl.gram, ()
    bt_k = mat_mul(basis, lvl.gram)  # rows b_i^T kappa
    proj = mat_mul(mat_mul(transpose(basis), mat_inv(mat_mul(basis, transpose(bt_k)))), bt_k)
    n = rd.rank
    return mat_mul(lvl.gram, tuple(tuple(int(i == j) - proj[i][j] for j in range(n)) for i in range(n))), proj


def level_integral_weyl(rd: RootDatum, lvl: Level, theta) -> IntegralSystem:
    """The integral Weyl group at the level and theta, once per (rd, lvl, theta)."""
    return _level_integral_weyl(rd, lvl, tuple(Fraction(x) for x in theta))


@lru_cache(maxsize=None)
def _level_integral_weyl(rd: RootDatum, lvl: Level, theta) -> IntegralSystem:
    return integral_system(rd, lvl, lvl, theta)


def integral_system(rd: RootDatum, form, lvl: Level, theta) -> IntegralSystem:
    """The integral Weyl group at the level and theta, a tuple of Fractions:
    its progressions and stabilizer cosets, with the walls, base point and
    Coxeter data of the geometry form, which the system carries."""
    progressions = level_progressions(rd, lvl, theta)
    simples = simple_system_from_progressions(rd, form, progressions)
    matrix, components = coxeter_system(rd, simples)
    rows, exact_rows = _stabilizer_rows(rd, lvl)
    stab, lattice = stabilizer_cosets(rd, rows, theta, exact_rows)
    progressions, stab = tuple(sorted(progressions.items())), tuple(sorted(stab.items()))
    return IntegralSystem(form, progressions, simples, matrix, components, stab, lattice, dominant_base_point(rd, form))


# ---------------------------------------------------------------------------
# iota


@dataclass(frozen=True)
class AffineMap:
    """iota in the iota_conjugation report, x |-> linear x + offset: a value
    with no algebra (group elements are conjugated by _iota_partner)."""

    linear: Tuple[Tuple[Fraction, ...], ...]
    offset: Tuple[Fraction, ...]

    def __call__(self, x):
        return tuple(v + o for v, o in zip(mat_vec(self.linear, x), self.offset))


def iota_map(rd: RootDatum, lvl: Level, theta) -> AffineMap:
    """iota(x) = -kappa^{-1} x + kappa^{-1} theta."""
    kcheck = _inverse_gram(lvl)
    return AffineMap(tuple(tuple(-x for x in row) for row in kcheck), mat_vec(kcheck, tuple(Fraction(x) for x in theta)))


def _iota_partner(rd: RootDatum, lvl: Level, theta):
    """partner(g) = iota o g o iota^{-1} for g = t^lam w at (kappa, theta): the
    element t^{theta - w^{-T} theta + kappa lam} w^{-T} of the dual extended
    affine Weyl group at -kappa^{-1}, or None when that translation is not
    integral.  theta and kappa are taken over one denominator s."""
    weyl = weyl_elements(rd).inverse
    (tn, *kn), s = _over_common_denominator(tuple(Fraction(x) for x in theta), *lvl.gram)

    def partner(g: ExtendedWeylElement):
        winv_t = transpose(weyl[g.w])
        mu = [t - wt + k for t, wt, k in zip(tn, mat_vec(winv_t, tn), mat_vec(kn, g.trans))]
        return None if any(x % s for x in mu) else ExtendedWeylElement(tuple(x // s for x in mu), winv_t)

    return partner


def iota_conjugation(rd: RootDatum, lvl: Level, theta) -> dict:
    """Build iota and verify that conjugation by it maps the integral group G
    at (kappa, theta) onto G' at (-kappa^{-1}, kappa^{-1} theta).

    Each group is {t^lam w : w admissible, lam in its coset p_w + L}, which is
    how membership is tested; it is generated by one t^{p_w} w per admissible
    w and by t^b for a basis b of L.  Conjugation is a homomorphism, so
    checking generators is exact.  Into: each generator of G goes to its
    partner in G' (_iota_partner), so partner(G) is in G'.  Onto, by
    counting: the Weyl part of partner(t^lam w) is w^{-T}, injective in w, so
    equally many admissible w on both sides make w |-> w^{-T} a bijection
    onto the admissible w', and partner(t^lam) = t^{kappa lam}, so a
    partner lattice kappa L (L read off the cosets membership tests) equal to
    L' gives each t^mu w' in G' as partner(t^lam t^{p_w} w), lam in L.
    Each pair is one closed-form test on integer numerators, _conjugation_test:
    for iota(x) = L x + c and linear parts a, b, iota o g o iota^{-1} = h iff
    L a = b L and c - b c + L g(0) = h(0).  pairs_checked counts the generators
    of G.  Reflections: s_(alpha-check, n) goes to s_(alpha, m) with
    m = <theta, alpha-check> + n q(alpha-check), tested once per +- pair
    (s_(-alpha-check, -n) = s_(alpha-check, n), and m changes sign) at two
    levels n = i, i + d of the progression i + dZ: m and the identity tested
    are affine in n, so two levels decide the whole progression.
    """
    if lvl.irrational:
        raise IrrationalSquareLength(f"iota requires a rational level; components {sorted(lvl.irrational)} are flagged")
    rd_dual, lvl_dual_neg, theta_check = _dual_side(rd, lvl, theta)
    iota = iota_map(rd, lvl, theta)
    conjugates = _conjugation_test(iota, lvl, lvl_dual_neg)
    theta_f = tuple(Fraction(x) for x in theta)
    cosets, reps, shifts = _integral_generators(rd, lvl, theta_f)
    dual_cosets, _, dual_shifts = _integral_generators(rd_dual, lvl_dual_neg, theta_check)
    if len(dual_cosets) != len(cosets):
        count = f"{len(dual_cosets)} admissible dual Weyl parts for {len(cosets)}"
        raise VerificationFailed(f"{count}: some dual generator does not come from an integral element")

    partner = _iota_partner(rd, lvl, theta_f)
    ok, checked = {"pairs": True, "translations": True}, 0
    for key, g in [("pairs", g) for g in reps] + [("translations", g) for g in shifts]:
        h = partner(g)
        if h is None or h.w not in dual_cosets or not dual_cosets[h.w].contains(h.trans):
            raise VerificationFailed(f"dual partner {h} of integral {g} is not integral")
        ok[key] &= conjugates(h.w, g.trans, g.w, h.trans)
        checked += 1
    images = [partner(ExtendedWeylElement.translation(b)) for b in next(iter(cosets.values())).basis]
    dual_lattice = lattice_basis_from_generators([h.trans for h in dual_shifts])
    if None in images or lattice_basis_from_generators([h.trans for h in images]) != dual_lattice:
        raise VerificationFailed(f"a translation of the dual lattice {dual_lattice} does not come from an integral element")

    ok_refl = True
    progs = level_progressions(rd, lvl, theta)
    table = _coroot_table(rd)
    for cv in table.half:
        if progs[cv] is None:
            continue
        i, d = progs[cv]
        for n in {i, i + d}:
            m = dot(theta_f, cv) + n * lvl.q(cv)
            if m.denominator != 1:
                ok_refl = False
                continue
            g = affine_coroot_reflection(rd, AffineCoroot(cv, n))
            h = affine_coroot_reflection(rd_dual, AffineCoroot(rd.roots[table.index[cv]], int(m)))
            # reflections are involutions: each slice linear part is w^T
            ok_refl &= conjugates(transpose(g.w), g.trans, transpose(h.w), h.trans)
    result = {
        "iota": iota,
        "translations": ok["translations"],
        "pairs": ok["pairs"],
        "pairs_checked": checked,
        "reflections": ok_refl,
        "verified": all(ok.values()) and ok_refl,
    }
    if not result["verified"]:
        raise VerificationFailed(str(result))
    return result


def _conjugation_test(iota: AffineMap, lvl: Level, lvl_dual: Level):
    """conjugates(a, lam, b, mu): iota o g o iota^{-1} = h for g = t^lam w at
    lvl and h = t^mu v at lvl_dual, given a = w^{-T} and b = v^{-T}.  With
    iota(x) = L x + c, g(x) = a x - kappa lam and h(y) = b y - kappa' mu, that
    holds iff L a = b L and c - b c - L kappa lam = -kappa' mu.  Over one
    denominator d for L and c, kappa = K/e and kappa' = K'/f, both are integer
    identities: L_n a = b L_n and e f (c_n - b c_n) - f L_n K lam + d e K' mu = 0."""
    (*ln, cn), d = _over_common_denominator(*iota.linear, iota.offset)
    k, e = lvl._numerators
    k_dual, f = lvl_dual._numerators
    lk = mat_mul(ln, k)

    def conjugates(a, lam, b, mu) -> bool:
        rows = zip(cn, mat_vec(b, cn), mat_vec(lk, lam), mat_vec(k_dual, mu))
        return mat_mul(ln, a) == mat_mul(b, ln) and not any(e * f * (c - bc) - f * x + d * e * y for c, bc, x, y in rows)

    return conjugates


def _integral_generators(rd: RootDatum, lvl: Level, theta):
    """The cosets {w: p_w + L} of the admissible w, t^{p_w} w per w, and t^b per basis vector b of L."""
    rows, exact_rows = _stabilizer_rows(rd, lvl)
    cosets, lattice = stabilizer_cosets(rd, rows, theta, exact_rows)
    reps = [ExtendedWeylElement(c.particular, w) for w, c in cosets.items()]
    return cosets, reps, [ExtendedWeylElement.translation(b) for b in lattice]


# ---------------------------------------------------------------------------
# alcove matching


@dataclass(frozen=True)
class AlcoveMatch:
    y: ExtendedWeylElement
    g_system: IntegralSystem
    h_system: IntegralSystem
    simple_bijection: Tuple[Tuple[AffineCoroot, AffineCoroot], ...]
    # length-zero representatives, paired; each side's Omega is its
    # representatives times its translation lattice in omega_lattices
    omega_pairs: Tuple[Tuple[ExtendedWeylElement, ExtendedWeylElement], ...]
    omega_lattices: Tuple[Tuple[Vec, ...], Tuple[Vec, ...]]


def alcove_match(rd: RootDatum, lvl: Level, theta) -> AlcoveMatch:
    """Match the integral systems at (kappa, theta) and at the dual side
    through j = y o iota, where y moves iota(base point) into the dual base
    alcove.  j g j^{-1} = y partner(g) y^{-1} (_iota_partner) is an integer
    product in the dual extended affine Weyl group."""
    iota = iota_map(rd, lvl, theta)
    rd_dual, lvl_dual_neg, theta_check = _dual_side(rd, lvl, theta)

    g_sys = level_integral_weyl(rd, lvl, theta)
    h_sys = level_integral_weyl(rd_dual, lvl_dual_neg, theta_check)

    start = iota(g_sys.base_point)
    steps, p = descend(rd_dual, h_sys, start)
    y = ExtendedWeylElement.unit(rd.rank)
    for ac in steps:
        y = affine_coroot_reflection(rd_dual, ac) * y
    y_inv = y.inverse()
    if slice_act_inverse(y_inv, lvl_dual_neg, start) != p:
        raise VerificationFailed(f"walk element {y} does not move iota(base point) to {p}")

    partner = _iota_partner(rd, lvl, theta)

    def conjugate(g):
        h = partner(g)
        return None if h is None else y * h * y_inv

    h_simples = {affine_coroot_reflection(rd_dual, ac): ac for ac in h_sys.simples}
    bij = []
    for ac in g_sys.simples:
        image = h_simples.get(conjugate(affine_coroot_reflection(rd, ac)))
        if image is None:
            raise VerificationFailed(f"conjugated simple {ac} is not a dual simple")
        bij.append((ac, image))
    if len({b for _, b in bij}) != len(h_sys.simples):
        raise VerificationFailed("simple systems do not biject")

    # Coxeter matrices agree through the bijection
    gperm = [h_sys.simples.index(b) for _, b in bij]
    if any(g_sys.coxeter[i][j] != h_sys.coxeter[gi][gj] for i, gi in enumerate(gperm) for j, gj in enumerate(gperm)):
        raise VerificationFailed("Coxeter matrices differ after matching")

    # length-zero groups correspond: representatives, paired by Weyl part up
    # to the translation lattices, and the lattices themselves
    g_omega, g_lattice = length_zero_group(rd, g_sys)
    h_omega, h_lattice = length_zero_group(rd_dual, h_sys)
    if len(g_omega) != len(h_omega):
        raise VerificationFailed(f"length-zero groups have different sizes {len(g_omega)} and {len(h_omega)}")
    h_by_weyl = {o.w: o for o in h_omega}
    pairs = []
    for o in g_omega:
        conj = conjugate(o)
        dual = None if conj is None else h_by_weyl.get(conj.w)
        if dual is None or not lattice_contains(h_lattice, vec_sub(conj.trans, dual.trans)):
            raise VerificationFailed(f"length-zero element {o} has no dual partner")
        pairs.append((o, dual))
    images = [conjugate(ExtendedWeylElement.translation(lam)) for lam in g_lattice]
    if None in images or lattice_basis_from_generators([im.trans for im in images]) != lattice_basis_from_generators(h_lattice):
        raise VerificationFailed("length-zero translation lattices do not correspond")

    return AlcoveMatch(y, g_sys, h_sys, tuple(bij), tuple(pairs), (g_lattice, h_lattice))


# ---------------------------------------------------------------------------
# parahoric matching and the finite-longest group


def kappa_parabolic_match(rd: RootDatum, lvl: Level) -> Tuple[Tuple[int, int], ...]:
    """i_kappa on simple indices: Chevalley involution on the kappa-positive
    part composed with the standard duality (identity on indices)."""
    if lvl.irrational:
        raise IrrationalSquareLength(f"parahoric matching needs a rational level; components {sorted(lvl.irrational)} are flagged")
    for cv in rd.coroots:
        if lvl.q(cv) == 0:
            raise IrrationalSquareLength(f"kappa(alpha, alpha) is 0 on {cv} at the level {_show(lvl.gram)}")
    w0 = longest_element(rd)
    out = []
    for pos, i in enumerate(rd.simple_indices):
        cv = rd.coroots[i]
        if lvl.q(cv) > 0:
            img = tuple(-x for x in mat_vec(w0, cv))
            target = _coroot_table(rd).index[img]
            out.append((pos, rd.simple_indices.index(target)))
        else:
            out.append((pos, pos))
    return tuple(out)


def finite_longest_group(rd: RootDatum, lvl: Level, theta) -> Tuple[ExtendedWeylElement, ...]:
    """Generators of the group of extended-Coxeter automorphisms realized by
    conjugation: one commuting involution per length-zero-stable orbit of
    finite-type components (trivial when every component is affine).  Each
    generator z normalizes the simple reflections S: the longest element of
    a finite component J sends the simple roots of J to minus simple roots
    of J, so it permutes S_J by conjugation, and it commutes with every
    simple outside J (across components the Coxeter entry is 2); a product
    over an orbit permutes S too."""
    sys = level_integral_weyl(rd, lvl, theta)
    refl = list(sys.simple_reflections(rd))
    omega, _ = length_zero_group(rd, sys)
    comp_of = {i: ci for ci, (idx, _) in enumerate(sys.components) for i in idx}
    # components linked when a length-zero element conjugates a simple
    # reflection of one to a simple reflection of the other
    refl_index = {r: i for i, r in enumerate(refl)}
    links = set()
    for o in omega:
        oinv = o.inverse()
        for i, r in enumerate(refl):
            j = refl_index.get(o * r * oinv)
            if j is not None:
                links.add((comp_of[i], comp_of[j]))
    orbits = connected_components(len(sys.components), lambda a, b: (a, b) in links or (b, a) in links)
    gens = []
    for orbit in orbits:
        if any(sys.components[ci][1] != "finite" for ci in orbit):
            continue
        z = ExtendedWeylElement.unit(rd.rank)
        for ci in orbit:
            idx = sys.components[ci][0]
            z = z * _longest_in_component(rd, sys, [sys.simples[i] for i in idx])
        if {z * r * z.inverse() for r in refl} != set(refl):
            raise VerificationFailed(f"finite-longest generator {z} does not normalize the simple reflections")
        gens.append(z)
    for z in gens:
        if not (z * z).is_identity():
            raise VerificationFailed(f"finite-longest generator {z} is not an involution")
        for z2 in gens:
            if z * z2 != z2 * z:
                raise VerificationFailed(f"finite-longest generators {z} and {z2} do not commute")
    return tuple(gens)


def _longest_in_component(rd, system, simples) -> ExtendedWeylElement:
    """Longest element of a finite component of system with simple walls
    simples: the one walk (_descend) from the unit over the negated walls
    (-alpha, -n), which g^{-1} x0 is below iff it is above (alpha, n), with
    the same reflections, so it ascends g <- g r while some simple r is an
    ascent; the length is the system's, its own on a parabolic subgroup, and
    only the longest element of a finite Coxeter group has no ascent."""
    negated = tuple(AffineCoroot(tuple(-x for x in ac.coroot), -ac.n) for ac in simples)
    return _descend(rd, replace(system, simples=negated), ExtendedWeylElement.unit(rd.rank))[0]
