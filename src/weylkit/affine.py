"""Central-extension data, the extended affine Weyl group with exact actions,
and the one core that computes integral Weyl groups.

The split case only: the extended cocharacter lattice is Z K_c + X_* with a
fixed splitting, an element t^lam.w acts by

    (a, v) |-> (a + S(lam, w v), w v)

on cocharacters and contragrediently on character points and on the level-one
slice of the dual extended Cartan.  S is the weight form of the extension.

Affine coroots are pairs (alpha, n) standing for alpha + n Q(alpha) K_c with
Q(alpha) = S(alpha, alpha)/2.  The reflection attached to (alpha, n) is the
element t^{n alpha} s_alpha; it fixes the slice wall {x(alpha) = -n Q(alpha)}
and negates the coroot.  Display labels use the opposite, positive-direction
parametrization s[alpha, m] = t^{-m alpha} s_alpha (alpha positive) so that
simple systems read off the walls of the dominant alcove.

The core.  An integral Weyl group is given by a geometry form (a GramForm S,
or a level kappa of any signature: anything with q and covector) and by its
progressions, the integral levels n of each coroot direction.  Its walls are
the slice hyperplanes {<x, alpha> = -n q(alpha)} with n integral.  The
length of g counts the integral walls between the base point x0 and
g^{-1} x0, and a reflection is simple iff its length is 1 (Dyer, "Reflection
subgroups of Coxeter systems", J. Algebra 1990), so the simple system is the
set of walls of the alcove of x0, each oriented positive at x0.  The count
for a reflection r = s_(alpha, n) needs no slice action: x o s_alpha =
x - <x, alpha> a for the root a of alpha, and S(alpha, b) = <a, b> q(alpha)
for every W-invariant form S (s_alpha-invariance gives 2 S(alpha, b) =
<a, b> S(alpha, alpha)), so <r x, b> = <x, b> - <a, b> (<x, alpha> +
n q(alpha)) reads off the Cartan integers <a, b> (_reflected_walls).  A simple r
is a right descent of g iff g^{-1} x0 is below its wall (below_wall): x0 is
on no wall of any level, nor is its image under any extended affine element,
as S(lam, alpha) = <lam, a> q(alpha) for the root a of alpha.  Every descent
and ascent is one walk over the simple walls, on integers (descend; _descend
writes y = m r_1 ... r_k, m minimal); on the negated walls (-alpha, -n) of a
finite component it ascends to the longest element.
One builder, duality.integral_system, assembles an IntegralSystem from the
simple system, its Coxeter data (read off Cartan integers, coxeter_system)
and the stabilizer cosets here, one per admissible Weyl part; a character is
the level c~ S there, so both front-ends reach it.  A system carries the
geometry it was built with, and length_zero_group and descend read their
form and simple walls off it; the ambient extended affine Weyl
group is the integral system of the trivial character.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from weylkit.exact import (
    CosetZn,
    Mat,
    QMODZ_ZERO,
    QmodZ,
    Vec,
    _over_common_denominator,
    congruence_solver,
    det,
    dot,
    identity,
    lattice_basis_from_generators,
    mat_mul,
    mat_vec,
    rank as mat_rank,
    solve_linear,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)
from weylkit.rootdata import RootDatum, _coroot_table, cartan_matrix, mat_inv_int, weyl_elements


class NotPositiveDefinite(ValueError):
    pass


class NotWInvariant(ValueError):
    pass


class OddOnCoroot(ValueError):
    pass


class NotIntegral(ValueError):
    pass


class NoDominantCovector(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Gram forms


@dataclass(frozen=True)
class GramForm:
    matrix: Tuple[Tuple[int, ...], ...]

    def pair(self, v: Vec, w: Vec) -> int:
        return dot(mat_vec(self.matrix, w), v)

    def q(self, coroot: Vec) -> int:
        return self.pair(coroot, coroot) // 2

    def covector(self, v: Vec) -> Vec:
        """S(v, -) as a value tuple on the cocharacter basis."""
        return mat_vec(self.matrix, v)


def gram_from_weights(rd: RootDatum, weights: Sequence[Vec]) -> GramForm:
    """S(lam, mu) = sum over the weight multiset of w(lam) w(mu)."""
    n = rd.rank
    s = [[0] * n for _ in range(n)]
    for k, w in enumerate(weights):
        if len(w) != n:
            raise ValueError(f"weight {k} has length {len(w)}, not the rank {n}")
        for i in range(n):
            if w[i]:
                for j in range(n):
                    s[i][j] += w[i] * w[j]
    form = GramForm(tuple(map(tuple, s)))
    _validate_gram(rd, form)
    return form


def gram_from_matrix(rd: RootDatum, matrix) -> GramForm:
    entries = read_square(matrix, rd.rank, ValueError)
    for i, row in enumerate(entries):
        for j, x in enumerate(row):
            if x.denominator != 1:
                raise NotIntegral(f"form entry {matrix[i][j]!r} at ({i}, {j}) is not an integer")
    form = GramForm(tuple(tuple(int(x) for x in row) for row in entries))
    _validate_gram(rd, form)
    return form


def read_square(matrix, n: int, error) -> Tuple[Tuple[Fraction, ...], ...]:
    """An n x n matrix of int, Fraction, str or float entries as Fractions, a
    float read through str (0.1 is 1/10); error names any other shape, and a
    ValueError any other entry, or one like "1/0" or inf, with its (i, j)."""
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise error(f"{len(matrix)} rows of lengths {[len(row) for row in matrix]} are not {n} x {n}, the rank")
    return tuple(tuple(_read_entry(x, (i, j)) for j, x in enumerate(row)) for i, row in enumerate(matrix))


def _read_entry(x, at) -> Fraction:
    if isinstance(x, (int, Fraction, str, float)) and not isinstance(x, bool):
        try:
            return Fraction(str(x) if isinstance(x, float) else x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"entry {x!r} at {at} is not a rational number")


def _validate_gram(rd: RootDatum, form: GramForm):
    n = rd.rank
    s = form.matrix
    if any(s[i][j] != s[j][i] for i in range(n) for j in range(n)):
        raise ValueError(f"form {_show(s)} is not symmetric")
    # leading principal minors, exact
    for k in range(1, n + 1):
        minor = tuple(tuple(s[i][j] for j in range(k)) for i in range(k))
        if det(minor) <= 0:
            raise NotPositiveDefinite(f"leading {k}x{k} minor of the form {_show(s)} is not positive")
    for w in rd.simple_reflections():
        if mat_mul(mat_mul(transpose(w), s), w) != s:
            raise NotWInvariant(f"form {_show(s)} is not Weyl invariant")
    for cv in rd.coroots:
        val = form.pair(cv, cv)
        if val <= 0 or val % 2:
            raise OddOnCoroot(f"S(a,a) = {val} on coroot {cv} is not even positive for the form {_show(s)}")


def _show(gram) -> str:
    """A gram as rows of rationals, [[2, 1/2], [1/2, 2]]."""
    return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in gram) + "]"


# ---------------------------------------------------------------------------
# extended Weyl elements


@dataclass(frozen=True)
class ExtendedWeylElement:
    """t^trans . w acting on Z K_c + X_*."""

    trans: Vec
    w: Mat

    @staticmethod
    def translation(v: Vec) -> "ExtendedWeylElement":
        return ExtendedWeylElement(tuple(v), identity(len(v)))

    @staticmethod
    def from_weyl(w: Mat) -> "ExtendedWeylElement":
        return ExtendedWeylElement(tuple(0 for _ in w), tuple(map(tuple, w)))

    @staticmethod
    def unit(n: int) -> "ExtendedWeylElement":
        return ExtendedWeylElement((0,) * n, identity(n))

    def __mul__(self, other: "ExtendedWeylElement") -> "ExtendedWeylElement":
        return ExtendedWeylElement(
            vec_add(self.trans, mat_vec(self.w, other.trans)),
            mat_mul(self.w, other.w),
        )

    def inverse(self) -> "ExtendedWeylElement":
        winv = mat_inv_int(self.w)
        return ExtendedWeylElement(tuple(-x for x in mat_vec(winv, self.trans)), winv)

    def is_identity(self) -> bool:
        return not any(self.trans) and self.w == identity(len(self.trans))

    def w_inv(self) -> Mat:
        return mat_inv_int(self.w)


@dataclass(frozen=True)
class CharacterPoint:
    """Torsion character of the extended torus: value on K_c plus finite part."""

    central: QmodZ
    finite: Tuple[QmodZ, ...]

    @staticmethod
    def trivial(n: int) -> "CharacterPoint":
        return CharacterPoint(QMODZ_ZERO, (QMODZ_ZERO,) * n)


def character_from_config(rd: RootDatum, central: str, finite, basis: str = "cochar") -> CharacterPoint:
    c = QmodZ.from_fraction(_read_entry(central, "the central value"))
    vals = [QmodZ.from_fraction(_read_entry(x, f"finite index {i}")) for i, x in enumerate(finite)]
    if basis == "cochar":
        if len(vals) != rd.rank:
            raise ValueError(f"finite part of length {len(vals)} must have the rank {rd.rank}")
        return CharacterPoint(c, tuple(vals))
    if basis == "simple_roots":
        if len(vals) != len(rd.simple_indices):
            raise ValueError(f"{len(vals)} values for {len(rd.simple_indices)} simple roots: need one per simple root")
        acc = [Fraction(0)] * rd.rank
        for theta, a in zip(vals, rd.simple_roots):
            for i in range(rd.rank):
                acc[i] += theta.as_fraction() * a[i]
        return CharacterPoint(c, tuple(QmodZ.from_fraction(x) for x in acc))
    raise ValueError(f"unknown character basis {basis!r}")


# actions ------------------------------------------------------------------


def extended_act_cochar(g: ExtendedWeylElement, form: GramForm, v: Tuple[int, Vec]) -> Tuple[int, Vec]:
    """(a, lam) |-> (a + S(trans, w lam), w lam)."""
    a, lam = v
    wl = mat_vec(g.w, lam)
    return a + form.pair(g.trans, wl), tuple(wl)


def extended_matrix(g: ExtendedWeylElement, form: GramForm) -> Mat:
    """Faithful (n+1)x(n+1) integer matrix of the action on Z K_c + X_*."""
    n = len(g.trans)
    srow = mat_vec(transpose(mat_mul(form.matrix, g.w)), g.trans)  # (trans^T S w)_j
    top = (1,) + tuple(srow)
    rows = [top]
    for i in range(n):
        rows.append((0,) + tuple(g.w[i]))
    return tuple(rows)


def extended_act_character(g: ExtendedWeylElement, form: GramForm, chi: CharacterPoint) -> CharacterPoint:
    """Left action (g . chi)(x) = chi(g^{-1} x); the central value c is fixed.
    The finite part is chi_f o w^{-1} - c S(trans, -) mod 1: chi_f and c go
    over one denominator D, so it is one integer shift over D."""
    c, finite = chi.central, chi.finite
    big = math.lcm(c.den, *(f.den for f in finite))
    fn = [f.num * (big // f.den) for f in finite]
    ln = [c.num * (big // c.den) * x for x in form.covector(g.trans)]
    return CharacterPoint(c, tuple([QmodZ(x, big) for x in _shift_numerators(g.w_inv(), fn, ln)]))


def slice_act_inverse(g: ExtendedWeylElement, form: GramForm, x: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    """g^{-1} on the slice, x |-> (x + S(trans, -)) o w, the one slice action:
    nothing is inverted, and the sum is taken on numerators over one d."""
    (xn, sn), d = _over_common_denominator(x, form.covector(g.trans))
    return tuple(Fraction(v, d) for v in _shift_numerators(g.w, vec_add(xn, sn), (0,) * len(x)))


# ---------------------------------------------------------------------------
# affine coroots


@dataclass(frozen=True)
class AffineCoroot:
    """alpha + n Q(alpha) K_c as (direction, level)."""

    coroot: Vec
    n: int

    def pair_form(self, form: GramForm) -> Tuple[int, Vec]:
        return self.n * form.q(self.coroot), self.coroot


def affine_coroot_reflection(rd: RootDatum, ac: AffineCoroot) -> ExtendedWeylElement:
    """t^{n alpha} s_alpha; negates the coroot and fixes its vanishing wall."""
    table = _coroot_table(rd)
    return ExtendedWeylElement(vec_scale(ac.coroot, ac.n), table.reflections[table.index[tuple(ac.coroot)]])


def act_affine_coroot(g: ExtendedWeylElement, rd: RootDatum, form: GramForm, ac: AffineCoroot) -> AffineCoroot:
    """g (alpha, n) = (w alpha, m) for g = t^lam w, m q(alpha) = n q(alpha) +
    S(lam, w alpha).  m = n + <lam, b> is an integer, b the root of w alpha,
    as S(lam, beta) = <lam, b> q(beta) for every coroot beta with root b, and
    q(w alpha) = q(alpha)."""
    a, v = extended_act_cochar(g, form, ac.pair_form(form))
    return AffineCoroot(tuple(v), a // form.q(v))


# ---------------------------------------------------------------------------
# progressions: integral levels per coroot direction
#
# A progression is None (no integral level), or (i, d) with d > 0 for the set
# i + dZ, or (i, 0) for the singleton {i}.

Progression = Optional[Tuple[int, int]]


def progression_min_at_least(p: Progression, lo: int) -> Optional[int]:
    if p is None:
        return None
    i, d = p
    if d == 0:
        return i if i >= lo else None
    return i - (i - lo) // d * d


def progression_contains(p: Progression, n: int) -> bool:
    return progression_min_at_least(p, n) == n


def progression_count_in(p: Progression, a: int, b: int) -> int:
    """|{n in progression : a <= n <= b}|."""
    first = progression_min_at_least(p, a)
    if first is None or first > b:
        return 0
    return (b - first) // p[1] + 1 if p[1] else 1


# ---------------------------------------------------------------------------
# walls: the descent walk and simple systems


@lru_cache(maxsize=None)
def _dominant_covector(rd: RootDatum) -> Vec:
    """u with <u, a> = 1 on the simple coroots, times its least denominator."""
    u = solve_linear([rd.coroots[i] for i in rd.simple_indices], [Fraction(1)] * len(rd.simple_indices))
    if u is None:
        raise NoDominantCovector(f"no covector is 1 on every simple coroot of {rd.name or rd}")
    return _over_common_denominator(u)[0][0]


@lru_cache(maxsize=None)
def dominant_base_point(rd: RootDatum, form) -> Tuple[Fraction, ...]:
    """eps u with <u, a> = 1 on the simple coroots and eps = min |q(a)| / 2<u, a>
    over the positive coroots: a point of {0 < <x, a> < |q(a)|, a positive},
    which no wall of any integral level meets.  u is solved once per datum,
    as an integer multiple U, and eps u = s U with s the least |q(a)| / 2<U, a>."""
    if not rd.roots:
        return tuple(Fraction(0) for _ in range(rd.rank))
    un = _dominant_covector(rd)
    scale = min(Fraction(abs(form.q(cv)), 2 * u_a) for cv in rd.coroots if (u_a := dot(un, cv)) > 0)
    return tuple(x * scale for x in un)


def _reflected_walls(rd: RootDatum, form, progressions, x):
    """The slice point x and each q(b), b in _coroot_table(rd).half, over one
    denominator D, as the integers D<x, b> and D q(b); and walls(i, n): per
    b with a progression, (b, lowest level, count) of the integral walls
    strictly between x and r x, r = s_(alpha, n) for alpha = half[i], with
    <r x, b> = <x, b> - <a, b> (<x, alpha> + n q(alpha)) (module docstring)
    and the levels -<x, b>/q(b) cut by integer floor and ceiling division."""
    table = _coroot_table(rd)
    (xn, qn), _ = _over_common_denominator(x, [form.q(b) for b in table.half])
    xb = [dot(xn, b) for b in table.half]
    directions = [(j, b, p) for j, b in enumerate(table.half) if (p := progressions.get(b)) is not None]

    def walls(i, n):
        shift, cartan = xb[i] + n * qn[i], table.cartan[i]
        for j, b, p in directions:
            if cartan[j]:  # else <r x, b> = <x, b>: no wall between
                sign, e = (-1, qn[j]) if qn[j] > 0 else (1, -qn[j])
                lo, hi = sorted((sign * xb[j], sign * (xb[j] - cartan[j] * shift)))
                lo, hi = lo // e + 1, -(-hi // e) - 1
                count = progression_count_in(p, lo, hi)
                if count:
                    yield b, progression_min_at_least(p, lo), count

    return xb, qn, walls


def below_wall(form, ac: AffineCoroot, p) -> bool:
    """Whether the slice point p is on the negative side of the wall of
    ac = (alpha, n): <p, alpha> + n q(alpha) < 0.  Every simple of a system
    is positive at its base point x0 (simple_system_from_progressions orients
    it so), so for a simple this says that its wall separates x0 and p."""
    return dot(p, ac.coroot) + ac.n * form.q(ac.coroot) < 0


def descend(rd: RootDatum, system: IntegralSystem, p):
    """Walk the slice point p over the simple walls of system into the alcove
    of its base point x0: while p is below the wall of a simple r (the first
    in system order), p <- r p.  That wall separates p from x0, and r p has
    one separating wall fewer, so the walk ends, at a point below no
    simple wall: in the closed alcove of x0.  Returns the simples crossed, in
    order, and the end point.  p, each n q(alpha) and each S(n alpha, -) go
    over one denominator d once, so a wall test is one integer dot product
    and a step p <- (p + S(n alpha, -)) o s_alpha, with x o s_alpha =
    x - <x, alpha> a for the root a of alpha, stays over d.  Of system it
    reads only form and simples, and _descend also base_point."""
    form, simples = system.form, system.simples
    heights = [ac.n * form.q(ac.coroot) for ac in simples]
    shifts = [form.covector(vec_scale(ac.coroot, ac.n)) for ac in simples]
    (pn, hn, *sn), d = _over_common_denominator(p, heights, *shifts)
    walls = [(ac, h, s, rd.roots[_coroot_table(rd).index[ac.coroot]]) for ac, h, s in zip(simples, hn, sn)]
    crossed = []
    while (wall := next((w for w in walls if dot(pn, w[0].coroot) + w[1] < 0), None)) is not None:
        ac, _, shift, root = wall
        x = vec_add(pn, shift)
        pn = vec_sub(x, vec_scale(root, dot(x, ac.coroot)))
        crossed.append(ac)
    return tuple(crossed), tuple(Fraction(v, d) for v in pn)


def _descend(rd: RootDatum, system: IntegralSystem, y: ExtendedWeylElement) -> Tuple[ExtendedWeylElement, List[AffineCoroot]]:
    """(m, [r_1, ..., r_k]) with y = m r_1 ... r_k reduced over the simple
    walls of system and m minimal: descend walks p = y^{-1} x0, and each
    simple r it crosses is a descent of y, y <- y r (as p <- r p), so the
    walk ends at the length-zero element of y W."""
    crossed, _ = descend(rd, system, slice_act_inverse(y, system.form, system.base_point))
    for ac in crossed:
        y = y * affine_coroot_reflection(rd, ac)
    return y, list(crossed[::-1])


def simple_system_from_progressions(rd: RootDatum, form, progressions: Dict[Vec, Progression]) -> Tuple[AffineCoroot, ...]:
    """The walls of the alcove of the base point, as affine coroots positive
    there, sorted by (n, coroot).

    Only the two integral levels of a direction that bracket the base point
    x0 can bound its alcove; such a wall is a facet iff its reflection r has
    length 1, i.e. it is the only wall between x0 and r x0, counted once.
    That count reads <r x0, b> = <x0, b> - <a, b> (<x0, alpha> + n q(alpha))
    off the Cartan integers <a, b>, as the form is W-invariant (s_alpha-
    invariance gives S(alpha, b) = <a, b> q(alpha)), on integers over one
    denominator (_reflected_walls), and stops at a second direction with walls.
    """
    xb, qn, walls = _reflected_walls(rd, form, progressions, dominant_base_point(rd, form))
    simples = []
    for i, cv in enumerate(_coroot_table(rd).half):
        p = progressions.get(cv)
        if p is None:
            continue
        v = -xb[i] // qn[i]  # the floor of the level -<x0, alpha>/q(alpha) through x0
        below = progression_min_at_least((-p[0], p[1]), -v)  # -(largest level <= v)
        for n in {progression_min_at_least(p, v + 1), None if below is None else -below} - {None}:
            crossed = walls(i, n)
            if next(crossed)[2] == 1 and next(crossed, None) is None:  # r's own wall is always crossed
                sign = 1 if xb[i] + n * qn[i] > 0 else -1
                simples.append(AffineCoroot(tuple(sign * c for c in cv), sign * n))
    return tuple(sorted(simples, key=lambda a: (a.n, a.coroot)))


def connected_components(k: int, linked) -> Tuple[Tuple[int, ...], ...]:
    """Components of the graph on 0..k-1 with an edge wherever linked(i, j)."""
    seen, comps = set(), []
    for i in range(k):
        if i in seen:
            continue
        comp, frontier = {i}, [i]
        while frontier:
            x = frontier.pop()
            for y in range(k):
                if y not in comp and linked(x, y):
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def coxeter_system(rd: RootDatum, simples: Sequence[AffineCoroot]):
    """Coxeter matrix of the simple reflections, and the components of its
    diagram as (indices, "finite" or "affine").  Walls with independent
    directions a, b meet, so r_i r_j has the order of s_a s_b: 2, 3, 4 or 6 as
    the Cartan integers give c_ij c_ji = 0, 1, 2 or 3 (Humphreys, Lie Algebras
    and Representation Theory, 9.4); 4 means parallel walls, and an infinite
    order.  A component is finite iff its coroots are linearly independent."""
    k, c = len(simples), cartan_matrix(rd, [ac.coroot for ac in simples])
    matrix = tuple(tuple(1 if i == j else (2, 3, 4, 6, "infinite")[c[i][j] * c[j][i]] for j in range(k)) for i in range(k))
    components = []
    for idx in connected_components(k, lambda i, j: matrix[i][j] not in (1, 2)):
        finite = mat_rank([simples[i].coroot for i in idx]) == len(idx)
        components.append((idx, "finite" if finite else "affine"))
    return matrix, tuple(components)


# ---------------------------------------------------------------------------
# the integral system: simple system, Coxeter data and stabilizer


def _shift_numerators(w_inv: Mat, rn, ln) -> Vec:
    """rn o w^{-1} - ln for integer numerator covectors, given w^{-1}."""
    return tuple([dot(rn, col) - b for col, b in zip(zip(*w_inv), ln, strict=True)])


def stabilizer_cosets(rd: RootDatum, rows, theta, exact_rows=()):
    """Per admissible finite Weyl element w, the coset p_w + L of the lam with
    rows lam = theta o w^{-1} - theta (mod 1) and exact_rows lam = 0 (a w with
    no such lam is left out), and the lattice L = {rows lam = 0 (mod 1),
    exact_rows lam = 0}.  Only the right-hand side depends on w, so one
    congruence_solver (one Hermite form) serves every w, theta goes over one
    denominator d once, each shift is its integer numerators over d, and the
    closure that lists W gives each w^{-1}."""
    solve = congruence_solver(list(rows) + list(exact_rows), [1] * len(rows) + [0] * len(exact_rows))
    (tn,), d = _over_common_denominator(theta)
    zeros = (0,) * len(exact_rows)
    group = weyl_elements(rd)
    cosets = {w: c for w in group if (c := solve(_shift_numerators(group.inverse[w], tn, tn) + zeros, d)) is not None}
    return cosets, solve((0,) * (len(rows) + len(exact_rows))).basis


@dataclass(frozen=True)
class IntegralSystem:
    """An integral group; its stabilizer lists (w, p_w + L) for the admissible w only, sorted by w."""

    form: object  # the geometry: a GramForm S or a level
    progressions: Tuple[Tuple[Vec, Progression], ...]
    simples: Tuple[AffineCoroot, ...]
    coxeter: Tuple[Tuple[object, ...], ...]
    components: Tuple[Tuple[Tuple[int, ...], str], ...]
    stabilizer: Tuple[Tuple[Mat, CosetZn], ...]
    translation_lattice: Tuple[Vec, ...]
    base_point: Tuple[Fraction, ...]

    def simple_reflections(self, rd: RootDatum) -> Tuple[ExtendedWeylElement, ...]:
        return tuple(affine_coroot_reflection(rd, ac) for ac in self.simples)


def length_zero_group(rd: RootDatum, system: IntegralSystem):
    """Omega, the length-zero part of the integral group of system: the
    elements t^lam w of its stabilizer (lam in the coset of w) that fix the
    alcove of its base point, as representatives (one per admissible w) and
    their common translation lattice.  Every front reads Omega here: the
    character side from integral_simple_system, the ambient group as the
    integral system of the trivial character, the level side from
    level_integral_weyl.

    The simples are the walls of that alcove as affine coroots, each positive
    at the base point, so (alpha, n) is the oriented facet
    f(x) = <x, alpha> + n q(alpha); the slice action is
    x |-> x o w^{-1} - form.covector(lam).  An element fixes the alcove iff it
    sends every oriented facet to an oriented facet.  It sends
    f(x) = <x, c> + b to <x, w c> + b + <form.covector(lam), w c>, so w alone
    decides the target facet of each facet: w must permute the facet
    directions.  Then lam = p_w + sum k_i e_i, e the basis L of every coset,
    solves one equation per target facet t: S(t, e_i) k = n_t q(t) -
    n_{w^{-1} t} q(w^{-1} t) - S(t, p_w).  Indexed by t, the rows do not
    depend on w, so one congruence_solver serves every w, and its solution
    lattice, read once, gives Omega's translation lattice
    {lam in L : S(lam, t) = 0 for every facet t}.  With no facets the whole
    coset fixes the alcove.
    """
    form, basis = system.form, system.translation_lattice
    facets = {ac.coroot: ac.n * form.q(ac.coroot) for ac in system.simples}
    covectors = {t: form.covector(t) for t in facets}
    if facets:
        solve = congruence_solver([[dot(s, e) for e in basis] for s in covectors.values()], [0] * len(facets))
    else:
        solve = lambda rhs: CosetZn((0,) * len(basis), identity(len(basis)))
    elements = []
    for w, coset in system.stabilizer:
        source = {tuple(mat_vec(w, c)): c for c in facets}  # w c -> c
        if source.keys() != facets.keys():
            continue
        sol = solve([b - facets[source[t]] - dot(covectors[t], coset.particular) for t, b in facets.items()])
        if sol is not None:
            lam = coset.particular
            for k, e in zip(sol.particular, basis):
                lam = vec_add(lam, vec_scale(e, k))
            elements.append(ExtendedWeylElement(tuple(lam), w))
    kernel = solve([0] * len(facets)).basis
    lattice = lattice_basis_from_generators([tuple(dot(ks, col) for col in zip(*basis)) for ks in kernel])
    return tuple(sorted(elements, key=lambda g: (g.trans, g.w))), lattice
