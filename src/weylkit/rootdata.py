"""Finite root data, Weyl groups, presets, validation, and Langlands duality.

Both lattices are identified with Z^n via fixed dual bases, so the pairing is
the dot product: coroots are column vectors in cocharacter coordinates and
roots are covectors (value tuples on the cocharacter basis).

``preset`` reads one table of families, ``_FAMILIES``: each row gives the
least parameter, the step between parameters (the parity), the largest
parameter (None for no bound) and a builder, and every builder reaches
``_build`` by one of two routes.  The Cartan route
(``_cartan_build``, and PGL as its dual) gives an abstract datum from a
Cartan matrix.  The classical route (``_classical``) takes the type-A simples
e_i - e_{i+1} of Z^n and the family's last simple pair, optionally on a
lattice basis; that datum carries the change of basis in ``ambient_basis``
(columns are the lattice basis written in the ambient e-coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from weylkit.exact import (
    Mat,
    Vec,
    _over_common_denominator,
    _rref,
    det,
    dot,
    hermite_normal_form,
    identity,
    mat_inv,
    mat_mul,
    mat_vec,
    rank as mat_rank,
    transpose,
    vec_scale,
    vec_sub,
)


class UnknownPreset(ValueError):
    pass


class InvalidParams(ValueError):
    pass


class GroupTooLarge(RuntimeError):
    pass


@dataclass(frozen=True)
class RootDatum:
    rank: int
    roots: Tuple[Vec, ...]
    coroots: Tuple[Vec, ...]
    simple_indices: Tuple[int, ...]
    # lattice basis in ambient coordinates, identity when abstract
    ambient_basis: Tuple[Tuple[Fraction, ...], ...] = None
    name: str = ""

    def __post_init__(self):
        if self.ambient_basis is None:
            object.__setattr__(
                self,
                "ambient_basis",
                tuple(tuple(Fraction(int(i == j)) for j in range(self.rank)) for i in range(self.rank)),
            )
        # name is left out: a str hash varies by process, and a pickled datum
        # keeps this value
        fields = (self.rank, self.roots, self.coroots, self.simple_indices, self.ambient_basis)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):  # data key caches: hash the Fraction basis once
        return self._hash

    @property
    def simple_roots(self) -> Tuple[Vec, ...]:
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self) -> Tuple[Vec, ...]:
        return tuple(self.coroots[i] for i in self.simple_indices)

    def positive_root_indices(self) -> Tuple[int, ...]:
        """Indices of roots that are nonnegative combinations of the simples."""
        positive = _coroot_positivity(self)
        return tuple(i for i, cv in enumerate(self.coroots) if positive[cv])

    def is_positive_coroot(self, cv: Vec) -> bool:
        positive = _coroot_positivity(self).get(tuple(cv))
        if positive is None:
            raise ValueError(f"{cv} is not a coroot")
        return positive

    def reflection(self, i: int) -> Mat:
        """Matrix of s_{alpha_i} on the cocharacter lattice."""
        return _coroot_table(self).reflections[i]

    def simple_reflections(self) -> Tuple[Mat, ...]:
        return tuple(self.reflection(i) for i in self.simple_indices)

    def ambient_to_lattice(self, v_ambient) -> Vec:
        b_inv = mat_inv(self.ambient_basis)
        w = mat_vec(b_inv, tuple(Fraction(x) for x in v_ambient))
        if any(x.denominator != 1 for x in w):
            raise ValueError(f"{v_ambient} is not in the cocharacter lattice")
        return tuple(int(x) for x in w)

    def lattice_to_ambient(self, v) -> Tuple[Fraction, ...]:
        return mat_vec(self.ambient_basis, v)

    def covector_ambient_to_lattice(self, phi_ambient) -> Vec:
        w = mat_vec(transpose(self.ambient_basis), tuple(Fraction(x) for x in phi_ambient))
        if any(x.denominator != 1 for x in w):
            raise ValueError(f"{phi_ambient} is not in the character lattice")
        return tuple(int(x) for x in w)


class CorootTable(NamedTuple):
    index: Mapping[Vec, int]  # each coroot's position in rd.coroots
    half: Tuple[Vec, ...]  # one coroot of each +- pair: the one greater than its negative
    cartan: Mat  # the Cartan integers <a_i, b_j> among half, a_i the root of b_i
    reflections: Tuple[Mat, ...]  # s_{alpha_i} = I - b_i a_i^T, aligned with rd.coroots


@lru_cache(maxsize=None)
def _coroot_table(rd: RootDatum) -> CorootTable:
    """The coroot lookups fixed by the datum, once per datum."""
    index = MappingProxyType({cv: i for i, cv in enumerate(rd.coroots)})
    half = tuple(cv for cv in rd.coroots if cv > tuple(-v for v in cv))
    n = rd.rank
    reflections = tuple(
        tuple(tuple(int(r == c) - cv[r] * a[c] for c in range(n)) for r in range(n)) for a, cv in zip(rd.roots, rd.coroots)
    )
    return CorootTable(index, half, tuple(tuple(dot(rd.roots[index[a]], b) for b in half) for a in half), reflections)


@lru_cache(maxsize=None)
def simple_coordinates(rd: RootDatum) -> Tuple[Optional[Tuple], ...]:
    """Each root's coordinates over the simple roots, aligned with rd.roots,
    or None outside their span; once per datum, from one reduced form [R | P]
    of [M | I], M the simple roots as columns.  P M = R with P invertible, so
    M c = a iff R c = P a: a row of R pivoting at column p < k gives c_p (free
    coordinates 0, as solve_linear sets them), and a row pivoting past M is
    a condition (P a)_row = 0.  P is taken over one denominator e, so each
    coordinate is an integer test; integral coordinates are int."""
    simples, k = rd.simple_roots, len(rd.simple_indices)
    if not simples:
        return (None,) * len(rd.roots)
    rows = ({**{j: a[i] for j, a in enumerate(simples) if a[i]}, k + i: 1} for i in range(rd.rank))
    pivots, reduced, _ = _rref(rows)
    p_num, e = _over_common_denominator(*([row.get(k + j, 0) for j in range(rd.rank)] for row in reduced))
    out = []
    for a in rd.roots:
        values = dict(zip(pivots, mat_vec(p_num, a)))  # e P a, by pivot column
        if any(values[c] for c in pivots if c >= k):
            out.append(None)
        else:
            out.append(tuple(x // e if x % e == 0 else Fraction(x, e) for x in (values.get(c, 0) for c in range(k))))
    return tuple(out)


@lru_cache(maxsize=None)
def _coroot_positivity(rd: RootDatum) -> Dict[Vec, bool]:
    """Each coroot's sign, fixed by the datum: whether its root is a
    nonnegative combination of the simple roots."""
    return {cv: c is not None and all(x >= 0 for x in c) for cv, c in zip(rd.coroots, simple_coordinates(rd))}


# ---------------------------------------------------------------------------
# construction by reflection closure


# a Cartan matrix of infinite type has no finite closure; it stops here
MAX_ROOTS = 2000


def _closure(simple_roots, simple_coroots):
    """Orbit closure of the simple pairs under all simple reflections, by
    rank-one steps: s_i sends a root a to a - <a, b_i> a_i and a coroot b to
    b - <a_i, b> b_i; GroupTooLarge past MAX_ROOTS."""
    simples = [(tuple(a), tuple(cv)) for a, cv in zip(simple_roots, simple_coroots)]
    pairs, frontier = set(simples), set(simples)
    while frontier:
        new = set()
        for a, cv in frontier:
            for ai, bi in simples:
                k, l = dot(a, bi), dot(ai, cv)
                p = (tuple(x - k * y for x, y in zip(a, ai)), tuple(x - l * y for x, y in zip(cv, bi)))
                if p not in pairs:
                    pairs.add(p)
                    new.add(p)
        if len(pairs) > MAX_ROOTS:
            raise GroupTooLarge(f"root system closure exceeds {MAX_ROOTS} roots")
        frontier = new
    both = sorted(pairs)
    return tuple(p[0] for p in both), tuple(p[1] for p in both)


def _build(simple_roots, simple_coroots, rank, ambient=None, name=""):
    roots, coroots = _closure(simple_roots, simple_coroots)
    simple_idx = tuple(roots.index(tuple(a)) for a in simple_roots)
    return RootDatum(rank, roots, coroots, simple_idx, ambient, name)


def _cartan_build(cartan, name):
    """Abstract datum on the coroot lattice: simple coroots are unit vectors."""
    n = len(cartan)
    simples_cv = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    simples_rt = [tuple(cartan[i][j] for i in range(n)) for j in range(n)]
    return _build(simples_rt, simples_cv, n, name=name)


def _classical(n, last, name, basis=None):
    """The datum whose simple pairs are (e_i - e_{i+1}, e_i - e_{i+1}) in Z^n
    and then last, a (root, coroot) pair given on the last two coordinates
    (none for GL).  basis(e), given the unit vectors e, lists the columns B of
    a lattice basis in ambient coordinates; a root a is then read on it as
    B^T a and a coroot b as B^{-1} b."""
    e = identity(n)
    pairs = [(vec_sub(a, b),) * 2 for a, b in zip(e, e[1:])]
    if last:
        pairs.append(tuple(((0,) * n + v)[-n:] for v in last))
    roots, coroots = [a for a, _ in pairs], [b for _, b in pairs]
    if basis is None:
        return _build(roots, coroots, n, name=name)
    cols = basis(e)
    ambient = transpose(tuple(tuple(map(Fraction, col)) for col in cols))
    ambient_inv = mat_inv(ambient)
    roots = [tuple(int(x) for x in mat_vec(cols, a)) for a in roots]
    coroots = [tuple(int(x) for x in mat_vec(ambient_inv, cv)) for cv in coroots]
    return _build(roots, coroots, n, ambient, name)


def _type_a_cartan(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


# family: (least parameter p, step between parameters, largest parameter or
# None for no bound, builder of p).  Last simple pairs: C (2e_n, e_n),
# B (e_n, 2e_n), D (e_{n-1} + e_n) for both.
# PGL is SL's dual: unit vectors as simple roots, Cartan columns as coroots
_FAMILIES = {
    "SL": (2, 1, None, lambda p: _cartan_build(_type_a_cartan(p - 1), f"SL{p}")),
    "PGL": (2, 1, None, lambda p: _build(identity(p - 1), _type_a_cartan(p - 1), p - 1, name=f"PGL{p}")),
    "GL": (1, 1, None, lambda p: _classical(p, None, f"GL{p}")),
    "SP": (2, 2, None, lambda p: _classical(p // 2, ((0, 2), (0, 1)), f"Sp{p}")),
    # X_* = Z^n + Z (sum e_i)/2, basis (sum e_i / 2, e_2, ..., e_n)
    "PSP": (2, 2, None, lambda p: _classical(p // 2, ((0, 2), (0, 1)), f"PSp{p}", lambda e: [(Fraction(1, 2),) * len(e), *e[1:]])),
    "SO_ODD": (3, 2, None, lambda p: _classical(p // 2, ((0, 1), (0, 2)), f"SO{p}")),
    # X_* = the coroot lattice of B_n (even coordinate sum), basis e_i - e_{i+1}, 2e_n
    "SPIN_ODD": (3, 2, None, lambda p: _classical(p // 2, ((0, 1), (0, 2)), f"Spin{p}",
                                                  lambda e: [*map(vec_sub, e, e[1:]), vec_scale(e[-1], 2)])),
    "SO_EVEN": (4, 2, None, lambda p: _classical(p // 2, ((1, 1), (1, 1)), f"SO{p}")),
    "G2": (2, 1, 2, lambda p: _cartan_build(((2, -1), (-3, 2)), "G2")),
}


def preset(name: str, n: Optional[int] = None, factors=None) -> RootDatum:
    """Named root datum in the conventions the source constructions use: a
    family of _FAMILIES (any case) at the parameter n, a torus of rank n, or
    the product of factors."""
    if name == "torus":
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise InvalidParams(f"torus preset needs a nonnegative integer rank, not {n!r}")
        return RootDatum(n, (), (), (), None, f"torus{n}")
    if name == "product":
        if not factors:
            raise InvalidParams(f"product preset needs factors, not {factors!r}")
        return product_datum(factors)
    if name.upper() not in _FAMILIES:
        raise UnknownPreset(name)
    least, step, largest, build = _FAMILIES[name.upper()]
    if isinstance(n, bool) or not isinstance(n, int) or n < least or (n - least) % step or (largest is not None and n > largest):
        values = f"{least}, {least + step}, {least + 2 * step}, ..." if largest is None else ", ".join(map(str, range(least, largest + 1, step)))
        raise InvalidParams(f"{name} needs an integer parameter in {values}, not {n!r}")
    return build(n)


def product_datum(factors) -> RootDatum:
    ranks = [f.rank for f in factors]
    n = sum(ranks)
    roots, coroots, simples = [], [], []
    off = 0
    for f in factors:
        pad = lambda v, o=off: tuple([0] * o + list(v) + [0] * (n - o - len(v)))
        base = len(roots)
        roots.extend(pad(a) for a in f.roots)
        coroots.extend(pad(cv) for cv in f.coroots)
        simples.extend(base + i for i in f.simple_indices)
        off += f.rank
    name = "x".join(f.name for f in factors)
    return RootDatum(n, tuple(roots), tuple(coroots), tuple(simples), None, name)


# ---------------------------------------------------------------------------
# validation


def validate_root_datum(rd: RootDatum):
    """Returns a list of violation strings; empty means the datum is valid.
    Each reflection must permute the coroots, v -> v - k cv_i, k = <a_i, v>,
    and the roots, b -> b - k a_i, k = <b, cv_i>: one pairing per vector; a
    vector with k = 0 is its own image, already in the set, so it is skipped,
    and (a, cv) and (-a, -cv) give one reflection, checked once."""
    bad = []
    n = rd.rank
    if len(rd.roots) != len(rd.coroots):
        return ["roots and coroots must be in bijection"]
    for a, cv in zip(rd.roots, rd.coroots):
        if len(a) != n or len(cv) != n:
            return ["vector length differs from rank"]
        if dot(cv, a) != 2:
            bad.append(f"<coroot,root> != 2 for pair ({cv},{a})")
    if len(set(rd.roots)) != len(rd.roots):
        bad.append("duplicate roots")
    root_set, coroot_set, moves = set(rd.roots), set(rd.coroots), {}
    for i, (a_i, cv_i) in enumerate(zip(rd.roots, rd.coroots)):
        pair = max((a_i, cv_i), (tuple(-x for x in a_i), tuple(-x for x in cv_i)))
        if pair not in moves:
            moves[pair] = (any((k := dot(a_i, v)) and tuple([x - k * y for x, y in zip(v, cv_i)]) not in coroot_set for v in rd.coroots),
                           any((k := dot(b, cv_i)) and tuple([x - k * y for x, y in zip(b, a_i)]) not in root_set for b in rd.roots))
        if moves[pair][0]:
            bad.append(f"reflection {i} does not permute the coroots")
        if moves[pair][1]:
            bad.append(f"dual reflection {i} does not permute the roots")
    # simple roots form a base: every root is a signed nonnegative combination
    for a, c in zip(rd.roots, simple_coordinates(rd)):
        if c is None:
            bad.append(f"root {a} outside the span of the simple roots")
            continue
        if any(x.denominator != 1 for x in c):
            bad.append(f"root {a} has non-integral simple coordinates")
        elif not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
            bad.append(f"root {a} has mixed-sign simple coordinates")
    return bad


# ---------------------------------------------------------------------------
# Weyl group enumeration

MAX_GROUP_SIZE = 200_000


def group_closure(gens, n: int) -> Dict[Mat, Tuple[int, Mat]]:
    """Every element of the group generated by the n x n integer reflections
    gens, with its Cayley length and its inverse, by breadth-first search.
    Each s is read once as I - c r^T (_reflection_factors), so x = g s takes
    from each row g_i of g the multiple (g_i . c) r, and x^{-1} = s g^{-1}
    takes c_i (r^T g^{-1}) from each row i of g^{-1} with c_i != 0.
    GroupTooLarge past MAX_GROUP_SIZE."""
    unit = identity(n)
    gens = [_reflection_factors(s, n) for s in gens]
    closure = {unit: (0, unit)}
    frontier = [unit]
    while frontier:
        new = []
        for g in frontier:
            length, g_inv = closure[g]
            for c, r in gens:
                x = tuple([tuple([a - k * b for a, b in zip(row, r)]) if (k := sum(map(mul, row, c))) else row for row in g])
                if x not in closure:
                    v = [sum(map(mul, r, col)) for col in zip(*g_inv)]  # r^T g^{-1}
                    x_inv = tuple([tuple([a - ci * b for a, b in zip(row, v)]) if ci else row for ci, row in zip(c, g_inv)])
                    closure[x] = (length + 1, x_inv)
                    new.append(x)
                    if len(closure) > MAX_GROUP_SIZE:
                        raise GroupTooLarge(f"group exceeds the bound MAX_GROUP_SIZE = {MAX_GROUP_SIZE}")
        frontier = new
    return closure


def _reflection_factors(s, n: int):
    """(c, r) with s = I - c r^T, r primitive and c . r = 2, which makes s an
    involution fixing the hyperplane r^T x = 0; ValueError names an s that is
    not such an n x n integer reflection."""
    m = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(s)]  # c r^T
    row = next((row for row in m if any(row)), None)
    if row is not None and len(m) == len(row) == n:
        g = math.gcd(*row)
        r = [x // g for x in row]
        j = next(j for j, x in enumerate(r) if x)
        c = [row[j] // r[j] for row in m]
        if m == [[ci * rj for rj in r] for ci in c] and sum(map(mul, c, r)) == 2:
            return c, r
    raise ValueError(f"generator {s} is not a reflection")


class WeylGroup(tuple):
    """The finite Weyl group as a sorted tuple of matrices on the cocharacter
    lattice; inverse[w] is w^{-1}, recorded by the closure that lists it."""

    inverse: Mapping[Mat, Mat]


@lru_cache(maxsize=None)
def weyl_elements(rd: RootDatum) -> WeylGroup:
    """The full finite Weyl group as matrices on the cocharacter lattice."""
    closure = group_closure(rd.simple_reflections(), rd.rank)
    group = WeylGroup(sorted(closure))
    group.inverse = MappingProxyType({w: w_inv for w, (_, w_inv) in closure.items()})
    return group


def longest_element(rd: RootDatum) -> Mat:
    """w0: the unique element sending every positive root to a negative one.
    w sends the coroot of a to the coroot of w(a), so it reads the signs of
    coroot images."""
    w = identity(rd.rank)
    while True:
        for i in rd.simple_indices:
            if rd.is_positive_coroot(mat_vec(w, rd.coroots[i])):
                w = mat_mul(w, rd.reflection(i))
                break
        else:
            return w


# Weyl parts repeat across the elements the slice action inverts (it takes
# integer numerators times columns of w^{-1}); each miss takes one integer
# Hermite form.  Stabilizer cosets read weyl_elements(rd).inverse instead
MAT_INV_INT_CACHE = 4096


@lru_cache(maxsize=MAT_INV_INT_CACHE)
def mat_inv_int(m: Mat) -> Mat:
    """Inverse of a hashable integer matrix whose inverse is integral: the
    Hermite form u m = h is then I, so u is the inverse; ValueError if m is
    singular (h has a zero row) or its inverse is not integral."""
    h, u = hermite_normal_form(m)
    if h != identity(len(m)):
        raise ValueError("singular matrix" if not all(map(any, h)) else f"matrix {m} has no integral inverse")
    return u


# ---------------------------------------------------------------------------
# duality and isomorphism


def langlands_dual(rd: RootDatum) -> RootDatum:
    return RootDatum(
        rd.rank,
        rd.coroots,
        rd.roots,
        rd.simple_indices,
        None,
        f"dual({rd.name})" if rd.name else "",
    )


def cartan_matrix(rd: RootDatum, coroots) -> Mat:
    """The Cartan integers c_ij = <a_i, b_j>, a_i the root of the coroot b_i:
    row i pairs the root of b_i with every given coroot.  On the simple
    coroots of C2 with a_0 short, c_01 = -1 and c_10 = -2."""
    roots = [rd.roots[_coroot_table(rd).index[tuple(b)]] for b in coroots]
    return tuple(tuple(dot(a, b) for b in coroots) for a in roots)


def _diagram_bijections(c1, c2):
    """Permutations sigma with c2[sigma(i)][sigma(j)] == c1[i][j]."""
    n = len(c1)
    if len(c2) != n:
        return
    from itertools import permutations

    for perm in permutations(range(n)):
        if all(c2[perm[i]][perm[j]] == c1[i][j] for i in range(n) for j in range(n)):
            yield perm


def is_isomorphic(rd1: RootDatum, rd2: RootDatum) -> bool:
    """Root-datum isomorphism over Z (lattice change + simple relabeling)."""
    if rd1.rank != rd2.rank or len(rd1.roots) != len(rd2.roots):
        return False
    if not rd1.roots:
        return True
    n = rd1.rank
    semisimple = mat_rank(tuple(zip(*rd1.simple_coroots))) == n
    if not semisimple:
        # reductive fallback: identical data up to simple relabeling
        return sorted(rd1.roots) == sorted(rd2.roots) and sorted(rd1.coroots) == sorted(rd2.coroots)
    m1 = tuple(zip(*rd1.simple_coroots))  # columns are simple coroots
    c1, c2 = cartan_matrix(rd1, rd1.simple_coroots), cartan_matrix(rd2, rd2.simple_coroots)
    for perm in _diagram_bijections(c1, c2):
        cols2 = tuple(zip(*(rd2.simple_coroots[p] for p in perm)))
        try:
            p_mat = mat_mul(cols2, mat_inv(m1))
        except ValueError:
            continue
        if any(x.denominator != 1 for row in p_mat for x in row):
            continue
        p_int = tuple(tuple(int(x) for x in row) for row in p_mat)
        if abs(det(p_int)) != 1:
            continue
        if {tuple(mat_vec(p_int, cv)) for cv in rd1.coroots} != set(rd2.coroots):
            continue
        p_inv_t = transpose(mat_inv_int(p_int))  # |det| = 1: the inverse is integral
        if {tuple(mat_vec(p_inv_t, a)) for a in rd1.roots} == set(rd2.roots):
            return True
    return False
