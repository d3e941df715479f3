"""Toy polynomial model of Soergel bimodules with integral structure constants.

R is a polynomial ring on the reflection representation; B_r = R (x)_{R^r} R
is free of rank two as a left module with basis (1(x)1, 1(x)delta_r), delta_r
an integral linear form with nonzero divided difference.  Words of
reflections give tensor bimodules, whose standard-graph multiplicities are
read off by a support filtration computed degreewise, cross-checked by the
rank of the fiber of the graph-twisted quotient over a deterministic generic
integer point.  The grading convention is pinned to the Hecke normalization
through  v-exponent = (word length) + l(w) - 2 (flag generator degree).

The degreewise model (TruncModule) keeps each multiplication map by a
variable as sparse columns with int entries; a Fraction enters only where an
elimination divides by a pivot other than 1.  End(B_r) reads a polynomial's
relation off its right-action matrix in one step, shifted by each basis
monomial, with no truncated module and no composed map.  Each kernel and
span is taken on sparse rows by exact._rref, the package's one
reduced-echelon routine.  The sections of a degree keep the echelon form
that elimination gives, {pivot: row} with one row per pivot, 1 at its pivot
and 0 at the other pivots: the kernel basis at its free columns, the top
layer as _rref returns it.  So quotient_module eliminates nothing, and the
generator count is a rank read on the pivot coordinates alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add
from typing import Dict, Optional, Sequence, Tuple

from weylkit.exact import Mat, _exact, _rref, hermite_normal_form, identity, mat_mul, mat_vec, rank as mat_rank
from weylkit.hecke import LaurentPoly
from weylkit.rootdata import _reflection_factors, group_closure


class NotAReflection(ValueError):
    pass


class GenericPointCollision(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Multivariate polynomial over Q: {exponent tuple: coefficient}, each
    coefficient an int where it is an integer and a Fraction otherwise."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Optional[Dict[Tuple[int, ...], object]] = None):
        self.n = n
        self.coeffs = {e: c if type(c) is int else _exact(Fraction(c)) for e, c in (coeffs or {}).items() if c}

    @staticmethod
    def zero(n: int) -> "Poly":
        return Poly(n)

    @staticmethod
    def const(n: int, c) -> "Poly":
        return Poly(n, {(0,) * n: c})

    @staticmethod
    def variable(n: int, i: int) -> "Poly":
        e = tuple(int(k == i) for k in range(n))
        return Poly(n, {e: 1})

    @staticmethod
    def linear(coeffs) -> "Poly":
        n = len(coeffs)
        return Poly(n, {tuple(int(k == i) for k in range(n)): c for i, c in enumerate(coeffs)})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.n, out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return Poly(self.n, out)

    def __mul__(self, other: "Poly") -> "Poly":
        out: Dict[Tuple[int, ...], object] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.n, out)

    def scale(self, c) -> "Poly":
        return Poly(self.n, {e: c * v for e, v in self.coeffs.items()})

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def substitute_linear(self, m: Mat) -> "Poly":
        """f(v) |-> f(M v): substitute x_i by the i-th row of M."""
        rows = [Poly.linear(row) for row in m]
        out = Poly.zero(self.n)
        cache: Dict[Tuple[int, ...], Poly] = {}
        for e, c in self.coeffs.items():
            if e not in cache:
                acc = Poly.const(self.n, 1)
                for i, k in enumerate(e):
                    for _ in range(k):
                        acc = acc * rows[i]
                cache[e] = acc
            out = out + cache[e].scale(c)
        return out

    def evaluate(self, point):
        total = 0
        for e, c in self.coeffs.items():
            val = c
            for x, k in zip(point, e):
                for _ in range(k):
                    val *= x
            total += val
        return total

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            mono = "*".join(f"z{i}^{k}" if k > 1 else f"z{i}" for i, k in enumerate(e) if k)
            c = self.coeffs[e]
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def reflection_action(m: Mat, f: Poly) -> Poly:
    """(r . f)(v) = f(r^{-1} v) = f(r v) for an involution."""
    return f.substitute_linear(m)


def reflection_equation(m: Mat) -> Poly:
    """Canonical linear equation of the fixed hyperplane: content one, first
    nonzero coefficient positive."""
    return Poly.linear(_rank_one_factors(m)[0])


def _rank_one_factors(m: Mat):
    """(alpha, c): integer vectors of content one with I - m = g c alpha^T
    for an integer g > 0, alpha's first nonzero entry positive, read off
    rootdata's factors I - m = c' r^T (r primitive, c' . r = 2).  alpha holds
    the canonical equation's coefficients and g c_j is the divided
    difference of x_j.  NotAReflection unless m is an integer reflection."""
    try:
        c, r = _reflection_factors(m, len(m))
    except ValueError:
        raise NotAReflection(f"{m} is not a reflection: I - m is not c r^T with c . r = 2") from None
    sign, g = (1 if next(x for x in r if x) > 0 else -1), gcd(*c)
    return [sign * x for x in r], [sign * x // g for x in c]


# ---------------------------------------------------------------------------
# bimodules presented by a free left basis and right-action matrices


@dataclass(frozen=True)
class Bimodule:
    n: int
    basis_degrees: Tuple[int, ...]
    # right_action[j][l][i] = coefficient (Poly in the left variables) of
    # e_l in e_i . x_j
    right_action: Tuple[Tuple[Tuple[Poly, ...], ...], ...]

    def rank(self) -> int:
        return len(self.basis_degrees)


def _right_matrix(bm: Bimodule, f: Poly, powers):
    """f on bm's right-action matrices; powers is a table {e: matrix of x^e}
    shared by the calls on one bimodule, x^e built from x^(e - e_j) by one
    product, and x_j's matrix bm's own."""
    n_b = bm.rank()

    def power(e):
        if e not in powers:
            j = next((j for j, k in enumerate(e) if k), None)
            if j is None:
                powers[e] = [[Poly.const(bm.n, int(a == b)) for b in range(n_b)] for a in range(n_b)]
            else:
                rest = e[:j] + (e[j] - 1,) + e[j + 1 :]
                powers[e] = _poly_mat_mul(bm.right_action[j], power(rest)) if any(rest) else bm.right_action[j]
        return powers[e]

    out = [[Poly.zero(bm.n) for _ in range(n_b)] for _ in range(n_b)]
    for e, c in f.coeffs.items():
        me = power(e)
        for a in range(n_b):
            for b in range(n_b):
                out[a][b] = out[a][b] + me[a][b].scale(c)
    return out


def _poly_mat_mul(a, b):
    size = len(a)
    n = a[0][0].n
    out = [[Poly.zero(n) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            acc = Poly.zero(n)
            for k in range(size):
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def bott_samelson_bimodule(m: Mat) -> Bimodule:
    """B_r with left basis (1(x)1, 1(x)delta), degrees (0, 1).

    With v = g c the divided differences of the variables, delta = sum b_j
    x_j for the Bezout vector b of c in the Hermite form of the column c, so
    delta has divided difference sum b_j v_j = g = gcd(v): (1, delta) is a
    basis once g is invertible.  inv_j = x_j - c_j delta is r-invariant, and
    delta^2 = (delta + r delta) delta - delta r(delta), so every right-action
    coefficient is in Z[x].  The basis (1(x)1, 1(x)alpha) divides by
    d(alpha) = 2 instead; a model over F_l needs only l not dividing g."""
    c = _rank_one_factors(m)[1]
    n = len(m)
    delta = Poly.linear(hermite_normal_form([(x,) for x in c])[1][0])
    r_delta = reflection_action(m, delta)
    norm, trace = delta * r_delta, delta + r_delta
    action = []
    for j, cj in enumerate(c):
        inv = Poly.variable(n, j) - delta.scale(cj)
        # e_0 . x_j = inv e_0 + c_j e_1 ; e_1 . x_j = -c_j norm e_0 + (inv + c_j trace) e_1
        action.append(((inv, norm.scale(-cj)), (Poly.const(n, cj), inv + trace.scale(cj))))
    return Bimodule(n, (0, 1), tuple(action))


def tensor(a: Bimodule, b: Bimodule) -> Bimodule:
    """a (x)_R b with basis pairs (p, q) -> index p * rank(b) + q."""
    if a.n != b.n:
        raise ValueError(f"tensor of bimodules over {a.n} and {b.n} variables")
    n = a.n
    ra, rb = a.rank(), b.rank()
    degs = tuple(a.basis_degrees[p] + b.basis_degrees[q] for p in range(ra) for q in range(rb))
    action, coeff_mats, powers, zero = [], {}, {}, Poly.zero(n)
    for j in range(n):
        for row in b.right_action[j]:
            for c in row:
                if c.coeffs and c not in coeff_mats:
                    coeff_mats[c] = _right_matrix(a, c, powers)
        # (e_p (x) e_q) . x_j = sum_l (e_p . c_lq) (x) e_l for b's entries c_lq:
        # entry ((m, l), (p, q)) is entry (m, p) of a's matrix of c_lq
        action.append(
            tuple(
                tuple(coeff_mats[c][mrow][p] if c.coeffs else zero for p in range(ra) for c in row)
                for mrow in range(ra)
                for row in b.right_action[j]
            )
        )
    return Bimodule(n, degs, tuple(action))


def word_bimodule(reflections: Sequence[Mat]) -> Bimodule:
    out = bott_samelson_bimodule(reflections[0])
    for m in reflections[1:]:
        out = tensor(out, bott_samelson_bimodule(m))
    return out


# ---------------------------------------------------------------------------
# truncated graded modules


# Sparse linear algebra.  A vector is a dict {position: nonzero coefficient};
# a map is a tuple of its columns, column c being the (target position,
# nonzero coefficient) pairs of the image of basis vector c.  Coefficients
# are ints where they are integers and Fractions otherwise.


def _apply(cols, vec):
    """Image of vec, given as (position, coefficient) pairs, under the map
    with columns cols."""
    out = {}
    for c, x in vec:
        for r, a in cols[c]:
            out[r] = out.get(r, 0) + a * x
    return {r: _exact(y) for r, y in out.items() if y}


def _compose(outer, inner):
    """The map outer o inner."""
    return tuple(tuple(_apply(outer, col).items()) for col in inner)


def _stacked_rows(blocks):
    """The nonzero rows {column: coefficient} of the maps sum_t a_t M_t
    stacked vertically, one map per block of (a_t, M_t) terms."""
    rows = {}
    for b, terms in enumerate(blocks):
        for a, cols in terms:
            for c, col in enumerate(cols):
                for r, x in col:
                    row = rows.setdefault((b, r), {})
                    row[c] = row.get(c, 0) + a * x
    return [row for row in ({c: _exact(y) for c, y in row.items() if y} for row in rows.values()) if row]


def _kernel_basis(rows, ncols):
    """Basis of the kernel of the sparse rows as maps on ncols coordinates,
    {free column: vector}: each vector is 1 at its own free column and 0 at
    the other free columns.  The kernel does not depend on the order of the
    rows; eliminating the sparsest first makes less fill-in."""
    pivots, reduced, _ = _rref(sorted(rows, key=len))
    pivot_set = set(pivots)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in pivot_set}
    for p, row in zip(pivots, reduced):
        for k, y in row.items():
            if k != p:
                basis[k][p] = -y
    return basis


class TruncModule:
    """Degreewise model of a graded bimodule up to degree D: vector spaces
    with commuting left and right multiplication maps by the variables.

    dims[d] is the dimension in degree d.  left[j][d] and right[j][d] are
    the maps from degree d to degree d + 1, stored as sparse columns: for
    each source basis position, the (target position, nonzero coefficient)
    pairs of its image, coefficients int, or Fraction where a quotient
    divided by a pivot other than 1."""

    def __init__(self, n, dims, left, right):
        self.n = n
        self.dims = dims
        self.left = left
        self.right = right

    @staticmethod
    def from_bimodule(bm: Bimodule, depth: int) -> "TruncModule":
        n, rank = bm.n, bm.rank()
        layers, index = _layers(bm, depth)
        left = [[None] * depth for _ in range(n)]
        right = [[None] * depth for _ in range(n)]
        for j in range(n):
            unit = tuple(int(t == j) for t in range(n))
            # the terms (l, e, coefficient) of e_i . x_j, read once per i
            terms = [[(l, e, cf) for l in range(rank) for e, cf in bm.right_action[j][l][i].coeffs.items()] for i in range(rank)]
            for d in range(depth):
                up = index[d + 1]
                left[j][d] = tuple(((up[(i, tuple(map(add, mono, unit)))], 1),) for i, mono in layers[d])
                right[j][d] = _shifted_columns(terms, layers[d], up)
        return TruncModule(n, [len(layer) for layer in layers], left, right)


def _layers(bm: Bimodule, depth: int):
    """The basis (i, mono) = mono e_i of each degree 0..depth of bm, and per
    degree the index {(i, mono): position}."""
    monos = [[()]] + [[] for _ in range(depth)]  # monos[s]: exponents of degree s
    for _ in range(bm.n):
        monos = [[(f,) + rest for f in range(s + 1) for rest in monos[s - f]] for s in range(depth + 1)]
    layers = [[(i, mono) for i, bd in enumerate(bm.basis_degrees) if bd <= d for mono in monos[d - bd]] for d in range(depth + 1)]
    return layers, [{key: pos for pos, key in enumerate(layer)} for layer in layers]


def _shifted_columns(terms, layer, up):
    """Sparse columns of the map that sends e_i to the sum of cf x^e e_l over
    terms[i] = [(l, e, cf), ...], on the basis positions (i, mono) of one
    layer: each term shifted by mono, positions read in the target's index."""
    cols = []
    for i, mono in layer:
        col = {}
        for l, e, cf in terms[i]:
            pos = up[(l, tuple(map(add, mono, e)))]
            col[pos] = col.get(pos, 0) + cf
        cols.append(tuple((pos, _exact(c)) for pos, c in col.items() if c))
    return tuple(cols)


def graph_sections(mod: TruncModule, w: Mat):
    """Per degree, the sections supported on Gamma^w = {x = w(y)} in echelon
    form {pivot: row}: each row is 1 at its pivot and 0 at the other pivots
    of its degree.  On Gamma^w the left action of x_i equals the right action
    of (w y)_i, so the relations twist by w itself and need no inverse.

    Below the top degree D the sections are the kernel of left-minus-twisted-
    right into the next degree, one row per free column of the relations.
    Degree D has no next degree to test against, so its layer is the reduced
    echelon form of the left span R_1 * (degree D-1 sections).  That is exact
    when the section module is generated as a left R-module in degrees
    < D.  For the support filtration of a Bott-Samelson bimodule of a word
    of length k this holds once D > k: by the standard filtration each
    subquotient is a sum of shifted standard bimodules, free as left
    R-modules on generators of degree #D0 + #U1 <= k, counted over the
    subexpressions of the word (the same count as the Hecke-side formula
    v-exponent = k + l(w) - 2 (generator degree))."""
    n = mod.n
    depth = len(mod.dims) - 1
    if depth < 1:
        raise ValueError("graph_sections needs a module truncated at degree >= 1")
    out = []
    for d in range(depth):
        blocks = [[(1, mod.left[i][d])] + [(-x, mod.right[l][d]) for l, x in enumerate(w[i]) if x] for i in range(n)]
        out.append(_kernel_basis(_stacked_rows(blocks), mod.dims[d]))
    pivots, reduced, _ = _rref(_left_span_images(mod, out[-1].values(), depth))
    out.append(dict(zip(pivots, reduced)))
    return out


def quotient_module(mod: TruncModule, sections) -> TruncModule:
    """Quotient by a degreewise subspace closed under both actions, given in
    echelon form {pivot: row} per degree as graph_sections returns it; no
    elimination is needed.

    The quotient keeps the non-pivot positions; projecting onto them sends a
    pivot position p to minus the rest of the row of p.  The quotient's maps
    are the projections composed with the maps restricted to the kept
    positions, and the zero module when the rows cover every position."""
    n = mod.n
    depth = len(mod.dims) - 1
    kept = [[c for c in range(dim) if c not in rows] for dim, rows in zip(mod.dims, sections)]
    if not any(kept):
        return TruncModule(n, [0] * (depth + 1), [[()] * depth for _ in range(n)], [[()] * depth for _ in range(n)])
    projections = []
    for dim, rows, keep in zip(mod.dims, sections, kept):
        new = {c: pos for pos, c in enumerate(keep)}
        projections.append(
            tuple(tuple((new[k], -y) for k, y in rows[c].items() if k != c) if c in rows else ((new[c], 1),) for c in range(dim))
        )
    left = [[_compose(projections[d + 1], [mod.left[j][d][c] for c in kept[d]]) for d in range(depth)] for j in range(n)]
    right = [[_compose(projections[d + 1], [mod.right[j][d][c] for c in kept[d]]) for d in range(depth)] for j in range(n)]
    return TruncModule(n, [len(keep) for keep in kept], left, right)


def _left_span_images(mod: TruncModule, basis_prev, d):
    return [_apply(mod.left[j][d - 1], v.items()) for j in range(mod.n) for v in basis_prev]


# ---------------------------------------------------------------------------
# graph characters


def _generic_point(n: int, seed: int):
    """The point (1/p_0^k_0, ..., 1/p_{n-1}^k_{n-1}) scaled by the lcm of its
    denominators to integers.  Every right-action entry (l, i) is homogeneous
    of degree 1 + deg e_i - deg e_l, so at lambda p each stacked fiber matrix
    is lambda D^-1 M(p) D with D = diag(lambda^deg) and keeps its rank; and
    {g p} is distinct exactly when {g lambda p} is."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    dens = [primes[(seed + i) % len(primes)] ** (1 + (seed + i) // len(primes)) for i in range(n)]
    return tuple(lcm(*dens) // d for d in dens)


def graph_character_table(reflections: Sequence[Mat], depth: Optional[int] = None) -> Dict[Mat, LaurentPoly]:
    """Graded multiplicity of every standard graph Gamma^w in the tensor of
    the Bott-Samelson bimodules of a nonempty word, keyed by w.

    `depth` is the top polynomial degree D of the truncated degreewise model.
    It must exceed the word length k, because all generators of the support
    filtration lie in degrees <= k and the top layer is derived from degree
    D-1 (see graph_sections); the default is k + 2.  After the filtration
    the remaining quotient must be zero in every degree up to D, and the
    ungraded counts are cross-checked against fiber ranks at a generic point.
    """
    k = len(reflections)
    if k == 0:
        raise ValueError("graph_character_table needs a nonempty word")
    if depth is None:
        depth = k + 2
    elif depth <= k:
        raise ValueError(f"depth {depth} must exceed the word length {k}")
    n = len(reflections[0])
    gens = list(dict.fromkeys(tuple(map(tuple, m)) for m in reflections))
    bm = word_bimodule(reflections)
    lengths = {g: length for g, (length, _) in group_closure(gens, n).items()}
    # support: products of all subwords
    supp = set()
    for mask in range(2**k):
        acc = identity(n)
        for i in range(k):
            if mask & (1 << i):
                acc = mat_mul(acc, reflections[i])
        supp.add(acc)
    mod = TruncModule.from_bimodule(bm, depth)
    order = sorted(supp, key=lambda g: (-lengths[g], g))
    out: Dict[Mat, LaurentPoly] = {}
    for g in order:
        secs = graph_sections(mod, g)
        # generators in degree d: sections not in the left span of degree
        # d-1, whose rank is read on the pivots of the degree-d sections
        coeffs = {k + lengths[g]: len(secs[0])}
        for d in range(1, len(mod.dims) - 1):
            span = [{p: y for p, y in v.items() if p in secs[d]} for v in _left_span_images(mod, secs[d - 1].values(), d)]
            coeffs[k + lengths[g] - 2 * d] = len(secs[d]) - len(_rref(span)[0])
        out[g] = LaurentPoly(coeffs)
        mod = quotient_module(mod, secs)
    if any(mod.dims):
        raise GenericPointCollision("support filtration did not exhaust the module")
    # cross-check: generic-point fiber ranks reproduce the ungraded counts
    for attempt in range(6):
        point = _generic_point(n, attempt)
        if len({mat_vec(g, point) for g in supp}) < len(supp):
            continue
        if all(_fiber_rank_at(bm, g, point) == out[g].at_one() for g in supp):
            return out
    raise GenericPointCollision("fiber ranks disagree with the filtration")


def _fiber_rank_at(bm: Bimodule, w, point) -> int:
    """Fiber dimension of the graph-twisted quotient of T along Gamma^w at
    the point with right coordinate p (left coordinate w(p)): rank(T) minus
    the rank of the stacked evaluated relations A_j(w(p)) - p_j."""
    n = bm.n
    nb = bm.rank()
    left_pt = tuple(sum(w[i][l] * point[l] for l in range(n)) for i in range(n))
    rows = [
        tuple(bm.right_action[j][l][i].evaluate(left_pt) - (point[j] if i == l else 0) for i in range(nb))
        for j in range(n)
        for l in range(nb)
    ]
    return nb - mat_rank(rows)


# ---------------------------------------------------------------------------
# End(B_r) Hilbert-series identity


def hilbert_end_bs(m: Mat, depth: int) -> dict:
    """Exact check of H_End = H_{Gamma^1} + H_{Gamma^r} - H_{hyp} in degrees
    0..depth-1.  End(B_r) is the annihilator of b |-> g b - b g for g in the
    generators of R^r, the invariant linear forms and alpha^2; each relation
    is read once per basis element (_commutator_terms) and shifted into each
    degree, up to depth + 1 so that alpha^2 is tested in the top degree too.
    R^r passes through the tensor sign of R (x)_{R^r} R, so on a correct
    model every row is zero and End_d = dim (B_r)_d: the identity is a
    theorem, and testing alpha^2 at the top changes no report."""
    n = len(m)
    bm = bott_samelson_bimodule(m)
    # invariant covectors v: v (I - m) = 0, i.e. v . c = 0; with c_p the first
    # nonzero entry, c_p x_f - c_f x_p for f != p is an integral basis
    c = _rank_one_factors(m)[1]
    p = next(i for i, x in enumerate(c) if x)
    alpha = reflection_equation(m)
    gens = [Poly.linear([c[p] * (i == f) - c[f] * (i == p) for i in range(n)]) for f in range(n) if f != p] + [alpha * alpha]
    layers, index = _layers(bm, depth + 1)
    relations = [(g.degree(), _commutator_terms(bm, g)) for g in gens]
    end_dims = []
    for d in range(depth):
        rows = _stacked_rows([(1, _shifted_columns(terms, layers[d], index[d + k]))] for k, terms in relations)
        end_dims.append(len(layers[d]) - len(_rref(rows)[0]))

    # Gamma^1 and Gamma^r are graphs of linear maps, so each graph quotient
    # (p, q) |-> p +- q alpha of B_r is onto R, and the hyperplane ring
    # R/(alpha) has dim R_d - dim R_{d-1} in degree d
    r_dims = [comb(n + d - 1, d) for d in range(depth)]
    hyp_dims = [b - a for a, b in zip([0] + r_dims, r_dims)]
    return {
        "end": end_dims,
        "gamma1": r_dims,
        "gamma_r": list(r_dims),
        "hyperplane": hyp_dims,
        "identity": all(e == 2 * r - h for e, r, h in zip(end_dims, r_dims, hyp_dims)),
    }


def _commutator_terms(bm: Bimodule, g: Poly):
    """Per basis element e_i, the terms (l, e, coefficient) of g e_i - e_i g:
    g's own terms at l = i minus the column i of its right-action matrix,
    like terms merged.  g is homogeneous, as every generator hilbert_end_bs
    passes is, so each relation maps one degree into one degree."""
    right = _right_matrix(bm, g, {})
    out = []
    for i in range(bm.rank()):
        acc = {(i, e): cf for e, cf in g.coeffs.items()}
        for l, row in enumerate(right):
            for e, cf in row[i].coeffs.items():
                acc[(l, e)] = acc.get((l, e), 0) - cf
        out.append([(l, e, cf) for (l, e), cf in acc.items() if cf])
    return out
