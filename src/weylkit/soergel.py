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
elimination divides by a pivot other than 1.  The map of a polynomial is
built by composing these maps, and every kernel, span and quotient is taken
on sparse rows by exact._rref, the package's one reduced-echelon routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, Optional, Sequence, Tuple

from weylkit.exact import Mat, _exact, _rref, hermite_normal_form, identity, mat_inv, mat_mul, mat_vec, rank as mat_rank, transpose
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

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.coeffs}
        return len(degs) <= 1

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


def _divide_by_linear(f: Poly, alpha: Poly) -> Poly:
    """Exact division f / alpha for a linear form alpha; remainder must vanish.
    Each step cancels the term of rem largest by (e[pivot], e) exactly with
    t alpha, and every other term of t alpha has a lower pivot exponent and
    the same degree; so that largest (e[pivot], e) falls strictly, among the
    finitely many exponents of bounded degree, and the loop ends."""
    n = f.n
    pivot = min(i for e in alpha.coeffs for i, k in enumerate(e) if k)
    c_piv = alpha.coeffs[tuple(int(k == pivot) for k in range(n))]
    quotient = Poly.zero(n)
    rem = f
    while True:
        terms = [(e, c) for e, c in rem.coeffs.items() if e[pivot] > 0]
        if not terms:
            break
        e, c = max(terms, key=lambda t: (t[0][pivot], t[0]))
        e_quot = tuple(k - int(i == pivot) for i, k in enumerate(e))
        t = Poly(n, {e_quot: Fraction(c, c_piv)})
        quotient = quotient + t
        rem = rem - t * alpha
    if not rem.is_zero():
        raise ValueError("polynomial is not divisible by the linear form")
    return quotient


def demazure(m: Mat, f: Poly, alpha: Optional[Poly] = None) -> Poly:
    """Divided difference (f - r.f)/alpha_r with the canonical alpha."""
    if alpha is None:
        alpha = reflection_equation(m)
    return _divide_by_linear(f - reflection_action(m, f), alpha)


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

    def right_matrix_of_poly(self, f: Poly):
        """Evaluate f on the commuting right-action matrices."""
        n_b = self.rank()
        out = [[Poly.zero(self.n) for _ in range(n_b)] for _ in range(n_b)]
        powers: Dict[Tuple[int, ...], list] = {}

        def mat_of_monomial(e):
            acc = [[Poly.const(self.n, int(i == j)) for j in range(n_b)] for i in range(n_b)]
            for j, k in enumerate(e):
                for _ in range(k):
                    acc = _poly_mat_mul(self.right_action[j], acc)
            return acc

        for e, c in f.coeffs.items():
            if e not in powers:
                powers[e] = mat_of_monomial(e)
            me = powers[e]
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


def free_module(n: int) -> Bimodule:
    """R itself: rank one, right action = left action."""
    return Bimodule(n, (0,), tuple(((Poly.variable(n, j),),) for j in range(n)))


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
    action = []
    for j in range(n):
        big = [[Poly.zero(n) for _ in range(ra * rb)] for _ in range(ra * rb)]
        coeff_mats = {}
        for l in range(rb):
            for q in range(rb):
                c = b.right_action[j][l][q]
                if c.is_zero():
                    continue
                if c not in coeff_mats:
                    coeff_mats[c] = a.right_matrix_of_poly(c)
                ca = coeff_mats[c]
                for mrow in range(ra):
                    for p in range(ra):
                        if ca[mrow][p].is_zero():
                            continue
                        big[mrow * rb + l][p * rb + q] = big[mrow * rb + l][p * rb + q] + ca[mrow][p]
        action.append(tuple(tuple(row) for row in big))
    return Bimodule(n, degs, tuple(action))


def word_bimodule(reflections: Sequence[Mat]) -> Bimodule:
    n = len(reflections[0])
    out = free_module(n)
    for m in reflections:
        out = tensor(out, bott_samelson_bimodule(m))
    return out


# ---------------------------------------------------------------------------
# truncated graded modules


def _monomials(n: int, d: int):
    if n == 0:
        return [()] if d == 0 else []
    out = []
    for first in range(d + 1):
        for rest in _monomials(n - 1, d - first):
            out.append((first,) + rest)
    return out


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


def _combination(coeffs, maps):
    """The map sum_t coeffs[t] * maps[t]: its column c is the vector coeffs
    pushed through the columns c of the maps."""
    return tuple(tuple(_apply(cols, enumerate(coeffs)).items()) for cols in zip(*maps))


def _stacked_rows(maps):
    """The nonzero rows {column: coefficient} of the maps stacked vertically."""
    rows = {}
    for t, cols in enumerate(maps):
        for c, col in enumerate(cols):
            for r, x in col:
                rows.setdefault((t, r), {})[c] = x
    return list(rows.values())


def _kernel_basis(rows, ncols):
    """Basis of the kernel of the sparse rows as maps on ncols coordinates:
    one vector per non-pivot column."""
    pivots, reduced, _ = _rref(rows)
    pivot_set = set(pivots)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in pivot_set}
    for p, row in zip(pivots, reduced):
        for k, y in row.items():
            if k != p:
                basis[k][p] = -y
    return list(basis.values())


def _row_space_dim(vectors) -> int:
    return len(_rref(vectors)[0])


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
        n = bm.n
        basis_by_deg = []
        index = []
        for d in range(depth + 1):
            layer = []
            for i, bd in enumerate(bm.basis_degrees):
                rem = d - bd
                if rem < 0:
                    continue
                for mono in _monomials(n, rem):
                    layer.append((i, mono))
            basis_by_deg.append(layer)
            index.append({key: pos for pos, key in enumerate(layer)})
        dims = [len(layer) for layer in basis_by_deg]
        left = [[None] * depth for _ in range(n)]
        right = [[None] * depth for _ in range(n)]
        for j in range(n):
            for d in range(depth):
                lcols, rcols = [], []
                for i, mono in basis_by_deg[d]:
                    up = tuple(k + int(t == j) for t, k in enumerate(mono))
                    lcols.append(((index[d + 1][(i, up)], 1),))
                    col = {}
                    for l in range(bm.rank()):
                        for e, cf in bm.right_action[j][l][i].coeffs.items():
                            pos = index[d + 1][(l, tuple(a + b for a, b in zip(mono, e)))]
                            col[pos] = col.get(pos, 0) + cf
                    rcols.append(tuple((pos, _exact(c)) for pos, c in col.items() if c))
                left[j][d] = tuple(lcols)
                right[j][d] = tuple(rcols)
        return TruncModule(n, dims, left, right)


def graph_sections(mod: TruncModule, w: Mat):
    """Per degree, a basis of the sections supported on Gamma^w = {x = w(y)}:
    the right action of y_j equals the left action of (w^{-1} x)_j.

    Below the top degree D this is the kernel of right-minus-twisted-left
    into the next degree.  Degree D has no next degree to test against, so
    its layer is the left span R_1 * (degree D-1 sections).  That is exact
    when the section module is generated as a left R-module in degrees
    < D.  For the support filtration of a Bott-Samelson bimodule of a word
    of length k this holds once D > k: by the standard filtration each
    subquotient is a sum of shifted standard bimodules, free as left
    R-modules on generators of degree #D0 + #U1 <= k, counted over the
    subexpressions of the word (the same count as the Hecke-side formula
    v-exponent = k + l(w) - 2 (generator degree))."""
    winv = [[_exact(x) for x in row] for row in mat_inv(w)]
    n = mod.n
    depth = len(mod.dims) - 1
    if depth < 1:
        raise ValueError("graph_sections needs a module truncated at degree >= 1")
    out = []
    for d in range(depth):
        ops = []
        for j in range(n):
            twist = [l for l in range(n) if winv[j][l]]
            ops.append(
                _combination([1] + [-winv[j][l] for l in twist], [mod.right[j][d]] + [mod.left[l][d] for l in twist])
            )
        out.append(_kernel_basis(_stacked_rows(ops), mod.dims[d]))
    out.append(_rref(_left_span_images(mod, out[-1], depth))[1])
    return out


def quotient_module(mod: TruncModule, sub_bases) -> TruncModule:
    """Quotient by a degreewise subspace closed under both actions.

    The quotient keeps the non-pivot positions of the subspace's reduced
    echelon form; projecting onto them sends a pivot position p to minus
    the rest of the pivot row of p.  The quotient's maps are the
    projections composed with the maps restricted to the kept positions."""
    n = mod.n
    depth = len(mod.dims) - 1
    kept, projections = [], []
    for d in range(depth + 1):
        pivots, reduced, _ = _rref(sub_bases[d] if d < len(sub_bases) else [])
        rows = dict(zip(pivots, reduced))
        keep = [c for c in range(mod.dims[d]) if c not in rows]
        new = {c: pos for pos, c in enumerate(keep)}
        projections.append(
            tuple(
                tuple((new[k], -y) for k, y in rows[c].items() if k != c) if c in rows else ((new[c], 1),)
                for c in range(mod.dims[d])
            )
        )
        kept.append(keep)
    left = [[None] * depth for _ in range(n)]
    right = [[None] * depth for _ in range(n)]
    for j in range(n):
        for d in range(depth):
            left[j][d] = _compose(projections[d + 1], [mod.left[j][d][c] for c in kept[d]])
            right[j][d] = _compose(projections[d + 1], [mod.right[j][d][c] for c in kept[d]])
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
        coeffs: Dict[int, int] = {}
        for d in range(len(mod.dims) - 1):
            # generators in degree d: sections not in the left span of degree d-1
            new = len(secs[d]) - (_row_space_dim(_left_span_images(mod, secs[d - 1], d)) if d else 0)
            if new:
                coeffs[k + lengths[g] - 2 * d] = new
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
    """Exact degreewise check of H_End = H_{Gamma^1} + H_{Gamma^r} - H_{hyp}."""
    n = len(m)
    bm = bott_samelson_bimodule(m)
    mod = TruncModule.from_bimodule(bm, depth)
    alpha = reflection_equation(m)

    # End(B_r) = annihilator of the defining ideal acting by left-minus-right
    # on B_r; generators: invariant linear forms and alpha^2
    invariant_linear = _invariant_linear_forms(m)
    gens = [Poly.linear([v.get(i, 0) for i in range(n)]) for v in invariant_linear] + [alpha * alpha]
    end_dims = []
    for d in range(depth):
        ops = [op for op in (_left_minus_right(mod, g, d) for g in gens) if op is not None]
        end_dims.append(len(_kernel_basis(_stacked_rows(ops), mod.dims[d])))

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


def _invariant_linear_forms(m: Mat):
    """Basis of covectors fixed by the reflection (the hyperplane equations'
    complement): kernel of (m^T - 1)."""
    rows = [{j: x - int(i == j) for j, x in enumerate(row) if x != int(i == j)} for i, row in enumerate(transpose(m))]
    return _kernel_basis(rows, len(m))


def _left_minus_right(mod: TruncModule, g: Poly, d: int):
    """Map (left mult by g) - (right mult by g) from degree d, or None when
    its target lies above the truncation.  Each monomial's map on a side is
    the composite of that side's maps by its variables."""
    if not g.is_homogeneous():
        raise ValueError(f"left-minus-right needs a homogeneous polynomial, not {g}")
    deg = g.degree()
    if d + deg >= len(mod.dims):
        return None
    coeffs, maps = [], []
    for e, cf in g.coeffs.items():
        for sign, side in ((1, mod.left), (-1, mod.right)):
            composite = tuple(((c, 1),) for c in range(mod.dims[d]))
            for step, j in enumerate(j for j, k in enumerate(e) for _ in range(k)):
                composite = _compose(side[j][d + step], composite)
            coeffs.append(sign * _exact(cf))
            maps.append(composite)
    return _combination(coeffs, maps)
