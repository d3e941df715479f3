"""Output checks for the weylkit benchmark, computed apart from weylkit.

Nothing here imports weylkit.  Inputs and outputs arrive as plain data:
vectors are tuples, matrices are tuples of row tuples, rationals are
Fractions, and Laurent polynomials in v are dicts {exponent: coefficient}.
Each check returns a list of problems; an empty list means the output passed.

A root datum is a dict with "roots" and "coroots" (tuples of integer
tuples; root i pairs with coroot i) and "simple" (indices of the simple
roots).  An element t^lam w of the extended affine Weyl group is a pair
(lam, w); it acts on the rational cocharacter space by v |-> w v + lam, so
its augmented matrix is [[w, lam], [0, 1]] and the product of pairs is the
product of augmented matrices.

The checks deliberately recompute by brute force what weylkit computes with
arithmetic progressions and descent walks: lengths by enumerating affine
coroots, Coxeter entries by powering matrices, Bott-Samelson and graph
characters by summing over subexpressions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


# ---------------------------------------------------------------------------
# small exact linear algebra


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def inverse(m):
    """Exact inverse over Q by Gauss-Jordan; raises ValueError when singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        p = a[c][c]
        a[c] = [x / p for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return tuple(tuple(row[n:]) for row in a)


def coefficients(basis, v):
    """Rational coefficients of v over linearly independent basis vectors."""
    k, n = len(basis), len(v)
    a = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(v[i])] for i in range(n)]
    row = 0
    pivots = []
    for c in range(k):
        piv = next((r for r in range(row, n) if a[r][c]), None)
        if piv is None:
            raise ValueError("basis vectors are dependent")
        a[row], a[piv] = a[piv], a[row]
        p = a[row][c]
        a[row] = [x / p for x in a[row]]
        for r in range(n):
            if r != row and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(c)
        row += 1
    if any(a[r][k] for r in range(row, n)):
        raise ValueError("vector outside the span")
    return tuple(a[i][k] for i in range(k))


def pairing(form, u, v):
    return sum(u[i] * form[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


# ---------------------------------------------------------------------------
# root data and groups


def positive_coroots(datum):
    """Coroots whose root is a nonnegative combination of the simple roots."""
    simple = [datum["roots"][i] for i in datum["simple"]]
    out = set()
    for a, cv in zip(datum["roots"], datum["coroots"]):
        if all(x >= 0 for x in coefficients(simple, a)):
            out.add(tuple(cv))
    return out


def reflection(datum, coroot):
    """Matrix of s_alpha on cocharacters: v |-> v - <a, v> alpha-check."""
    i = datum["coroots"].index(tuple(coroot))
    a = datum["roots"][i]
    n = len(a)
    return tuple(tuple(int(r == c) - coroot[r] * a[c] for c in range(n)) for r in range(n))


def dual(datum):
    return {"roots": datum["coroots"], "coroots": datum["roots"], "simple": datum["simple"]}


def compose(g, h):
    """(lam, w)(mu, u) = (lam + w mu, w u), the product of augmented matrices."""
    return tuple(x + y for x, y in zip(g[0], mat_vec(g[1], h[0]))), mat_mul(g[1], h[1])


def affine_reflection(datum, coroot, n):
    """t^{n alpha} s_alpha, which fixes the wall of the affine coroot (alpha, n)."""
    return tuple(n * x for x in coroot), reflection(datum, coroot)


def order(g, cap=12):
    """Order of an affine map: the order m of its linear part when g^m is the
    identity, "infinite" when g^m is a nonzero translation."""
    n = len(g[0])
    unit = ((0,) * n, identity(n))
    p = g
    for m in range(1, cap + 1):
        if p[1] == unit[1]:
            return m if not any(p[0]) else "infinite"
        p = compose(p, g)
    raise ValueError("linear part has order above the cap")


def coxeter_problems(reflections, coxeter, label):
    out = []
    k = len(reflections)
    if len(coxeter) != k:
        return [f"{label}: Coxeter matrix has size {len(coxeter)} for {k} reflections"]
    for i in range(k):
        if coxeter[i][i] != 1:
            out.append(f"{label}: diagonal entry {i} is {coxeter[i][i]}")
        for j in range(i + 1, k):
            m = order(compose(reflections[i], reflections[j]))
            if coxeter[i][j] != m or coxeter[j][i] != m:
                out.append(f"{label}: entry ({i},{j}) is {coxeter[i][j]}, the product has order {m}")
    return out


def weyl_group(gens):
    """All products of the given matrices, with their Cayley-graph distance."""
    n = len(gens[0])
    dist = {identity(n): 0}
    frontier = [identity(n)]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                x = mat_mul(g, s)
                if x not in dist:
                    dist[x] = dist[g] + 1
                    new.append(x)
        frontier = new
    return dist


# ---------------------------------------------------------------------------
# characters and integral lengths on the character side
#
# A character point is (c, chi_f): the value c on K_c and a tuple of values
# on the cocharacter basis, all read modulo 1.  The form S is an integer
# matrix and Q(alpha) = S(alpha, alpha) / 2.


def _frac(x):
    return x - (x.numerator // x.denominator)


def extended_matrix(g, form):
    """Action of t^lam w on Z K_c + X_*: (a, v) |-> (a + S(lam, w v), w v)."""
    lam, w = g
    n = len(lam)
    top = tuple(sum(lam[i] * form[i][k] * w[k][j] for i in range(n) for k in range(n)) for j in range(n))
    return ((1,) + top,) + tuple((0,) + tuple(w[i]) for i in range(n))


def act_character(g, form, chi):
    """(g . chi) = chi o g^{-1} on the extended lattice, reduced modulo 1."""
    c, chif = chi
    row = (Fraction(c),) + tuple(Fraction(x) for x in chif)
    inv = inverse(extended_matrix(g, form))
    img = tuple(sum(row[k] * inv[k][j] for k in range(len(row))) for j in range(len(row)))
    return _frac(img[0]), tuple(_frac(x) for x in img[1:])


def same_character(a, b):
    return _frac(Fraction(a[0])) == _frac(Fraction(b[0])) and all(
        _frac(Fraction(x)) == _frac(Fraction(y)) for x, y in zip(a[1], b[1], strict=True)
    )


def is_integral(chi, form, coroot, n):
    c, chif = chi
    q = Fraction(pairing(form, coroot, coroot), 2)
    val = sum(Fraction(x) * y for x, y in zip(chif, coroot)) + n * q * Fraction(c)
    return val.denominator == 1


def integral_length(datum, form, chi, g):
    """Positive chi-integral affine coroots (alpha, n) that g sends to negative
    ones, counted one by one through the extended matrix of g."""
    pos = positive_coroots(datum)
    ext = extended_matrix(g, form)
    # levels beyond +-bound keep their sign under g
    bound = 1
    for cv in datum["coroots"]:
        q = Fraction(pairing(form, cv, cv), 2)
        bound = max(bound, abs(Fraction(mat_vec(ext, (0,) + tuple(cv))[0]) / q) + 1)
    total = 0
    for cv in datum["coroots"]:
        cv = tuple(cv)
        q = Fraction(pairing(form, cv, cv), 2)
        for n in range(-int(bound) - 1, int(bound) + 2):
            if not (n > 0 or (n == 0 and cv in pos)) or not is_integral(chi, form, cv, n):
                continue
            img = mat_vec(ext, (n * q,) + cv)
            img_cv = tuple(img[1:])
            level = Fraction(img[0]) / Fraction(pairing(form, img_cv, img_cv), 2)
            if level < 0 or (level == 0 and img_cv not in pos):
                total += 1
    return total


def simple_system_problems(datum, form, chi, simples, coxeter):
    """Each simple (alpha, n) of S_chi is chi-integral, positive, has integral
    length 1 and fixes chi; Coxeter entries are orders of products."""
    out = []
    pos = positive_coroots(datum)
    refl = []
    for cv, n in simples:
        if not (n > 0 or (n == 0 and tuple(cv) in pos)):
            out.append(f"simple {(cv, n)} is not positive")
        if not is_integral(chi, form, cv, n):
            out.append(f"simple {(cv, n)} is not integral")
        r = affine_reflection(datum, cv, n)
        length = integral_length(datum, form, chi, r)
        if length != 1:
            out.append(f"simple {(cv, n)} has integral length {length}")
        if not same_character(act_character(r, form, chi), chi):
            out.append(f"simple {(cv, n)} moves the character")
        refl.append(r)
    return out + coxeter_problems(refl, coxeter, "integral system")


def minimal_rep_problems(datum, form, chi, x, m):
    out = []
    length = integral_length(datum, form, chi, m)
    if length:
        out.append(f"minimal_rep output has integral length {length}")
    if not same_character(act_character(m, form, chi), act_character(x, form, chi)):
        out.append("minimal_rep changed the left character")
    return out


def _laurent_add(p, exp, c):
    p[exp] = p.get(exp, 0) + c
    if not p[exp]:
        del p[exp]


def t_basis_product(datum, form, chi, word):
    """b_{r_1} ... b_{r_k} in the T-basis with b_r = T_r + v and
    T_r^2 = (1/v - v) T_r + 1, lengths counted by integral_length."""
    n = len(word[0][0])
    elt = {((0,) * n, identity(n)): {0: 1}}
    lengths = {}

    def length(g):
        if g not in lengths:
            lengths[g] = integral_length(datum, form, chi, g)
        return lengths[g]

    for r in word:
        out = {}
        for g, coeff in elt.items():
            gr = compose(g, r)
            up = length(gr) > length(g)
            for exp, c in coeff.items():
                _laurent_add(out.setdefault(gr, {}), exp, c)
                # T_g b_r = T_gr + v T_g when gr > g, else T_gr + v^{-1} T_g
                _laurent_add(out.setdefault(g, {}), exp + (1 if up else -1), c)
        elt = {g: p for g, p in out.items() if p}
    return elt


def subexpression_counts(word):
    """Number of subexpressions of the word with each product."""
    n = len(word[0][0])
    counts = {}
    for mask in range(2 ** len(word)):
        g = ((0,) * n, identity(n))
        for i, r in enumerate(word):
            if mask >> i & 1:
                g = compose(g, r)
        counts[g] = counts.get(g, 0) + 1
    return counts


def bott_samelson_problems(datum, form, chi, word, table):
    """table maps (lam, w) to {exponent: coefficient}."""
    out = []
    ungraded = {g: sum(p.values()) for g, p in table.items() if sum(p.values())}
    if ungraded != subexpression_counts(word):
        out.append("coefficients at v = 1 differ from the subexpression counts")
    expected = t_basis_product(datum, form, chi, word)
    got = {g: p for g, p in table.items() if p}
    if got != expected:
        out.append("graded coefficients differ from the T-basis product")
    if any(c < 0 for p in table.values() for c in p.values()):
        out.append("negative Bott-Samelson coefficient")
    return out


# ---------------------------------------------------------------------------
# levels: slice points, alcoves and the iota map
#
# A level kappa is a rational symmetric matrix; q(alpha) = kappa(alpha,
# alpha) / 2.  The wall of (alpha, n) is {x : <x, alpha> = -n q(alpha)} and
# (alpha, n) is integral when <theta, alpha> + n q(alpha) is an integer.


def slice_act(g, kappa, x):
    """t^lam w on the slice: x |-> w^{-T} x - kappa(lam, -)."""
    lam, w = g
    winv = inverse(w)
    n = len(x)
    k_lam = mat_vec(kappa, lam)
    return tuple(sum(Fraction(x[j]) * winv[j][i] for j in range(n)) - k_lam[i] for i in range(n))


def iota(kappa, theta, x):
    """iota(x) = -kappa^{-1} x + kappa^{-1} theta."""
    kinv = inverse(kappa)
    return tuple(-a + b for a, b in zip(mat_vec(kinv, x), mat_vec(kinv, theta)))


def separating_levels(kappa, theta, coroot, u, v):
    """Integral levels n whose wall in this direction meets the closed segment
    between the values <u, alpha> and <v, alpha>."""
    q = Fraction(pairing(kappa, coroot, coroot), 2)
    t = sum(Fraction(a) * b for a, b in zip(theta, coroot))
    a = sum(Fraction(x) * y for x, y in zip(u, coroot))
    b = sum(Fraction(x) * y for x, y in zip(v, coroot))
    ends = sorted((-a / q, -b / q))
    lo = ends[0].numerator // ends[0].denominator
    hi = -((-ends[1].numerator) // ends[1].denominator)
    return [
        n
        for n in range(lo, hi + 1)
        if min(a, b) <= -n * q <= max(a, b) and (t + n * q).denominator == 1
    ]


def same_alcove_problems(datum, kappa, theta, u, v, label):
    out = []
    for cv in sorted(positive_coroots(datum)):
        levels = separating_levels(kappa, theta, cv, u, v)
        if levels:
            out.append(f"{label}: wall ({cv}, {levels[0]}) separates the points or holds one")
    return out


def alcove_match_problems(datum, kappa, theta, match):
    """match: y (lam, w), the two base points, the simple bijection as pairs
    ((coroot, n), (dual coroot, n)) and both reported Coxeter matrices."""
    out = []
    ddatum = dual(datum)
    kinv = inverse(kappa)
    kappa_dual = tuple(tuple(-x for x in row) for row in kinv)
    theta_dual = mat_vec(kinv, theta)
    g_simples, h_simples = match["g_simples"], match["h_simples"]
    g_refl = [affine_reflection(datum, cv, n) for cv, n in g_simples]
    h_refl = [affine_reflection(ddatum, cv, n) for cv, n in h_simples]
    out += coxeter_problems(g_refl, match["g_coxeter"], "level system")
    out += coxeter_problems(h_refl, match["h_coxeter"], "dual level system")
    pairs = match["bijection"]
    if sorted(b for _, b in pairs) != sorted(h_simples) or sorted(a for a, _ in pairs) != sorted(g_simples):
        out.append("simple bijection does not cover both simple systems")
        return out
    perm = {g_simples.index(a): h_simples.index(b) for a, b in pairs}
    for i in range(len(g_refl)):
        for j in range(i + 1, len(g_refl)):
            mg = order(compose(g_refl[i], g_refl[j]))
            mh = order(compose(h_refl[perm[i]], h_refl[perm[j]]))
            if mg != mh:
                out.append(f"matched pair ({i},{j}) has orders {mg} and {mh}")
    moved = slice_act(match["y"], kappa_dual, iota(kappa, theta, match["g_base"]))
    out += same_alcove_problems(ddatum, kappa_dual, theta_dual, moved, match["h_base"], "y iota(base)")
    return out


def level_system_problems(datum, simples, coxeter):
    refl = [affine_reflection(datum, cv, n) for cv, n in simples]
    return coxeter_problems(refl, coxeter, "level system")


def iota_problems(kappa, theta, report):
    """report: the verified flags, pairs_checked and the affine map (linear, offset)."""
    out = []
    for key in ("translations", "pairs", "reflections", "verified"):
        if report[key] is not True:
            out.append(f"iota report {key} = {report[key]}")
    if report["pairs_checked"] < 1:
        out.append("iota checked no pairs")
    kinv = inverse(kappa)
    if report["linear"] != tuple(tuple(-x for x in row) for row in kinv):
        out.append("iota linear part is not -kappa^{-1}")
    if report["offset"] != mat_vec(kinv, theta):
        out.append("iota offset is not kappa^{-1} theta")
    return out


def parabolic_match_problems(datum, kappa, match):
    """i_kappa fixes the simples of negative square length and sends the
    others through the diagram automorphism -w0."""
    k = len(datum["simple"])
    simple_cv = [tuple(datum["coroots"][i]) for i in datum["simple"]]
    group = weyl_group([reflection(datum, cv) for cv in simple_cv])
    pos = positive_coroots(datum)
    w0 = next(w for w in group if all(tuple(mat_vec(w, cv)) not in pos for cv in pos))
    expected = []
    for i, cv in enumerate(simple_cv):
        if pairing(kappa, cv, cv) > 0:
            expected.append((i, simple_cv.index(tuple(-x for x in mat_vec(w0, cv)))))
        else:
            expected.append((i, i))
    if tuple(match) != tuple(expected):
        return [f"parabolic match {match}, expected {tuple(expected)} on {k} simples"]
    return []


# ---------------------------------------------------------------------------
# Soergel side


def deodhar_table(word):
    """Coefficients of T_w in b_{s_1} ... b_{s_k} in the finite Hecke algebra
    with b_s = T_s + v: the sum over subexpressions of v^(#U0 - #D0), where
    U0 (D0) are the skipped letters at which the running element goes up
    (down); lengths are distances in the Cayley graph on the word's letters."""
    gens = []
    for s in word:
        if s not in gens:
            gens.append(s)
    length = weyl_group(gens)
    n = len(word[0])
    table = {}
    for mask in range(2 ** len(word)):
        w = identity(n)
        exp = 0
        for i, s in enumerate(word):
            ws = mat_mul(w, s)
            if mask >> i & 1:
                w = ws
            else:
                exp += 1 if length[ws] > length[w] else -1
        _laurent_add(table.setdefault(w, {}), exp, 1)
    return {w: p for w, p in table.items() if p}


def graph_character_problems(word, table):
    got = {w: p for w, p in table.items() if p}
    if got != deodhar_table(word):
        return ["graph characters differ from the Deodhar coefficients"]
    return []


def end_bs_problems(n, depth, report):
    """End(B_s) over n variables: dim in degree d is C(n+d-1, d) + C(n+d-2, d-1)."""
    expected = [comb(n + d - 1, d) + (comb(n + d - 2, d - 1) if d else 0) for d in range(depth)]
    out = []
    if list(report["end"]) != expected:
        out.append(f"End(B_s) dimensions {list(report['end'])}, expected {expected}")
    if report["identity"] is not True:
        out.append("Hilbert-series identity reported false")
    return out
