import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import RANK_AT_MOST_FOUR
from weylkit.exact import identity, mat_mul, rank as mat_rank
from weylkit.hecke import LaurentPoly, ONE, V
from weylkit.soergel import (
    Bimodule,
    GenericPointCollision,
    NotAReflection,
    Poly,
    TruncModule,
    bott_samelson_bimodule,
    demazure,
    free_module,
    graph_character_table,
    graph_sections,
    hilbert_end_bs,
    reflection_action,
    reflection_equation,
    tensor,
)

NEG1 = ((-1,),)
SWAP = ((0, 1), (1, 0))
B2_S = ((-1, 0), (0, 1))  # x -> -x
A2_S = ((-1, 1), (0, 1))  # Cartan realization s1 for A2
A2_T = ((1, 0), (1, -1))
B2C_S = ((-1, 2), (0, 1))  # C2 Cartan realization
B2C_T = ((1, 0), (1, -1))
G2_S = ((-1, 1), (0, 1))  # G2 Cartan realization
G2_T = ((1, 0), (3, -1))


def rand_poly(rng, n, deg):
    from weylkit.soergel import _monomials

    coeffs = {}
    for d in range(deg + 1):
        for mono in _monomials(n, d):
            if rng.random() < 0.4:
                coeffs[mono] = Fraction(rng.randint(-4, 4))
    return Poly(n, coeffs)


def test_reflection_equation_normalization():
    assert reflection_equation(NEG1) == Poly.linear([1])
    assert reflection_equation(SWAP) == Poly.linear([1, -1])
    with pytest.raises(NotAReflection):
        reflection_equation(identity(2))


def test_demazure_examples():
    one = Poly.const(1, 1)
    assert demazure(NEG1, one).is_zero()
    x = Poly.variable(1, 0)
    assert demazure(NEG1, x) == Poly.const(1, 2)
    xx = Poly.variable(2, 0)
    yy = Poly.variable(2, 1)
    assert demazure(SWAP, xx * xx) == xx + yy


def test_demazure_squares_to_zero_and_leibniz():
    rng = random.Random(5)
    for m in (NEG1, SWAP, A2_S, B2C_S):
        n = len(m)
        for _ in range(12):
            f = rand_poly(rng, n, 5)
            g = rand_poly(rng, n, 3)
            df = demazure(m, f)
            assert demazure(m, df).is_zero()
            lhs = demazure(m, f * g)
            rhs = df * g + reflection_action(m, f) * demazure(m, g)
            assert lhs == rhs


def test_bs_bimodule_rank_and_degrees():
    b = bott_samelson_bimodule(NEG1)
    assert b.basis_degrees == (0, 1)
    # Hilbert series of B_r in rank 1: dims 1, 2, 2, 2, ... = (1+q)/(1-q)
    mod = TruncModule.from_bimodule(b, 4)
    assert mod.dims == [1, 2, 2, 2, 2]


def test_tensor_square_splits_by_dimension():
    b = bott_samelson_bimodule(NEG1)
    bb = tensor(b, b)
    assert sorted(bb.basis_degrees) == [0, 1, 1, 2]
    mod = TruncModule.from_bimodule(bb, 4)
    single = TruncModule.from_bimodule(b, 4)
    # H(B (x) B) = H(B) + q H(B) degreewise
    for d in range(4):
        shifted = single.dims[d - 1] if d >= 1 else 0
        assert mod.dims[d] == single.dims[d] + shifted


def test_graph_character_single_letter():
    for m in (NEG1, SWAP, B2_S):
        table = graph_character_table([m])
        n = len(m)
        assert table[tuple(map(tuple, m))] == ONE
        assert table[identity(n)] == V


def test_graph_character_empty_word():
    # the empty word is the unit bimodule R: its right action is its left
    # action, so it is supported on Gamma^e in every degree, top included
    mod = TruncModule.from_bimodule(free_module(2), 4)
    assert mod.right == mod.left
    secs = graph_sections(mod, identity(2))
    assert [len(layer) for layer in secs] == mod.dims
    # one-letter word: the multiplicity of Gamma^s in B_s is 1
    assert graph_character_table([NEG1])[NEG1] == ONE


def test_graph_character_table_rejects_bad_input():
    with pytest.raises(ValueError, match="nonempty"):
        graph_character_table([])
    # the top layer of the support filtration needs depth > word length
    with pytest.raises(ValueError, match="depth 2 must exceed the word length 2"):
        graph_character_table([NEG1, NEG1], depth=2)


def test_graph_character_independent_of_depth():
    # the default depth is len(word) + 2; len(word) + 1 is the least allowed
    for word in ([NEG1, NEG1], [A2_S, A2_T]):
        default = graph_character_table(word)
        for depth in (len(word) + 1, len(word) + 4):
            assert graph_character_table(word, depth=depth) == default, (word, depth)


def test_graph_character_bb():
    table = graph_character_table([NEG1, NEG1])
    s = NEG1
    e = identity(1)
    assert table[s] == LaurentPoly({1: 1, -1: 1})  # v + 1/v
    assert table[e] == LaurentPoly({0: 1, 2: 1})  # 1 + v^2


def test_graph_character_a2_sts():
    table = graph_character_table([A2_S, A2_T, A2_S])
    sts = mat_mul(mat_mul(A2_S, A2_T), A2_S)
    assert table[sts] == ONE


def test_graph_character_matches_hecke_rank2():
    # the cross-module oracle on words of length <= 3 here (length 4 in the
    # acceptance suite): A2, C2 and G2 realizations
    from itertools import product

    from weylkit.affine import CharacterPoint, affine_coroot_reflection, gram_from_weights
    from weylkit.hecke import bott_samelson_product
    from weylkit.integral import integral_simple_system
    from weylkit.rootdata import preset

    for name, n, mats in (("SL", 3, (A2_S, A2_T)), ("Sp", 4, (B2C_S, B2C_T)), ("G2", 2, (G2_S, G2_T))):
        rd = preset(name, n)
        form = gram_from_weights(rd, rd.roots)
        chi = CharacterPoint.trivial(rd.rank)
        data = integral_simple_system(rd, form, chi)
        finite = [ac for ac in data.simples if ac.n == 0]
        refl = [affine_coroot_reflection(rd, ac) for ac in finite]
        # identify the two finite walls with the coordinate realizations
        assert len(refl) == 2
        # every word of length <= 3 in the two letters, non-reduced ones included
        for word_idx in (list(w) for k in (1, 2, 3) for w in product((0, 1), repeat=k)):
            hecke_word = [("r", refl[i]) for i in word_idx]
            _, table = bott_samelson_product(rd, form, chi, hecke_word)
            soergel_table = graph_character_table([mats[i] for i in word_idx])
            # compare through the group isomorphism sending refl[i] to mats[i]
            mapping = {refl[0]: mats[0], refl[1]: mats[1]}
            for g, coeff in table.items():
                img = _map_group_element(rd, refl, mats, g)
                assert soergel_table.get(img, LaurentPoly.zero()) == coeff, (name, word_idx, g)


def _map_group_element(rd, refl, mats, g):
    """Translate a word in refl (affine reflections at level 0) into the
    coordinate realization by matching reduced words."""
    from weylkit.exact import identity as ident, mat_mul as mm

    # finite level-0 reflections have trivial translation parts
    target = g.w
    n = len(mats[0])
    frontier = {(tuple(map(tuple, ident(rd.rank)))): ident(n)}
    seen = dict(frontier)
    while True:
        if tuple(map(tuple, target)) in seen:
            return seen[tuple(map(tuple, target))]
        new = {}
        for wmat, img in seen.items():
            for r, m in zip(refl, mats):
                cand = mm(wmat, r.w)
                key = tuple(map(tuple, cand))
                if key not in seen and key not in new:
                    new[key] = mm(img, m)
        if not new:
            raise AssertionError("element not generated")
        seen.update(new)


def test_graph_character_table_of_sign_conjugated_word():
    # conjugating every letter by a diagonal sign matrix D conjugates the
    # table's keys by D and keeps every character
    for word, signs in (([A2_S, A2_T, A2_S], (1, -1)), ([G2_T, G2_S], (-1, 1)), ([B2C_S, B2C_T, B2C_S], (-1, 1))):
        conj = [tuple(tuple(signs[i] * m[i][j] * signs[j] for j in range(2)) for i in range(2)) for m in word]
        table, conj_table = graph_character_table(word), graph_character_table(conj)
        moved = {tuple(tuple(signs[i] * g[i][j] * signs[j] for j in range(2)) for i in range(2)): c for g, c in table.items()}
        assert conj_table == moved, word


def test_end_bs_identity_rank1():
    report = hilbert_end_bs(NEG1, depth=6)
    assert report["identity"]
    # closed forms: H_End = (1+q)/(1-q), H_Gamma = 1/(1-q), H_hyp = 1
    assert report["gamma1"] == [1] * 6
    assert report["gamma_r"] == [1] * 6
    assert report["hyperplane"] == [1] + [0] * 5
    assert report["end"] == [1, 2, 2, 2, 2, 2]


def test_end_bs_identity_rank2_and_spectator():
    report = hilbert_end_bs(SWAP, depth=6)
    assert report["identity"]
    # spectator variable: x <-> y swap inside rank 3
    spect = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    report3 = hilbert_end_bs(spect, depth=5)
    assert report3["identity"]


def test_end_bs_identity_battery_rank_le_3():
    mats = [NEG1, SWAP, B2_S, A2_S, A2_T, B2C_S, B2C_T,
            ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 0, 1), (0, 1, 0))]
    for m in mats:
        assert hilbert_end_bs(m, depth=5)["identity"], m


def test_left_minus_right_rejects_inhomogeneous_polynomial():
    from weylkit.soergel import _left_minus_right

    mod = TruncModule.from_bimodule(bott_samelson_bimodule(SWAP), 4)
    x = Poly.variable(2, 0)
    assert _left_minus_right(mod, x * x, 3) is None  # target above the truncation
    with pytest.raises(ValueError, match="homogeneous"):
        _left_minus_right(mod, x + x * x, 0)


def test_end_bs_identity_sl4_and_g2_at_benchmark_depths():
    # every simple reflection of SL4 at depth 4 and of G2 at depth 6: the
    # identity holds and both graph quotients are all of R, dim R_d = C(n+d-1, d)
    from math import comb

    from weylkit.rootdata import preset

    for name, param, depth in (("SL", 4, 4), ("G2", 2, 6)):
        rd = preset(name, param)
        for m in rd.simple_reflections():
            report = hilbert_end_bs(m, depth)
            r_dims = [comb(rd.rank + d - 1, d) for d in range(depth)]
            assert report["identity"], (name, m)
            assert report["gamma1"] == report["gamma_r"] == r_dims, (name, m)


def _dense_pivots(rows, ncols):
    """Pivot columns of the reduced row echelon form, by dense elimination."""
    a = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots


def test_sparse_elimination_against_dense():
    from weylkit.soergel import _kernel_basis, _rref

    rng = random.Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = []
        for _ in range(nrows):
            row = {c: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for c in range(ncols) if rng.random() < 0.35}
            rows.append({c: x for c, x in row.items() if x})
        if rng.random() < 0.3 and nrows > 1:  # a dependent row
            dependent = {c: rows[0].get(c, 0) - 2 * rows[1].get(c, 0) for c in range(ncols)}
            rows.append({c: x for c, x in dependent.items() if x})
        dense = tuple(tuple(row.get(c, 0) for c in range(ncols)) for row in rows)
        pivots, reduced, _ = _rref(rows)
        assert pivots == _dense_pivots(rows, ncols)
        assert all(row[p] == 1 and all(q == p or q not in row for q in pivots) for p, row in zip(pivots, reduced))
        kernel = _kernel_basis(rows, ncols)
        assert len(kernel) == ncols - len(_dense_pivots(rows, ncols))
        # echelon on the free columns: 1 at its own, 0 at the others
        assert all(v[fc] == 1 and all(q == fc or q not in v for q in kernel) for fc, v in kernel.items())
        as_dense = tuple(tuple(v.get(c, 0) for c in range(ncols)) for v in kernel.values())
        assert len(_dense_pivots(list(kernel.values()), ncols)) == len(kernel)
        for v in as_dense:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in dense)



# every simple reflection of every preset, each also conjugated by a seeded
# diagonal sign matrix; the gcd g of the divided differences of the variables
# is 2 for SL2 and for one simple reflection each of Sp4, PSp4, Spin5 and SO5
PRESET_PARAMS = (
    ("SL", 2), ("SL", 3), ("SL", 4), ("SL", 5), ("PGL", 2), ("PGL", 3), ("GL", 2), ("Sp", 4), ("PSp", 4),
    ("Spin_odd", 5), ("SO_odd", 5), ("SO_even", 4), ("SO_even", 8), ("G2", 2),
)


def _sign_conjugate(rng, m):
    d = [rng.choice((1, -1)) for _ in m]
    return tuple(tuple(d[i] * x * d[j] for j, x in enumerate(row)) for i, row in enumerate(m))


def _preset_reflections():
    from weylkit.rootdata import preset

    rng = random.Random(16)
    out = []
    for name, param in PRESET_PARAMS:
        for m in preset(name, param).simple_reflections():
            out += [m, _sign_conjugate(rng, m)]
    return out


def test_bott_samelson_integral_basis_satisfies_the_bimodule_relations():
    from weylkit.soergel import _poly_mat_mul

    for m in _preset_reflections():
        b = bott_samelson_bimodule(m)
        n = len(m)
        assert b.basis_degrees == (0, 1), m
        assert all(type(c) is int for a in b.right_action for row in a for f in row for c in f.coeffs.values()), m
        for j in range(n):
            for k in range(j):
                a_j, a_k = b.right_action[j], b.right_action[k]
                assert _poly_mat_mul(a_j, a_k) == _poly_mat_mul(a_k, a_j), (m, j, k)
        # e_0 . x_j = (x_j - c_j delta) e_0 + c_j e_1 reads delta off any j with c_j != 0
        j = next(j for j in range(n) if b.right_action[j][1][0].coeffs)
        cj = b.right_action[j][1][0].coeffs[(0,) * n]
        delta = (Poly.variable(n, j) - b.right_action[j][0][0]).scale(Fraction(1, cj))
        assert b.right_matrix_of_poly(delta)[1][0] == Poly.const(n, 1), m  # e_0 . delta = e_1
        alpha = reflection_equation(m)
        invariant = [Poly.variable(n, i) + reflection_action(m, Poly.variable(n, i)) for i in range(n)]
        for f in invariant + [alpha * alpha, delta * reflection_action(m, delta)]:
            # an r-invariant f passes through the tensor sign: e_i . f = f e_i
            assert b.right_matrix_of_poly(f) == [[f, Poly.zero(n)], [Poly.zero(n), f]], (m, f)


def _alpha_basis_bimodule(m):
    """B_r on the left basis (1(x)1, 1(x)alpha), as first written: every
    right-action coefficient carries a 1/2."""
    alpha = reflection_equation(m)
    n = len(m)
    action = []
    for j in range(n):
        xj = Poly.variable(n, j)
        inv = (xj + reflection_action(m, xj)).scale(Fraction(1, 2))
        dem = demazure(m, xj, alpha).scale(Fraction(1, 2))
        # e_0 . x_j = inv e_0 + dem e_1 ; e_1 . x_j = alpha^2 dem e_0 + inv e_1
        action.append(((inv, alpha * alpha * dem), (dem, inv)))
    return Bimodule(n, (0, 1), tuple(action))


# (preset, parameter, simple-reflection index, depth) of the End(B_s) benchmark
END_BS_CASES = (("SL", 2, 0, 6), ("SL", 2, 0, 8), ("SL", 3, 0, 5), ("SL", 3, 0, 7), ("Sp", 4, 1, 6), ("G2", 2, 0, 6), ("SL", 4, 0, 4))


def test_integral_basis_against_alpha_basis(monkeypatch):
    # dimensions do not depend on the left basis, so every graph character
    # and End(B_s) Hilbert function matches the alpha-basis reference
    from weylkit import soergel
    from weylkit.rootdata import preset

    rng = random.Random(1616)
    words = [[NEG1] * k for k in (1, 2, 3)] + [[B2_S] * k for k in (1, 2)]
    for letters in ((A2_S, A2_T), (B2C_S, B2C_T), (G2_S, G2_T)):
        words += [[rng.choice(letters) for _ in range(k)] for k in (1, 2, 2, 3, 3)]
    end_cases = [
        (_sign_conjugate(rng, preset(name, p).simple_reflections()[i]), depth) for name, p, i, depth in END_BS_CASES
    ]
    ours = [graph_character_table(word) for word in words], [hilbert_end_bs(m, depth) for m, depth in end_cases]
    monkeypatch.setattr(soergel, "bott_samelson_bimodule", _alpha_basis_bimodule)
    assert any(type(c) is Fraction for f in soergel.word_bimodule([A2_S]).right_action[0][0] for c in f.coeffs.values())
    reference = [graph_character_table(word) for word in words], [hilbert_end_bs(m, depth) for m, depth in end_cases]
    assert ours == reference


def _fraction_rank_one_factors(m):
    """(alpha, c) from the rank and square of I - m taken in Fractions, each
    vector scaled to content one, alpha's first nonzero entry positive: the
    factorization the integer one replaced."""
    n = len(m)
    diff = tuple(tuple(int(i == j) - Fraction(m[i][j]) for j in range(n)) for i in range(n))
    if mat_rank(diff) != 1:
        raise NotAReflection("fixed space is not a hyperplane")
    if mat_mul(m, m) != identity(n):
        raise NotAReflection("matrix is not an involution")

    def content_one(vec):
        ints = [int(x * lcm(*(y.denominator for y in vec))) for x in vec]
        return [x // gcd(*ints) for x in ints]

    alpha = content_one(next(r for r in diff if any(r)))
    k = next(i for i, x in enumerate(alpha) if x)
    if alpha[k] < 0:
        alpha = [-x for x in alpha]
    return alpha, content_one([r[k] for r in diff])


def test_rank_one_factors_against_fraction_factorization():
    # every simple reflection of every preset of rank <= 4 under every
    # diagonal sign conjugation, and the matrices that are not reflections
    from itertools import product

    from weylkit.rootdata import preset
    from weylkit.soergel import _rank_one_factors

    cases = 0
    for name, param in RANK_AT_MOST_FOUR:
        for m in preset(name, param).simple_reflections():
            for d in product((1, -1), repeat=len(m)):
                conjugate = tuple(tuple(d[i] * x * d[j] for j, x in enumerate(row)) for i, row in enumerate(m))
                assert _rank_one_factors(conjugate) == _fraction_rank_one_factors(conjugate), conjugate
                cases += 1
    assert cases == 760, cases
    not_reflections = [identity(2), ((-1, 0), (0, -1)), ((1, 1), (0, 1)), ((0, -1), (1, 0)), ((-2,),), identity(3)]
    for m in not_reflections:
        for factors in (_rank_one_factors, _fraction_rank_one_factors):
            with pytest.raises(NotAReflection):
                factors(m)


def test_input_checks_name_the_fault():
    from weylkit.soergel import _divide_by_linear

    with pytest.raises(ValueError, match=re.escape("tensor of bimodules over 1 and 2 variables")):
        tensor(bott_samelson_bimodule(NEG1), bott_samelson_bimodule(SWAP))
    with pytest.raises(ValueError, match=re.escape("graph_sections needs a module truncated at degree >= 1")):
        graph_sections(TruncModule.from_bimodule(bott_samelson_bimodule(NEG1), 0), NEG1)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    with pytest.raises(ValueError, match=re.escape("polynomial is not divisible by the linear form")):
        _divide_by_linear(x * y + y, x)


def test_support_filtration_collisions_are_raised(monkeypatch):
    from weylkit import soergel

    # unchanged, the last quotient is the zero module, built without
    # composing a map
    composed, last = [0], []
    compose, quotient = soergel._compose, soergel.quotient_module

    def counted_compose(outer, inner):
        composed[0] += 1
        return compose(outer, inner)

    def recorded_quotient(mod, sections):
        composed[0] = 0
        last[:] = [quotient(mod, sections), composed[0]]
        return last[0]

    monkeypatch.setattr(soergel, "_compose", counted_compose)
    monkeypatch.setattr(soergel, "quotient_module", recorded_quotient)
    graph_character_table([A2_S, A2_T])
    zero, calls = last
    assert zero.dims == [0] * 5 and calls == 0
    assert zero.left == zero.right == [[()] * 4, [()] * 4]

    # one section dropped from the last graph filtered, Gamma^e: the last
    # quotient is not zero
    sections = soergel.graph_sections
    seen = []

    def short_sections(mod, w):
        secs = sections(mod, w)
        if w == identity(2):
            secs[0].pop(next(iter(secs[0])))
        seen.append(w)
        return secs

    monkeypatch.setattr(soergel, "graph_sections", short_sections)
    with pytest.raises(GenericPointCollision, match="support filtration did not exhaust the module"):
        graph_character_table([A2_S, A2_T])
    assert seen[-1] == identity(2) and len(seen) == 4 and last[0].dims == [1, 0, 0, 0, 0]
    monkeypatch.setattr(soergel, "graph_sections", sections)

    # fiber ranks off by one at every generic point
    fiber_rank = soergel._fiber_rank_at
    monkeypatch.setattr(soergel, "_fiber_rank_at", lambda bm, w, point: fiber_rank(bm, w, point) + 1)
    with pytest.raises(GenericPointCollision, match="fiber ranks disagree with the filtration"):
        graph_character_table([A2_S, A2_T])


def test_support_filtration_eliminates_each_subspace_once(monkeypatch):
    # per support element, one elimination per degree for the sections and
    # one per degree 1..D-1 for the generator count, none in quotient_module:
    # 52 and 96 calls when the quotient and the count eliminated again
    from weylkit import soergel

    calls, inside = [0, 0], [False]
    rref, quotient = soergel._rref, soergel.quotient_module

    def counted_rref(rows):
        calls[0] += 1
        calls[1] += inside[0]
        return rref(rows)

    def flagged_quotient(mod, sections):
        inside[0] = True
        try:
            return quotient(mod, sections)
        finally:
            inside[0] = False

    monkeypatch.setattr(soergel, "_rref", counted_rref)
    monkeypatch.setattr(soergel, "quotient_module", flagged_quotient)
    for word, most in (([A2_S, A2_T], 32), ([A2_S, A2_T, A2_S], 60)):
        calls[:] = [0, 0]
        graph_character_table(word)
        assert calls[0] <= most and calls[1] == 0, (len(word), calls)

    # a constant acts alike on both sides: left minus right is the zero map
    mod = TruncModule.from_bimodule(bott_samelson_bimodule(A2_S), 3)
    for d in range(4):
        assert soergel._stacked_rows([soergel._left_minus_right(mod, Poly.const(2, 5), d)]) == []
    # a linear form that is not invariant does not commute with B_s
    assert soergel._stacked_rows([soergel._left_minus_right(mod, reflection_equation(A2_S), 0)])
