import hashlib
import itertools
import random
import re
from fractions import Fraction
from operator import mul

import pytest

from weylkit.exact import dot, identity, mat_mul, mat_vec, solve_linear, transpose
from weylkit.rootdata import (
    GroupTooLarge,
    InvalidParams,
    RootDatum,
    UnknownPreset,
    _FAMILIES,
    cartan_matrix,
    group_closure,
    is_isomorphic,
    langlands_dual,
    longest_element,
    preset,
    product_datum,
    simple_coordinates,
    validate_root_datum,
    weyl_elements,
)


def _simple_coeffs(simples, target):
    """Rational coefficients of target over the simple system, or None: one
    solve_linear per root, the reference for simple_coordinates."""
    if not simples:
        return None
    return solve_linear(tuple(zip(*simples)), target)


def test_cartan_matrix_rows_are_the_roots_of_the_given_coroots():
    # c_ij = <a_i, b_j>.  C2: the short a_0 = e1 - e2 has c_01 = -1, the long
    # a_1 = 2 e2 has c_10 = -2.  G2: the long a_0 has c_01 = -3.
    sp4, g2 = preset("Sp", 4), preset("G2", 2)
    assert sp4.simple_roots == ((1, -1), (0, 2))
    assert cartan_matrix(sp4, sp4.simple_coroots) == ((2, -1), (-2, 2))
    assert g2.simple_roots == ((2, -3), (-1, 2)) and g2.simple_coroots == ((1, 0), (0, 1))
    assert cartan_matrix(g2, g2.simple_coroots) == ((2, -3), (-1, 2))
    # any coroots, in the order given: a coroot pairs to -2 with its negative
    assert cartan_matrix(g2, ((0, 1), (0, -1), (1, 0))) == ((2, -2, -1), (-2, 2, 1), (-3, 3, 2))
    assert cartan_matrix(g2, ()) == ()


def test_preset_errors():
    with pytest.raises(UnknownPreset, match="E8ish"):
        preset("E8ish", 8)
    with pytest.raises(InvalidParams, match=re.escape("Sp needs an integer parameter in 2, 4, 6, ..., not 3")):
        preset("Sp", 3)
    with pytest.raises(InvalidParams, match=re.escape("SL needs an integer parameter in 2, 3, 4, ..., not None")):
        preset("SL")
    # G2 has the one parameter 2; a larger one is refused, not read as G2
    for n in (3, 7):
        with pytest.raises(InvalidParams, match=re.escape(f"G2 needs an integer parameter in 2, not {n}")):
            preset("G2", n)
    for n in (-1, None, 2.5, True):
        with pytest.raises(InvalidParams, match=re.escape(f"torus preset needs a nonnegative integer rank, not {n!r}")):
            preset("torus", n)
    for factors in (None, []):
        with pytest.raises(InvalidParams, match=re.escape(f"product preset needs factors, not {factors!r}")):
            preset("product", factors=factors)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_preset_parameter_check_names_the_family_and_the_parameter(family):
    # one check per family: an int (not a bool), at least the least value, at
    # most the largest and in its step; every refusal names the family and the
    # parameter received.  Only G2 has a largest parameter
    least, step, largest, _ = _FAMILIES[family]
    assert largest == (2 if family == "G2" else None)
    above = [largest + 1, largest + 5] if largest is not None else []
    for n in [least - step, None, 2.5, True] + [least + 1] * (step == 2) + above:
        with pytest.raises(InvalidParams, match=re.escape(f"{family} needs an integer parameter in {least}") + ".*"
                           + re.escape(f", not {n!r}")):
            preset(family, n)
    for n in (least, least + step, least + 5 * step):
        if largest is None or n <= largest:
            assert validate_root_datum(preset(family, n)) == []


# the classical families over their first ranks, and G2; the digest pins each
# datum field by field, so a change to a builder shows here
PINNED_PRESETS = ([("SL", n) for n in range(2, 9)] + [("PGL", n) for n in range(2, 8)] + [("GL", n) for n in range(1, 8)]
                  + [("Sp", n) for n in range(2, 15, 2)] + [("PSp", n) for n in range(2, 15, 2)]
                  + [("SO_odd", n) for n in range(3, 16, 2)] + [("Spin_odd", n) for n in range(3, 16, 2)]
                  + [("SO_even", n) for n in range(4, 15, 2)] + [("G2", 2)])


def test_presets_are_pinned():
    digest = hashlib.sha256()
    for name, n in PINNED_PRESETS:
        rd = preset(name, n)
        digest.update(repr((rd.rank, rd.roots, rd.coroots, rd.simple_indices, rd.ambient_basis, rd.name)).encode())
    assert len(PINNED_PRESETS) == 55
    assert digest.hexdigest() == "997d3af492569230b54e021972abf227adbc9b8b79589826af96e1a275be8ffe"


def test_sl2_and_torus():
    t = preset("torus", 1)
    assert t.roots == ()
    assert validate_root_datum(t) == []
    sl2 = preset("SL", 2)
    assert validate_root_datum(sl2) == []
    assert len(sl2.roots) == 2
    assert len(weyl_elements(sl2)) == 2


def test_sp4_counts_and_validation():
    sp4 = preset("Sp", 4)
    assert validate_root_datum(sp4) == []
    assert len(sp4.roots) == 8
    assert len(weyl_elements(sp4)) == 8
    # coroots are ±e_i±e_j, ±e_i
    assert (1, 0) in sp4.coroots and (1, -1) in sp4.coroots and (1, 1) in sp4.coroots
    assert (2, 0) in sp4.roots  # long root 2L_1


def test_psp6_conventions():
    psp6 = preset("PSp", 6)
    assert validate_root_datum(psp6) == []
    assert len(psp6.roots) == 18
    assert len(weyl_elements(psp6)) == 48
    # X_* contains mu = (e1+e2+e3)/2 and e_i
    mu = psp6.ambient_to_lattice([Fraction(1, 2)] * 3)
    assert mu == (1, 0, 0)
    e1 = psp6.ambient_to_lattice([1, 0, 0])
    assert psp6.lattice_to_ambient(e1) == (1, 0, 0)
    # X* is the root lattice: L_1 alone is NOT a character
    with pytest.raises(ValueError):
        psp6.covector_ambient_to_lattice([1, 0, 0])
    # but every root is
    psp6.covector_ambient_to_lattice([1, -1, 0])
    psp6.covector_ambient_to_lattice([0, 0, 2])


def test_validation_catches_bad_coroot():
    sl2 = preset("SL", 2)
    bad = RootDatum(
        sl2.rank,
        sl2.roots,
        tuple(tuple(3 * x for x in cv) for cv in sl2.coroots),
        sl2.simple_indices,
    )
    violations = validate_root_datum(bad)
    assert any("!= 2" in v for v in violations)


def test_weyl_group_orders():
    assert len(weyl_elements(preset("SL", 3))) == 6
    assert len(weyl_elements(preset("SO_odd", 5))) == 8
    assert len(weyl_elements(preset("G2", 2))) == 12


def test_weyl_permutes_coroots():
    for name, n in [("SL", 3), ("Sp", 4), ("PSp", 6), ("G2", 2)]:
        rd = preset(name, n)
        cs = set(rd.coroots)
        for w in weyl_elements(rd):
            assert {tuple(mat_vec(w, cv)) for cv in rd.coroots} == cs


def test_group_bound(monkeypatch):
    from weylkit import rootdata

    monkeypatch.setattr(rootdata, "MAX_GROUP_SIZE", 5)
    weyl_elements.cache_clear()
    with pytest.raises(GroupTooLarge, match="MAX_GROUP_SIZE = 5"):
        weyl_elements(preset("Sp", 4))
    monkeypatch.undo()
    weyl_elements.cache_clear()


def test_langlands_dual_involution():
    for name, n in [("SL", 3), ("Sp", 4), ("PGL", 2)]:
        rd = preset(name, n)
        dd = langlands_dual(langlands_dual(rd))
        assert dd.roots == rd.roots and dd.coroots == rd.coroots
        assert is_isomorphic(dd, rd)


def test_dual_identifications():
    assert is_isomorphic(langlands_dual(preset("Sp", 4)), preset("SO_odd", 5))
    assert is_isomorphic(langlands_dual(preset("PGL", 2)), preset("SL", 2))
    assert is_isomorphic(langlands_dual(preset("SL", 2)), preset("PGL", 2))
    assert not is_isomorphic(preset("SL", 2), preset("PGL", 2))
    assert is_isomorphic(langlands_dual(preset("Spin_odd", 5)), preset("PSp", 4))


def test_longest_element():
    sl3 = preset("SL", 3)
    w0 = longest_element(sl3)
    pos = sl3.positive_root_indices()
    wt = transpose(tuple(tuple(Fraction(x) for x in row) for row in w0))
    # w0 is an involution for A2 composed with the diagram flip; check order 2
    assert mat_mul(w0, w0) == identity(3 - 1)
    # sends every positive root to a negative root
    from weylkit.rootdata import mat_inv_int

    w0_inv_t = transpose(mat_inv_int(w0))
    for i in pos:
        img = tuple(mat_vec(w0_inv_t, sl3.roots[i]))
        assert img in sl3.roots
        c = _simple_coeffs(sl3.simple_roots, img)
        assert all(x <= 0 for x in c)


def test_product_and_height():
    rd = product_datum([preset("SL", 2), preset("SL", 2)])
    assert validate_root_datum(rd) == []
    assert len(rd.roots) == 4
    sl3 = preset("SL", 3)
    hi = max(sum(_simple_coeffs(sl3.simple_roots, a)) for a in sl3.roots)
    assert hi == 2


def test_mat_inv_int_is_the_exact_inverse_and_rejects_non_integral():
    from weylkit.exact import mat_inv
    from weylkit.rootdata import MAT_INV_INT_CACHE, mat_inv_int

    presets = [("SL", 3), ("SL", 4), ("PGL", 3), ("GL", 2), ("Sp", 4), ("Sp", 6), ("PSp", 4),
               ("SO_odd", 5), ("SO_odd", 7), ("Spin_odd", 5), ("SO_even", 4), ("SO_even", 6), ("G2", 2)]
    for name, n in presets:
        for w in weyl_elements(preset(name, n)):
            assert mat_inv_int(w) == mat_inv(w), (name, n, w)
            assert mat_mul(w, mat_inv_int(w)) == identity(len(w)), (name, n, w)
    assert mat_inv_int.cache_info().maxsize == MAT_INV_INT_CACHE
    # a non-integral inverse used to be truncated to ((0,),)
    with pytest.raises(ValueError, match=r"matrix \(\(2,\),\) has no integral inverse"):
        mat_inv_int(((2,),))
    with pytest.raises(ValueError, match="singular"):
        mat_inv_int(((1, 2), (2, 4)))



def test_positivity_solved_once_per_datum(monkeypatch):
    # a fresh datum (its own name, so no cache holds it): twenty minimal_rep
    # calls and one bullet_weyl_compare reduce [M | I] for its simple
    # coordinates exactly once, and every other datum met (the endoscopic H)
    # exactly once too
    import dataclasses
    import random

    from weylkit import rootdata
    from weylkit.affine import CharacterPoint, ExtendedWeylElement, gram_from_weights
    from weylkit.exact import QmodZ
    from weylkit.integral import minimal_rep
    from weylkit.metaplectic import bullet_weyl_compare

    rd = dataclasses.replace(preset("Sp", 4), name="Sp4, positivity once")
    form = gram_from_weights(rd, rd.roots)
    chi = CharacterPoint(QmodZ(1, 2), (QmodZ(1, 3), QmodZ(0, 1)))
    eliminations = []
    original = rootdata._rref

    def counted(rows):
        rows = list(rows)
        eliminations.append(repr(rows))
        return original(rows)

    monkeypatch.setattr(rootdata, "_rref", counted)
    rng = random.Random(2507172)
    weyl = weyl_elements(rd)
    for _ in range(20):
        x = ExtendedWeylElement(tuple(rng.randint(-3, 3) for _ in range(rd.rank)), rng.choice(weyl))
        minimal_rep(rd, form, chi, x)
    bullet_weyl_compare(rd, form, chi)
    assert rd.is_positive_coroot(rd.simple_coroots[0])
    k = len(rd.simple_indices)
    own = repr([{**{j: a[i] for j, a in enumerate(rd.simple_roots) if a[i]}, k + i: 1} for i in range(rd.rank)])
    assert eliminations.count(own) == 1
    assert len(eliminations) == len(set(eliminations)) == 2  # rd and its endoscopic H
    with pytest.raises(ValueError):
        rd.is_positive_coroot((5, 5))


CLOSURE_PRESETS = [("SL", 3), ("SL", 4), ("PGL", 3), ("GL", 2), ("Sp", 4), ("Sp", 6), ("PSp", 4),
                   ("SO_odd", 5), ("SO_odd", 7), ("Spin_odd", 5), ("SO_even", 4), ("SO_even", 6), ("G2", 2)]


def test_closure_records_exact_inverses():
    from weylkit.exact import mat_inv

    for name, n in CLOSURE_PRESETS:
        group = weyl_elements(preset(name, n))
        assert set(group.inverse) == set(group), (name, n)
        for w in group:
            assert mat_mul(w, group.inverse[w]) == identity(len(w)), (name, n, w)
            assert group.inverse[w] == mat_inv(w), (name, n, w)


def _product_closure(gens, n):
    """The breadth-first search group_closure replaced, by matrix products:
    x = g s and x^{-1} = s g^{-1}; the reference for its elements, Cayley
    lengths, inverses and order."""
    def times(a, b):
        return tuple(tuple(sum(map(mul, row, col)) for col in zip(*b)) for row in a)

    closure = {identity(n): (0, identity(n))}
    frontier = [identity(n)]
    while frontier:
        new = []
        for g in frontier:
            length, g_inv = closure[g]
            for s in gens:
                x = times(g, s)
                if x not in closure:
                    closure[x] = (length + 1, times(s, g_inv))
                    new.append(x)
        frontier = new
    return closure


CLOSURE_RANK_FIVE = [("SL", 2), ("SL", 3), ("SL", 4), ("SL", 5), ("SL", 6), ("PGL", 2), ("PGL", 3), ("PGL", 4), ("PGL", 5),
                     ("PGL", 6), ("GL", 1), ("GL", 3), ("GL", 5), ("Sp", 2), ("Sp", 4), ("Sp", 6), ("Sp", 8), ("Sp", 10),
                     ("PSp", 2), ("PSp", 4), ("PSp", 6), ("PSp", 8), ("PSp", 10), ("SO_odd", 3), ("SO_odd", 5), ("SO_odd", 7),
                     ("SO_odd", 9), ("SO_odd", 11), ("Spin_odd", 3), ("Spin_odd", 5), ("Spin_odd", 7), ("Spin_odd", 9),
                     ("Spin_odd", 11), ("SO_even", 4), ("SO_even", 6), ("SO_even", 8), ("SO_even", 10), ("G2", 2), ("torus", 3)]


def test_group_closure_against_product_closure():
    # the rank-one steps against products: the same elements in the same
    # breadth-first order, with the same lengths and inverses, on the simple
    # reflections of every preset of rank <= 5, and on Soergel words, the
    # simple reflections of the presets of rank <= 4 conjugated by a seeded
    # diagonal sign matrix (reflections still, as graph_character_table
    # passes them); a generator that is no reflection is named
    rng = random.Random(2507272)
    elements = 0
    for name, n in CLOSURE_RANK_FIVE:
        rd = preset(name, n)
        words = [rd.simple_reflections()]
        if rd.rank <= 4:
            d = [rng.choice((1, -1)) for _ in range(rd.rank)]
            words.append([tuple(tuple(d[i] * m[i][j] * d[j] for j in range(rd.rank)) for i in range(rd.rank)) for m in words[0]])
        for gens in words:
            got = group_closure(gens, rd.rank)
            assert list(got.items()) == list(_product_closure(gens, rd.rank).items()), (name, n, gens)
            elements += len(got)
    assert elements == 23464, elements
    for bad in (((0, -1), (1, 0)), ((1, 1), (0, 1))):  # order 4, and a shear: no involution
        with pytest.raises(ValueError, match=rf"generator {re.escape(str(bad))} is not a reflection"):
            group_closure([((-1, 0), (0, 1)), bad], 2)
    with pytest.raises(ValueError, match=r"generator \(\(-1, 0\), \(0, -1\)\) is not a reflection"):
        group_closure([((-1, 0), (0, -1))], 2)  # -I: an involution fixing no hyperplane
    assert group_closure([((-1, 0), (0, 1))], 2) == {identity(2): (0, identity(2)), ((-1, 0), (0, 1)): (1, ((-1, 0), (0, 1)))}


def test_stabilizer_cosets_invert_nothing(monkeypatch):
    # a fresh SL5 (its own name, so no cache holds its Weyl group), with the
    # integral-inverse cache emptied: the closure records every inverse, and
    # simple reflections are their own inverses, so no matrix is inverted
    import dataclasses

    from weylkit import exact, rootdata
    from weylkit.affine import gram_from_weights, stabilizer_cosets

    rd = dataclasses.replace(preset("SL", 5), name="SL5, inverses from the closure")
    form = gram_from_weights(rd, rd.roots)
    theta = tuple(Fraction(k, 6) for k in range(1, rd.rank + 1))
    inverted = []
    original = exact.mat_inv

    def counted(m):
        inverted.append(m)
        return original(m)

    for module in (exact, rootdata):
        monkeypatch.setattr(module, "mat_inv", counted)
    rootdata.mat_inv_int.cache_clear()
    cosets, _ = stabilizer_cosets(rd, [[Fraction(1, 2) * x for x in row] for row in form.matrix], theta)
    assert len(cosets) == 2  # all 120 w are solved; the rows are integral, so the w fixing theta mod 1 are kept
    assert inverted == []


ALL_PRESETS = CLOSURE_PRESETS + [("SL", 2), ("SL", 5), ("PGL", 2), ("GL", 1), ("GL", 3), ("Sp", 2), ("PSp", 6),
                                 ("SO_odd", 3), ("Spin_odd", 7), ("SO_even", 8)]


def _presets():
    data = [preset(name, n) for name, n in ALL_PRESETS]
    return data + [preset("torus", n=2), product_datum([preset("SL", 2), preset("G2", 2)])]


def _matrix_validate(rd):
    """validate_root_datum through reflection matrices, their transposes and
    one solve_linear per root: the reference for the integer checks."""
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
    root_set, coroot_set = set(rd.roots), set(rd.coroots)
    for i in range(len(rd.roots)):
        m = rd.reflection(i)
        mt = transpose(m)
        if any(tuple(mat_vec(m, cv)) not in coroot_set for cv in rd.coroots):
            bad.append(f"reflection {i} does not permute the coroots")
        if any(tuple(mat_vec(mt, a)) not in root_set for a in rd.roots):
            bad.append(f"dual reflection {i} does not permute the roots")
    for a in rd.roots:
        c = _simple_coeffs(rd.simple_roots, a)
        if c is None:
            bad.append(f"root {a} outside the span of the simple roots")
            continue
        if any(x.denominator != 1 for x in c):
            bad.append(f"root {a} has non-integral simple coordinates")
        elif not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
            bad.append(f"root {a} has mixed-sign simple coordinates")
    return bad


def _corrupted(rd, rng):
    """rd with one random defect: an entry of a root or coroot moved, a root
    scaled or dropped, a duplicate, a simple index swapped, or a vector cut."""
    roots, coroots, simples = list(rd.roots), list(rd.coroots), list(rd.simple_indices)
    i, kind = rng.randrange(len(roots)), rng.randrange(7)
    if kind == 0:
        k = rng.randrange(rd.rank)
        roots[i] = tuple(x + (j == k) * rng.choice((-1, 1)) for j, x in enumerate(roots[i]))
    elif kind == 1:
        k = rng.randrange(rd.rank)
        coroots[i] = tuple(x + (j == k) * rng.choice((-1, 1)) for j, x in enumerate(coroots[i]))
    elif kind == 2:
        s = rng.choice((2, -1, 3))
        roots[i], coroots[i] = tuple(s * x for x in roots[i]), tuple(x * (2 if s == -1 else 1) for x in coroots[i])
    elif kind == 3:
        del roots[i], coroots[i]
        simples = [j - (j > i) for j in simples if j != i]
    elif kind == 4:
        roots[i] = roots[(i + 1) % len(roots)]
    elif kind == 5:
        simples[rng.randrange(len(simples))] = i
    else:
        roots[i] = roots[i][:-1]
    return RootDatum(rd.rank, tuple(roots), tuple(coroots), tuple(simples), None, f"corrupt {rd.name} {i} {kind}")


VIOLATIONS = ("length differs", "!= 2", "duplicate", "permute the coroots", "permute the roots", "outside the span",
              "non-integral", "mixed-sign")


def test_validation_against_reflection_matrices():
    # the rank-one integer reflection checks and the simple coordinates read
    # from one elimination against reflection matrices and one solve per
    # root: equal violation lists on every preset, on the endoscopic H of
    # each blocks stratum, and on corrupted data
    from weylkit.affine import gram_from_weights
    from weylkit.exact import QmodZ
    from weylkit.metaplectic import endoscopic_root_datum

    data = _presets()
    for name, n, c in [("SL", 3, "1/2"), ("SL", 3, "1/3"), ("Sp", 4, "1/2"), ("Sp", 4, "1/4"), ("G2", 2, "1/3"),
                       ("G2", 2, "1/4"), ("SO_odd", 5, "1/4"), ("PGL", 3, "1/2"), ("PGL", 3, "0"), ("SL", 4, "1/4"),
                       ("SL", 5, "0")]:
        rd = preset(name, n)
        data.append(endoscopic_root_datum(rd, gram_from_weights(rd, rd.roots), QmodZ.parse(c)).rd_h)
    for rd in data:
        assert validate_root_datum(rd) == _matrix_validate(rd) == [], rd.name
    rng = random.Random(2507182)
    kinds = set()
    for rd in data:
        if not rd.roots:
            continue
        for _ in range(12):
            bad = _corrupted(rd, rng)
            expected = _matrix_validate(bad)
            assert validate_root_datum(bad) == expected, bad.name
            kinds.update(m for v in expected for m in VIOLATIONS if m in v)
    assert kinds == set(VIOLATIONS), kinds


def _pairing_per_entry_violations(rd):
    """The reflection checks with <a_i, v> paired once per entry of the image
    and no vector skipped: the loop the one-pairing-per-vector checks replaced."""
    bad = []
    root_set, coroot_set = set(rd.roots), set(rd.coroots)
    for i, (a_i, cv_i) in enumerate(zip(rd.roots, rd.coroots)):
        if any(tuple(x - dot(a_i, v) * y for x, y in zip(v, cv_i)) not in coroot_set for v in rd.coroots):
            bad.append(f"reflection {i} does not permute the coroots")
        if any(tuple(x - dot(b, cv_i) * y for x, y in zip(b, a_i)) not in root_set for b in rd.roots):
            bad.append(f"dual reflection {i} does not permute the roots")
    return bad


def _one_defect_each(rd):
    """(defect, datum) for rd of rank 2 with the coroot of a positive
    non-simple root a moved by (a_1, -a_0), which pairs to 0 with a, or a
    replaced by the difference of two simple roots, by a vector with a
    non-integral simple coordinate (where the simple roots leave one), or by
    a simple root."""
    s0, s1 = rd.simple_indices[:2]
    i = next(i for i, c in enumerate(simple_coordinates(rd)) if c is not None and sum(c) > 1)
    a = rd.roots[i]
    box = itertools.product(range(-2, 3), repeat=rd.rank)
    off_lattice = next((v for v in box if any(x.denominator != 1 for x in _simple_coeffs(rd.simple_roots, v))), None)
    changes = [("permute the coroots", None, (a[1] + rd.coroots[i][0], -a[0] + rd.coroots[i][1])),
               ("mixed-sign", tuple(x - y for x, y in zip(rd.roots[s0], rd.roots[s1])), None),
               ("non-integral", off_lattice, None),
               ("duplicate", rd.roots[s0], None)]
    for defect, root, coroot in changes:
        if root is coroot is None:  # no vector off the lattice of the simple roots
            continue
        roots, coroots = list(rd.roots), list(rd.coroots)
        roots[i], coroots[i] = root or roots[i], coroot or coroots[i]
        yield defect, RootDatum(rd.rank, tuple(roots), tuple(coroots), rd.simple_indices, None, f"{rd.name} {defect}")


def test_validation_names_each_defect_as_the_pairing_per_entry_loop():
    # one defect of each kind on SL3, Sp4 and G2 (G2's simple roots are a
    # basis of its lattice, so none of its vectors is non-integral): the
    # violation list against the reflection-matrix reference, and its
    # permutation entries against the loop that paired every entry
    kinds, defects = set(), 0
    for name, n in [("SL", 3), ("Sp", 4), ("G2", 2)]:
        for defect, bad in _one_defect_each(preset(name, n)):
            violations = validate_root_datum(bad)
            assert any(defect in v for v in violations), (bad.name, violations)
            assert violations == _matrix_validate(bad), bad.name
            assert [v for v in violations if "permute" in v] == _pairing_per_entry_violations(bad), bad.name
            kinds.update(m for v in violations for m in VIOLATIONS if m in v)
            defects += 1
    assert defects == 11 and kinds >= {"permute the coroots", "permute the roots", "mixed-sign", "non-integral", "duplicate"}, kinds


def test_simple_coordinates_against_one_solve_per_root():
    for rd in _presets() + [langlands_dual(preset("G2", 2)), langlands_dual(preset("PSp", 4))]:
        coords = simple_coordinates(rd)
        assert len(coords) == len(rd.roots)
        for a, c in zip(rd.roots, coords):
            assert c == _simple_coeffs(rd.simple_roots, a), (rd.name, a)
            assert all(type(x) is int for x in c), (rd.name, a)


def _fresh(rd, name=None):
    """An equal datum built anew from its fields (no cached hash shared)."""
    return RootDatum(rd.rank, rd.roots, rd.coroots, rd.simple_indices, rd.ambient_basis, rd.name if name is None else name)


def test_datum_hash_is_computed_once_and_survives_pickling(monkeypatch):
    import pickle

    rd = preset("PSp", 4)  # a non-identity Fraction ambient basis
    assert any(x.denominator != 1 for row in rd.ambient_basis for x in row)
    copy = pickle.loads(pickle.dumps(rd))
    assert copy == rd and hash(copy) == hash(rd) == hash(_fresh(rd))
    # the name takes no part in the hash, and an equal datum hits the
    # entries the first one made
    assert hash(_fresh(rd, "renamed")) == hash(rd) and _fresh(rd, "renamed") != rd
    weyl_elements.cache_clear()
    group = weyl_elements(rd)
    assert weyl_elements(copy) is group and weyl_elements.cache_info()[:2] == (1, 1)  # hits, misses
    # the Fractions of the basis are hashed once, at construction
    hashed = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: hashed.append(x) or fraction_hash(x))
    fresh = _fresh(rd)
    assert len(hashed) == rd.rank**2
    hashed.clear()
    assert {rd: 1}[fresh] == 1 and hash(fresh) == hash(copy) and weyl_elements(fresh) is group
    assert hashed == []
    hash(Fraction(1, 3))
    assert hashed == [Fraction(1, 3)]  # the count would see a Fraction hashed


def test_datum_hash_does_not_depend_on_the_hash_seed():
    # str hashes vary with PYTHONHASHSEED; the datum's hash must not
    import os
    import pathlib
    import subprocess
    import sys

    import weylkit

    src = str(pathlib.Path(weylkit.__file__).resolve().parent.parent)
    script = "from weylkit.rootdata import preset; print(hash(preset('PSp', 4)), hash(preset('SO_odd', 5)), hash('PSp'))"
    out = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out.append(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout.split())
    assert out[0][:2] == out[1][:2]
    assert out[0][2] != out[1][2]  # the seeds do change str hashes
