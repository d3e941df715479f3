import random
import re
from collections import Counter

import pytest

from conftest import even_form
from weylkit import hecke
from weylkit.affine import (
    CharacterPoint,
    ExtendedWeylElement,
    _descend,
    affine_coroot_reflection,
    character_from_config,
    extended_act_character,
    gram_from_matrix,
    gram_from_weights,
    length_zero_group,
)
from weylkit.duality import VerificationFailed
from weylkit.exact import QmodZ
from weylkit.hecke import (
    ONE,
    V,
    V_INV,
    HeckeElement,
    LaurentPoly,
    _mult_by_simple,
    bott_samelson_product,
    check_relations,
    t_element,
    t_multiply,
    unit_element,
)
from weylkit.integral import CharacterMismatch, integral_simple_system, is_minimal, minimal_rep
from weylkit.rootdata import preset, weyl_elements


def sl2_half():
    rd = preset("SL", 2)
    form = gram_from_weights(rd, [(1,), (-1,)])
    chi = character_from_config(rd, "1/2", ["0"])
    return rd, form, chi


def pgl2_trivial():
    rd = preset("PGL", 2)
    form = gram_from_matrix(rd, [[2]])
    chi = CharacterPoint.trivial(1)
    return rd, form, chi


def sl3_trivial():
    rd = preset("SL", 3)
    form = gram_from_weights(rd, rd.roots)
    chi = CharacterPoint.trivial(2)
    return rd, form, chi


def test_laurent_poly_basics():
    assert (V * V_INV) == ONE
    assert (V + V_INV) * LaurentPoly({0: 2}) == LaurentPoly({1: 2, -1: 2})
    assert LaurentPoly({1: 1, -1: -1}).at_one() == 0
    assert not (V - V).coeffs


def test_quadratic_relation():
    rd, form, chi = sl2_half()
    system = integral_simple_system(rd, form, chi)
    for r in system.simple_reflections(rd):
        tr = t_element(rd, form, chi, r)
        sq = t_multiply(rd, form, tr, tr)
        expected = tr.scale(V_INV - V) + unit_element(rd, chi)
        assert sq == expected


def test_minimal_inverse_is_unit(omega_against_box):
    rd, form, chi = sl2_half()
    mins, _, _ = omega_against_box(rd, form, chi, radius=2)
    for m in mins:
        tm = t_element(rd, form, chi, m)
        tminv = t_element(rd, form, chi, m.inverse())
        assert t_multiply(rd, form, tm, tminv) == unit_element(rd, chi)


def test_cross_character_product_vanishes():
    rd, form, chi = sl2_half()
    other = character_from_config(rd, "1/2", ["1/3"])
    a = unit_element(rd, chi)
    b = unit_element(rd, other)
    prod = t_multiply(rd, form, a, b)
    assert prod.is_zero()
    assert prod.left_char == chi and prod.right_char == other
    # a sum needs equal characters on both sides; the error names both pairs
    with pytest.raises(CharacterMismatch, match=re.escape(f"characters {chi, chi} and {other, other}")):
        a + b


def test_braid_relation_a2():
    rd, form, chi = sl3_trivial()
    data = integral_simple_system(rd, form, chi)
    finite = [ac for ac in data.simples if ac.n == 0]
    assert len(finite) == 2
    s = affine_coroot_reflection(rd, finite[0])
    t = affine_coroot_reflection(rd, finite[1])
    ts, tt = t_element(rd, form, chi, s), t_element(rd, form, chi, t)
    lhs = t_multiply(rd, form, t_multiply(rd, form, ts, tt), ts)
    rhs = t_multiply(rd, form, t_multiply(rd, form, tt, ts), tt)
    assert lhs == rhs


def regular_oracle(rd, form, chi, gens, omegas=(), radius=None):
    """Brute-force Hecke multiplication in the regular representation of the
    group generated by gens and the length-zero omegas, with Cayley-graph
    lengths over gens: a BFS from each omega (at length 0) by right
    multiplication, up to radius (the whole group when it is finite)."""
    unit = ExtendedWeylElement.unit(rd.rank)
    dist = {om: 0 for om in (unit, *omegas)}
    frontier = list(dist)
    while frontier and (radius is None or dist[frontier[0]] < radius):
        new = []
        for g in frontier:
            for r in gens:
                x = g * r
                if x not in dist:
                    dist[x] = dist[g] + 1
                    new.append(x)
        frontier = new

    def mult_gen(coeffs, r):
        out = {}
        for w, c in coeffs.items():
            wr = w * r
            if dist[wr] > dist[w]:
                out[wr] = out.get(wr, LaurentPoly.zero()) + c
            else:
                out[wr] = out.get(wr, LaurentPoly.zero()) + c
                out[w] = out.get(w, LaurentPoly.zero()) + c * (V_INV - V)
        return {w: c for w, c in out.items() if not c.is_zero()}

    def word_of(w):
        # greedy descent through the Cayley graph, to the omega of w
        word = []
        cur = w
        while dist[cur]:
            for r in gens:
                if dist[cur * r] < dist[cur]:
                    word.append(r)
                    cur = cur * r
                    break
        word.reverse()
        return cur, word

    def product(x, y):
        omega, word = word_of(y)
        coeffs = {x * omega: LaurentPoly.one()}
        for r in word:
            coeffs = mult_gen(coeffs, r)
        return coeffs

    return dist, product


def test_rank2_products_match_regular_representation_oracle():
    rd, form, chi = sl3_trivial()
    data = integral_simple_system(rd, form, chi)
    finite = [ac for ac in data.simples if ac.n == 0]
    gens = [affine_coroot_reflection(rd, ac) for ac in finite]
    dist, oracle_product = regular_oracle(rd, form, chi, gens)
    elements = sorted(dist, key=lambda g: (dist[g], g.trans, g.w))
    assert len(elements) == 6
    for x in elements:
        for y in elements:
            mine = t_multiply(rd, form, t_element(rd, form, chi, x), t_element(rd, form, chi, y))
            truth = oracle_product(x, y)
            assert mine.support == truth, (x, y)


def test_pgl2_products_match_regular_representation_oracle():
    # PGL2 at the trivial character: T_x T_y for x, y of length <= 3 in both
    # cosets of the Coxeter part, so y = omega w with omega != e and w != e
    # occurs, against the oracle on the Cayley graph of the affine simples
    rd, form, chi = pgl2_trivial()
    system = integral_simple_system(rd, form, chi)
    gens = system.simple_reflections(rd)
    omega = [g for g in length_zero_group(rd, system)[0] if not g.is_identity()]
    assert len(omega) == 1
    dist, oracle_product = regular_oracle(rd, form, chi, gens, omega, radius=7)
    elements = sorted((g for g in dist if dist[g] <= 3), key=lambda g: (dist[g], g.trans, g.w))
    assert len(elements) == 14
    mixed = 0
    for x in elements:
        for y in elements:
            mine = t_multiply(rd, form, t_element(rd, form, chi, x), t_element(rd, form, chi, y))
            assert mine.support == oracle_product(x, y), (x, y)
            m, word = _descend(rd, system, y)
            mixed += not m.is_identity() and bool(word)
    assert mixed == 14 * 6


def test_associativity_randomized(stabilizer_box):
    rd, form, chi = sl2_half()
    rng = random.Random(23)
    ball = stabilizer_box(rd, form, chi, radius=2)
    for _ in range(60):
        x, y, z = (rng.choice(ball) for _ in range(3))
        tx = t_element(rd, form, chi, x)
        ty = t_element(rd, form, chi, y)
        tz = t_element(rd, form, chi, z)
        lhs = t_multiply(rd, form, t_multiply(rd, form, tx, ty), tz)
        rhs = t_multiply(rd, form, tx, t_multiply(rd, form, ty, tz))
        assert lhs == rhs


def test_specialization_v1_group_algebra(omega_against_box):
    rd, form, chi = sl2_half()
    mins, _, _ = omega_against_box(rd, form, chi, radius=2)
    for a in mins:
        for b in mins:
            prod = t_multiply(rd, form, t_element(rd, form, chi, a), t_element(rd, form, chi, b))
            assert {g: c.at_one() for g, c in prod.support.items()} == {a * b: 1}


def test_bott_samelson_single_letter():
    rd, form, chi = sl2_half()
    system = integral_simple_system(rd, form, chi)
    r = system.simple_reflections(rd)[0]
    elt, table = bott_samelson_product(rd, form, chi, [("r", r)])
    assert table[r] == ONE
    assert table[ExtendedWeylElement.unit(1)] == V


def test_bott_samelson_minimal_letter(omega_against_box):
    rd, form, chi = sl2_half()
    omega, _, _ = omega_against_box(rd, form, chi, radius=2)
    mins = [m for m in omega if not m.is_identity()]
    m = mins[0]
    elt, table = bott_samelson_product(rd, form, chi, [("omega", m)])
    assert table == {m: ONE}


def test_bott_samelson_a2_top_multiplicity():
    rd, form, chi = sl3_trivial()
    data = integral_simple_system(rd, form, chi)
    finite = [ac for ac in data.simples if ac.n == 0]
    s = affine_coroot_reflection(rd, finite[0])
    t = affine_coroot_reflection(rd, finite[1])
    elt, table = bott_samelson_product(rd, form, chi, [("r", s), ("r", t), ("r", s)])
    sts = s * t * s
    assert table[sts] == ONE
    for c in table.values():
        assert c.nonnegative()


def test_bott_samelson_rejects_a_reflection_not_simple_for_the_running_character():
    rd, form, chi = sl2_half()
    s, t = integral_simple_system(rd, form, chi).simple_reflections(rd)
    with pytest.raises(CharacterMismatch, match="reflection is not simple for the running character"):
        bott_samelson_product(rd, form, chi, [("r", s), ("r", s * t * s)])  # s t s is integral, of length 3


def test_bott_samelson_rejects_an_omega_token_that_is_not_minimal():
    rd, form, chi = sl2_half()
    s = integral_simple_system(rd, form, chi).simple_reflections(rd)[0]
    with pytest.raises(CharacterMismatch, match="omega token is not a minimal element"):
        bott_samelson_product(rd, form, chi, [("omega", s)])


def test_bott_samelson_rejects_an_unknown_token_kind():
    rd, form, chi = sl2_half()
    s = integral_simple_system(rd, form, chi).simple_reflections(rd)[0]
    with pytest.raises(ValueError, match="unknown token kind 'b'"):
        bott_samelson_product(rd, form, chi, [("r", s), ("b", s)])


def test_bott_samelson_negative_multiplicity_is_raised(monkeypatch):
    # with b_r = T_r - v in place of T_r + v the identity term of one letter
    # is -v: the typed error names the coefficient and the element
    rd, form, chi = sl2_half()
    s = integral_simple_system(rd, form, chi).simple_reflections(rd)[0]
    monkeypatch.setattr(hecke, "V", -V)
    unit = ExtendedWeylElement.unit(1)
    with pytest.raises(VerificationFailed, match=re.escape(f"Bott-Samelson multiplicity -v of {unit} is negative")):
        bott_samelson_product(rd, form, chi, [("r", s)])


def test_check_relations_reports():
    rd, form, chi = sl2_half()
    report = check_relations(rd, form, chi)
    assert report["ok"]
    assert report["infinite_pairs"] == [(0, 1)]
    rdp, formp, chip = pgl2_trivial()
    omega, _ = length_zero_group(rdp, integral_simple_system(rdp, formp, chip))
    omegas = [g for g in omega if not g.is_identity()]
    report = check_relations(rdp, formp, chip, omegas=omegas)
    assert report["ok"]


def test_omega_conjugation_swaps_walls_pgl2():
    rd, form, chi = pgl2_trivial()
    data = integral_simple_system(rd, form, chi)
    omega = [g for g in length_zero_group(rd, data)[0] if not g.is_identity()][0]
    s0, s1 = [affine_coroot_reflection(rd, ac) for ac in data.simples]
    t_om = t_element(rd, form, chi, omega)
    t_om_inv = t_element(rd, form, chi, omega.inverse())
    lhs = t_multiply(rd, form, t_multiply(rd, form, t_om, t_element(rd, form, chi, s0)), t_om_inv)
    assert lhs == t_element(rd, form, chi, s1) or lhs == t_element(rd, form, chi, s0)
    # omega is nontrivial so it must actually swap the two walls
    assert lhs == t_element(rd, form, chi, s1)


def test_descend_stops_at_a_length_zero_element_outside_the_coxeter_part():
    # the nontrivial PGL2 omega has length 0 but is not the identity: it
    # descends to itself with no letter, and omega r to omega and r
    rd, form, chi = pgl2_trivial()
    system = integral_simple_system(rd, form, chi)
    omega = [g for g in length_zero_group(rd, system)[0] if not g.is_identity()]
    assert len(omega) == 1
    assert _descend(rd, system, omega[0]) == (omega[0], [])
    for ac, r in zip(system.simples, system.simple_reflections(rd)):
        assert _descend(rd, system, omega[0] * r) == (omega[0], [ac])


def test_check_relations_checks_the_g2_braid_of_order_six(monkeypatch):
    # affine G2 at the trivial character: every pair has a finite order, and
    # the order-6 braid relation is checked (twelve products), not skipped
    rd = preset("G2", 2)
    form = gram_from_weights(rd, rd.roots)
    chi = CharacterPoint.trivial(2)
    system = integral_simple_system(rd, form, chi)
    assert sorted(system.coxeter[i][j] for i in range(3) for j in range(i + 1, 3)) == [2, 3, 6]
    calls = []
    original = hecke.t_multiply
    monkeypatch.setattr(hecke, "t_multiply", lambda *args: calls.append(args) or original(*args))
    assert check_relations(rd, form, chi) == {"failures": [], "infinite_pairs": [], "ok": True}
    assert len(calls) == 3 + 2 * (2 + 3 + 6)


# ---------------------------------------------------------------------------
# the wall-test descents against length counts and the t_multiply route

RANK_AT_MOST_TWO = [("SL", 2), ("SL", 3), ("PGL", 2), ("PGL", 3), ("GL", 2), ("Sp", 2), ("Sp", 4), ("PSp", 4),
                    ("SO_odd", 5), ("Spin_odd", 5), ("SO_even", 4), ("G2", 2)]


def _seeded_characters(rng):
    """(rd, form, chi) on every rank <= 2 preset at c in {0, 1/2, 1/3}, with
    the finite part zero or seeded in sixths."""
    for name, n in RANK_AT_MOST_TWO:
        rd = preset(name, n)
        form = even_form(rd)
        for c in ("0", "1/2", "1/3"):
            for finite in ((QmodZ(0, 1),) * rd.rank, tuple(QmodZ(rng.randrange(6), 6) for _ in range(rd.rank))):
                yield rd, form, CharacterPoint(QmodZ.parse(c), finite)


def _random_element(rng, rd):
    return ExtendedWeylElement(tuple(rng.randint(-1, 1) for _ in range(rd.rank)), rng.choice(weyl_elements(rd)))


def _seeded_word(rng, rd, form, chi, length):
    """Simple reflections of the running character and omega tokens: the
    minimal representative m of a random x at x^{-1} cur, which moves the
    running character to m^{-1} cur."""
    word, cur = [], chi
    for _ in range(length):
        refl = integral_simple_system(rd, form, cur).simple_reflections(rd)
        if refl and rng.random() < 0.75:
            word.append(("r", rng.choice(refl)))
            continue
        x = _random_element(rng, rd)
        cur = extended_act_character(x.inverse(), form, cur)
        word.append(("omega", minimal_rep(rd, form, cur, x)))
    return word


def _t_multiply_route(rd, form, chi, word):
    """The word multiplied out with t_multiply: b_r = T_r + v T_e for "r", T_m for "omega"."""
    elt, cur = unit_element(rd, chi), chi
    for kind, g in word:
        if kind == "r":
            elt = t_multiply(rd, form, elt, t_element(rd, form, cur, g) + unit_element(rd, cur).scale(V))
        else:
            cur = extended_act_character(g.inverse(), form, cur)
            elt = t_multiply(rd, form, elt, t_element(rd, form, cur, g))
    return elt


def test_bott_samelson_product_against_the_t_multiply_route():
    rng = random.Random(2507202)
    tokens = Counter()
    for rd, form, chi in _seeded_characters(rng):
        for _ in range(2):
            word = _seeded_word(rng, rd, form, chi, rng.randint(1, 6))
            elt, table = bott_samelson_product(rd, form, chi, word)
            assert elt == _t_multiply_route(rd, form, chi, word) and table == elt.support, (rd.name, chi, word)
            tokens.update(kind for kind, _ in word)
    assert tokens["r"] >= 200 and tokens["omega"] >= 150, tokens


def test_descents_against_integral_length(reference_length):
    # _descend on products z of simple reflections: z = e r_1 ... r_k with
    # as many simple letters as the reference length of z; on g = x z (x a
    # random ambient element): g = m r_1 ... r_k with m minimal (reference
    # length 0), the minimal_rep of g, and k its reference length;
    # _mult_by_simple on g against the descent read off two reference lengths
    rng = random.Random(2507203)
    descents, moved = Counter(), 0
    for rd, form, chi in _seeded_characters(rng):
        system = integral_simple_system(rd, form, chi)
        refl = system.simple_reflections(rd)
        for _ in range(3):
            z = ExtendedWeylElement.unit(rd.rank)
            for _ in range(rng.randint(0, 8) if refl else 0):
                z = z * rng.choice(refl)
            m, word = _descend(rd, system, z)
            assert m.is_identity(), (rd.name, chi, z, m)
            assert len(word) == reference_length(rd, system, z) and set(word) <= set(system.simples), (rd.name, chi, z)
            assert _word_product(rd, m, word) == z, (rd.name, chi, z, word)
            g = _random_element(rng, rd) * z
            m, word = _descend(rd, system, g)
            assert is_minimal(system, m) and m == minimal_rep(rd, form, chi, g), (rd.name, chi, g, m)
            assert reference_length(rd, system, m) == 0, (rd.name, chi, g, m)
            assert len(word) == reference_length(rd, system, g) and _word_product(rd, m, word) == g, (rd.name, chi, g, word)
            moved += not m.is_identity()
            for ac, r in zip(system.simples, refl):
                descent = reference_length(rd, system, g * r) < reference_length(rd, system, g)
                expected = {g * r: ONE, g: V_INV - V} if descent else {g * r: ONE}
                got = _mult_by_simple(rd, system, HeckeElement(extended_act_character(g, form, chi), chi, {g: ONE}), ac)
                assert got.support == expected, (rd.name, chi, g, ac)
                descents[descent] += 1
    assert descents[True] >= 150 and descents[False] >= 150 and moved >= 100, (descents, moved)


def _word_product(rd, m, word):
    for ac in word:
        m = m * affine_coroot_reflection(rd, ac)
    return m
