import random
import re

import pytest

from weylkit.affine import (
    CharacterPoint,
    ExtendedWeylElement,
    affine_coroot_reflection,
    character_from_config,
    gram_from_matrix,
    gram_from_weights,
    length_zero_group,
)
from weylkit.hecke import (
    ONE,
    V,
    V_INV,
    HeckeElement,
    LaurentPoly,
    _left_descent_word,
    b_element,
    bott_samelson_product,
    check_relations,
    t_element,
    t_multiply,
    unit_element,
    zero_element,
)
from weylkit.integral import DescentStalled, integral_simple_system
from weylkit.rootdata import preset


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


def regular_oracle(rd, form, chi, gens):
    """Brute-force Hecke multiplication in the regular representation of the
    finite subgroup generated by gens, with Cayley-graph lengths."""
    unit = ExtendedWeylElement.unit(rd.rank)
    dist = {unit: 0}
    frontier = [unit]
    while frontier:
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
        # greedy descent through the Cayley graph
        word = []
        cur = w
        while dist[cur]:
            for r in gens:
                if dist[cur * r] < dist[cur]:
                    word.append(r)
                    cur = cur * r
                    break
        word.reverse()
        return word

    def product(x, y):
        coeffs = {x: LaurentPoly.one()}
        for r in word_of(y):
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
            assert prod.specialize_v1() == {a * b: 1}


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


def test_check_relations_reports():
    rd, form, chi = sl2_half()
    report = check_relations(rd, form, chi)
    assert report["ok"]
    assert report["infinite_pairs"] == [(0, 1)]
    rdp, formp, chip = pgl2_trivial()
    omega, _ = length_zero_group(rdp, formp, integral_simple_system(rdp, formp, chip))
    omegas = [g for g in omega if not g.is_identity()]
    report = check_relations(rdp, formp, chip, omegas=omegas)
    assert report["ok"]


def test_omega_conjugation_swaps_walls_pgl2():
    rd, form, chi = pgl2_trivial()
    data = integral_simple_system(rd, form, chi)
    omega = [g for g in length_zero_group(rd, form, data)[0] if not g.is_identity()][0]
    s0, s1 = [affine_coroot_reflection(rd, ac) for ac in data.simples]
    t_om = t_element(rd, form, chi, omega)
    t_om_inv = t_element(rd, form, chi, omega.inverse())
    lhs = t_multiply(rd, form, t_multiply(rd, form, t_om, t_element(rd, form, chi, s0)), t_om_inv)
    assert lhs == t_element(rd, form, chi, s1) or lhs == t_element(rd, form, chi, s0)
    # omega is nontrivial so it must actually swap the two walls
    assert lhs == t_element(rd, form, chi, s1)


def test_descent_word_names_a_length_zero_element_outside_the_coxeter_part():
    # the nontrivial PGL2 omega has length 0 but is not the identity
    rd, form, chi = pgl2_trivial()
    omega = [g for g in length_zero_group(rd, form, integral_simple_system(rd, form, chi))[0] if not g.is_identity()]
    assert len(omega) == 1
    with pytest.raises(DescentStalled, match=re.escape(str(omega[0]))):
        _left_descent_word(rd, form, chi, omega[0])
