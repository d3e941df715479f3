"""Tests of the benchmark's output checks on hand-computable cases.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run.
"""

from fractions import Fraction

import checks

F = Fraction
SL2 = {"roots": ((2,), (-2,)), "coroots": ((1,), (-1,)), "simple": (0,)}
# Cartan realization of A2: simple coroots are the unit vectors
SL3 = {
    "roots": ((2, -1), (-1, 2), (1, 1), (-2, 1), (1, -2), (-1, -1)),
    "coroots": ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)),
    "simple": (0, 1),
}
S2 = ((2,),)  # weights +-1: Q(alpha-check) = 1
UNIT1 = ((0,), ((1,),))
S0 = ((0,), ((-1,),))  # s_alpha
S1 = ((-1,), ((-1,),))  # t^{-alpha} s_alpha, the affine simple reflection
T1 = ((1,), ((1,),))  # t^{alpha}
TRIVIAL = (F(0), (F(0),))


def test_integral_length_sl2():
    assert checks.integral_length(SL2, S2, TRIVIAL, UNIT1) == 0
    assert checks.integral_length(SL2, S2, TRIVIAL, S0) == 1
    assert checks.integral_length(SL2, S2, TRIVIAL, S1) == 1
    assert checks.integral_length(SL2, S2, TRIVIAL, T1) == 2
    # at c = 1/2 only even levels are integral, so t^alpha has length 1
    assert checks.integral_length(SL2, S2, (F(1, 2), (F(0),)), T1) == 1


def test_act_character():
    assert checks.act_character(T1, S2, (F(1, 4), (F(0),))) == (F(1, 4), (F(1, 2),))
    assert checks.same_character(checks.act_character(T1, S2, (F(1, 2), (F(0),))), (F(1, 2), (F(0),)))
    assert checks.act_character(S0, S2, (F(0), (F(1, 3),))) == (F(0), (F(2, 3),))


def test_orders_and_coxeter_problems():
    assert checks.order(checks.compose(S0, S1)) == "infinite"
    assert checks.order(checks.compose(S0, S0)) == 1
    s = checks.affine_reflection(SL3, (1, 0), 0)
    t = checks.affine_reflection(SL3, (0, 1), 0)
    assert s[1] == ((-1, 1), (0, 1))
    assert checks.order(checks.compose(s, t)) == 3
    assert checks.coxeter_problems([s, t], ((1, 3), (3, 1)), "A2") == []
    assert checks.coxeter_problems([s, t], ((1, 2), (2, 1)), "A2")


def test_simple_system_and_minimal_rep_problems():
    simples = [((1,), 0), ((-1,), 1)]
    assert checks.simple_system_problems(SL2, S2, TRIVIAL, simples, ((1, "infinite"), ("infinite", 1))) == []
    assert checks.simple_system_problems(SL2, S2, TRIVIAL, [((1,), 0), ((-1,), 2)], ((1, "infinite"), ("infinite", 1)))
    assert checks.minimal_rep_problems(SL2, S2, TRIVIAL, T1, UNIT1) == []
    assert checks.minimal_rep_problems(SL2, S2, TRIVIAL, T1, S0)


def test_bott_samelson_products():
    e = UNIT1
    assert checks.subexpression_counts([S0, S0]) == {e: 2, S0: 2}
    # b_s b_s = (v + 1/v) b_s
    table = {e: {2: 1, 0: 1}, S0: {1: 1, -1: 1}}
    assert checks.t_basis_product(SL2, S2, TRIVIAL, [S0, S0]) == table
    assert checks.bott_samelson_problems(SL2, S2, TRIVIAL, [S0, S0], table) == []
    assert checks.bott_samelson_problems(SL2, S2, TRIVIAL, [S0, S0], {e: {2: 1, 0: 1}, S0: {1: 2}})


def test_deodhar_table_a2():
    s, t = ((-1, 1), (0, 1)), ((1, 0), (1, -1))
    st, ts = checks.mat_mul(s, t), checks.mat_mul(t, s)
    e = checks.identity(2)
    assert checks.deodhar_table([s]) == {e: {1: 1}, s: {0: 1}}
    # b_s b_t b_s = b_sts + b_s
    expected = {
        checks.mat_mul(st, s): {0: 1},
        st: {1: 1},
        ts: {1: 1},
        s: {2: 1, 0: 1},
        t: {2: 1},
        e: {3: 1, 1: 1},
    }
    assert checks.deodhar_table([s, t, s]) == expected
    assert checks.graph_character_problems([s, t, s], expected) == []
    assert checks.graph_character_problems([s, t, s], dict(expected, t={2: 2}))


def test_end_bs_dimensions():
    assert checks.end_bs_problems(1, 4, {"end": [1, 2, 2, 2], "identity": True}) == []
    assert checks.end_bs_problems(2, 4, {"end": [1, 3, 5, 7], "identity": True}) == []
    assert checks.end_bs_problems(3, 3, {"end": [1, 4, 9], "identity": True}) == []
    assert checks.end_bs_problems(2, 4, {"end": [1, 3, 5, 8], "identity": True})
    assert checks.end_bs_problems(1, 2, {"end": [1, 2], "identity": False})


def test_slice_walls_and_iota():
    kappa = ((F(2),),)  # q = 1, every level integral at theta = 0
    assert checks.slice_act(T1, kappa, (F(0),)) == (F(-2),)
    assert checks.slice_act(S0, kappa, (F(1, 2),)) == (F(-1, 2),)
    assert checks.separating_levels(kappa, (F(0),), (1,), (F(1, 2),), (F(1, 3),)) == []
    assert checks.separating_levels(kappa, (F(0),), (1,), (F(1, 2),), (F(3, 2),)) == [-1]
    # theta = 1/2 moves the integral walls to half-integers
    assert checks.separating_levels(kappa, (F(1, 2),), (1,), (F(1, 4),), (F(3, 4),)) == []
    assert checks.iota(kappa, (F(1),), (F(1),)) == (F(0),)
    assert checks.iota(kappa, (F(1),), (F(0),)) == (F(1, 2),)


def test_parabolic_match_a2():
    k = ((2, -1), (-1, 2))
    neg = ((-2, 1), (1, -2))
    assert checks.parabolic_match_problems(SL3, k, ((0, 1), (1, 0))) == []
    assert checks.parabolic_match_problems(SL3, neg, ((0, 0), (1, 1))) == []
    assert checks.parabolic_match_problems(SL3, k, ((0, 0), (1, 1)))
