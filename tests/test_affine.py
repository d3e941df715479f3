import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from conftest import RANK_AT_MOST_FOUR, ambient_to_lattice, even_form, value_on
from weylkit.exact import QmodZ, dot, identity, lattice_basis_from_generators, lattice_contains, mat_inv, solve_integer_affine, vec_sub
from weylkit.affine import (
    AffineCoroot,
    CharacterPoint,
    ExtendedWeylElement,
    GramForm,
    NoDominantCovector,
    NotIntegral,
    NotPositiveDefinite,
    NotWInvariant,
    OddOnCoroot,
    _reflected_walls,
    act_affine_coroot,
    affine_coroot_reflection,
    below_wall,
    character_from_config,
    descend,
    dominant_base_point,
    extended_act_character,
    extended_act_cochar,
    extended_matrix,
    gram_from_matrix,
    gram_from_weights,
    length_zero_group,
    progression_contains,
    progression_count_in,
    progression_min_at_least,
    simple_system_from_progressions,
    slice_act_inverse,
    stabilizer_cosets,
)
from weylkit import duality
from weylkit.duality import Level, finite_components, level_from_config, level_integral_weyl
from weylkit.integral import integral_simple_system
from weylkit.rootdata import RootDatum, _coroot_table, preset, weyl_elements


def sl2():
    return preset("SL", 2)


def sl2_form():
    # standard representation: weights ±ϖ, ϖ(α̌) = 1
    return gram_from_weights(sl2(), [(1,), (-1,)])


def test_gram_sl2_standard():
    form = sl2_form()
    assert form.matrix == ((2,),)
    assert form.q((1,)) == 1


def test_gram_from_weights_names_a_weight_of_the_wrong_length():
    rd = preset("SL", 3)
    assert gram_from_weights(rd, rd.roots).matrix == ((12, -6), (-6, 12))
    padded, truncated = [r + (0,) for r in rd.roots], [r[:1] for r in rd.roots]
    for weights, k, length in ((padded, 0, 3), (truncated, 0, 1), (list(rd.roots) + [(1, 0, 0)], 6, 3)):
        with pytest.raises(ValueError, match=f"weight {k} has length {length}, not the rank 2"):
            gram_from_weights(rd, weights)


def test_gram_rejects_empty():
    with pytest.raises(NotPositiveDefinite):
        gram_from_weights(sl2(), [])


def test_form_checks_name_the_form():
    # each check of a form names it: asymmetric, not positive definite, not
    # Weyl invariant, and odd on a coroot
    sp4 = preset("Sp", 4)
    with pytest.raises(ValueError, match=re.escape("form [[2, 1], [0, 2]] is not symmetric")) as info:
        gram_from_matrix(sp4, [[2, 1], [0, 2]])
    assert type(info.value) is ValueError
    with pytest.raises(NotPositiveDefinite, match=re.escape("leading 1x1 minor of the form [[-2]] is not positive")):
        gram_from_matrix(sl2(), [[-2]])
    with pytest.raises(NotWInvariant, match=re.escape("form [[2, 0], [0, 4]] is not Weyl invariant")):
        gram_from_matrix(sp4, [[2, 0], [0, 4]])
    with pytest.raises(OddOnCoroot, match=re.escape("S(a,a) = 1 on coroot (-1,) is not even positive for the form [[1]]")):
        gram_from_matrix(sl2(), [[1]])


def test_gram_from_matrix_names_a_bad_entry_or_shape():
    # an entry that is not an integer is refused by name, not truncated to a
    # form that validates; a matrix that is not rank x rank is a ValueError
    # naming its shape, not an IndexError
    rd = sl2()
    for bad in (Fraction(9, 2), 4.9, "9/2"):
        with pytest.raises(NotIntegral, match=re.escape(f"form entry {bad!r} at (0, 0) is not an integer")):
            gram_from_matrix(rd, [[bad]])
    assert gram_from_matrix(rd, [[Fraction(4)]]) == gram_from_matrix(rd, [[4.0]]) == GramForm(((4,),))
    sl3 = preset("SL", 3)
    for matrix, shape in (([[1]], "1 rows of lengths [1]"), ([[2, -1, 0], [-1, 2]], "2 rows of lengths [3, 2]"),
                          ([[2, -1], [-1, 2], [0, 0]], "3 rows of lengths [2, 2, 2]")):
        with pytest.raises(ValueError, match=re.escape(shape + " are not 2 x 2, the rank")) as info:
            gram_from_matrix(sl3, matrix)
        assert type(info.value) is ValueError


def test_character_from_config_reads_every_value_as_an_entry():
    # the central value and each finite value go through the entry reader:
    # 0.1 is 1/10 in both places, and "1/0", inf, nan, a bool and a
    # non-number raise a ValueError naming the value and where it is
    rd = sl2()
    chi = character_from_config(rd, 0.1, [0.1])
    assert chi.central == chi.finite[0] == QmodZ(1, 10)
    assert character_from_config(rd, Fraction(7, 6), ["1/3"]) == CharacterPoint(QmodZ(1, 6), (QmodZ(1, 3),))
    for bad in ("1/0", math.inf, -math.inf, math.nan, True, None, "two"):
        for central, finite, at in ((bad, [0], "the central value"), ("1/2", [bad], "finite index 0")):
            with pytest.raises(ValueError, match=re.escape(f"entry {bad!r} at {at} is not a rational number")) as info:
                character_from_config(rd, central, finite)
            assert type(info.value) is ValueError


def test_config_matrices_read_entries_as_character_from_config_does():
    # 0.1 is read through str as 1/10, as character_from_config reads it, not
    # as the binary float; "1/0", inf, nan, a bool and a non-number are
    # refused on both constructors by a ValueError naming the entry and (i, j)
    rd = sl2()
    assert level_from_config(rd, [[0.1]]).gram == ((Fraction(1, 10),),)
    assert character_from_config(rd, "0", [0.1]).finite == (QmodZ(1, 10),)
    with pytest.raises(NotIntegral, match=re.escape("form entry 0.1 at (0, 0) is not an integer")):
        gram_from_matrix(rd, [[0.1]])
    for bad in ("1/0", math.inf, -math.inf, math.nan, True, None, [2], "two"):
        for build in (gram_from_matrix, level_from_config):
            with pytest.raises(ValueError, match=re.escape(f"entry {bad!r} at (0, 0) is not a rational number")) as info:
                build(rd, [[bad]])
            assert type(info.value) is ValueError
    sp4 = preset("Sp", 4)
    for build in (gram_from_matrix, level_from_config):
        with pytest.raises(ValueError, match=re.escape("entry '1/0' at (1, 0) is not a rational number")):
            build(sp4, [[2, 0], ["1/0", 2]])
    assert level_from_config(sp4, [["1/2", 0], [0, 0.5]]).gram == ((Fraction(1, 2), 0), (0, Fraction(1, 2)))


def test_gram_psp6_adjoint():
    psp6 = preset("PSp", 6)
    form = gram_from_weights(psp6, psp6.roots)
    # ambient form is 16*Id: S(e_i, e_j) = 16 delta_ij
    e = [ambient_to_lattice(psp6, [int(k == i) for k in range(3)]) for i in range(3)]
    for i in range(3):
        for j in range(3):
            assert form.pair(e[i], e[j]) == (16 if i == j else 0)


def test_cochar_action_examples():
    rd, form = sl2(), sl2_form()
    t = ExtendedWeylElement.translation((1,))
    # t^alpha on alpha: alpha + 2 K_c
    assert extended_act_cochar(t, form, (0, (1,))) == (2, (1,))
    # anything fixes K_c
    s = ExtendedWeylElement.from_weyl(rd.reflection(rd.simple_indices[0]))
    assert extended_act_cochar(t * s, form, (1, (0,))) == (1, (0,))
    # pure w has no central term
    assert extended_act_cochar(s, form, (0, (1,))) == (0, (-1,))


def test_group_law_matches_matrix_action():
    rd, form = preset("Sp", 4), gram_from_weights(preset("Sp", 4), [(1, 0), (-1, 0), (0, 1), (0, -1)])
    rng = random.Random(11)
    ws = weyl_elements(rd)
    for _ in range(40):
        g = ExtendedWeylElement(tuple(rng.randint(-3, 3) for _ in range(2)), rng.choice(ws))
        h = ExtendedWeylElement(tuple(rng.randint(-3, 3) for _ in range(2)), rng.choice(ws))
        v = (rng.randint(-2, 2), tuple(rng.randint(-4, 4) for _ in range(2)))
        lhs = extended_act_cochar(g * h, form, v)
        rhs = extended_act_cochar(g, form, extended_act_cochar(h, form, v))
        assert lhs == rhs
        from weylkit.exact import mat_mul

        assert extended_matrix(g * h, form) == mat_mul(extended_matrix(g, form), extended_matrix(h, form))


def test_character_action_examples():
    rd, form = sl2(), sl2_form()
    chi = CharacterPoint(QmodZ(1, 2), (QmodZ(0, 1),))
    t = ExtendedWeylElement.translation((1,))
    assert extended_act_character(t, form, chi) == chi  # c*S(a,-) = (1/2)*2 = 0 mod 1
    s = ExtendedWeylElement.from_weyl(rd.reflection(0))
    assert extended_act_character(s, form, chi) == chi
    e = ExtendedWeylElement.unit(1)
    chi2 = CharacterPoint(QmodZ(1, 3), (QmodZ(1, 7),))
    assert extended_act_character(e, form, chi2) == chi2


def test_character_action_is_left_action():
    rd = preset("Sp", 4)
    form = gram_from_weights(rd, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    rng = random.Random(5)
    ws = weyl_elements(rd)
    chi = CharacterPoint(QmodZ(1, 4), (QmodZ(1, 3), QmodZ(2, 5)))
    for _ in range(30):
        g = ExtendedWeylElement(tuple(rng.randint(-2, 2) for _ in range(2)), rng.choice(ws))
        h = ExtendedWeylElement(tuple(rng.randint(-2, 2) for _ in range(2)), rng.choice(ws))
        assert extended_act_character(g * h, form, chi) == extended_act_character(
            g, form, extended_act_character(h, form, chi)
        )


def _eval_affine_coroot(form, ac, x):
    """The affine function <x, alpha> + n Q(alpha) of ac on the slice."""
    return sum((Fraction(c) * v for c, v in zip(x, ac.coroot)), Fraction(0)) + ac.n * form.q(ac.coroot)


def test_affine_coroot_slice_intertwining():
    # on Sp4 with the form of +-e_i and on the root form of the presets the
    # block benchmark runs; act_affine_coroot divides the image level by
    # q(alpha) with no check, so the level must be a multiple of it
    rng = random.Random(3)
    sp4 = preset("Sp", 4)
    cases = [(sp4, gram_from_weights(sp4, [(1, 0), (-1, 0), (0, 1), (0, -1)]))]
    cases += [(rd, gram_from_weights(rd, rd.roots)) for rd in (preset(name, n) for name, n in
              (("SL", 3), ("Sp", 4), ("G2", 2), ("SO_odd", 5), ("PGL", 3), ("SL", 4)))]
    for rd, form in cases:
        ws = weyl_elements(rd)
        for _ in range(40):
            g = ExtendedWeylElement(tuple(rng.randint(-2, 2) for _ in range(rd.rank)), rng.choice(ws))
            ac = AffineCoroot(rng.choice(rd.coroots), rng.randint(-3, 3))
            level, image = extended_act_cochar(g, form, ac.pair_form(form))
            assert level % form.q(image) == 0, (rd.name, g, ac)
            x = tuple(Fraction(rng.randint(-9, 9), 7) for _ in range(rd.rank))
            lhs = _eval_affine_coroot(form, act_affine_coroot(g, rd, form, ac), slice_act_inverse(g.inverse(), form, x))
            assert lhs == _eval_affine_coroot(form, ac, x), (rd.name, g, ac)


def ambient(rd, form):
    """The ambient affine system (the integral system of the trivial
    character) and its length-zero group."""
    system = integral_simple_system(rd, form, CharacterPoint.trivial(rd.rank))
    return system, length_zero_group(rd, system)


def test_affine_simple_data_sl2(affine_coroot_label):
    rd, form = sl2(), sl2_form()
    data, (omega, _) = ambient(rd, form)
    labels = sorted(affine_coroot_label(rd, ac) for ac in data.simples)
    assert labels == [((1,), 0), ((1,), 1)]
    assert len(omega) == 1  # SL2 is simply connected
    assert data.coxeter[0][1] == "infinite"


def test_affine_simple_data_pgl2(reference_length):
    rd = preset("PGL", 2)
    form = gram_from_matrix(rd, [[2]])
    data, (omega, _) = ambient(rd, form)
    assert len(data.simples) == 2
    assert len(omega) == 2
    nontrivial = [g for g in omega if not g.is_identity()]
    assert len(nontrivial) == 1
    assert reference_length(rd, data, nontrivial[0]) == 0 and descend_length(rd, data, nontrivial[0]) == 0
    # it fixes the base alcove, so its order is finite: here g^2 is the unit
    assert nontrivial[0].w != identity(1) and (nontrivial[0] * nontrivial[0]).is_identity()


def test_affine_simple_data_torus():
    rd = preset("torus", 2)
    form = gram_from_matrix(rd, [[1, 0], [0, 1]])
    data, (_, omega_lattice) = ambient(rd, form)
    assert data.simples == ()
    assert len(omega_lattice) == 2  # translations form the lattice part


def test_affine_simple_data_sp4(affine_coroot_label):
    rd = preset("Sp", 4)
    form = gram_from_weights(rd, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    data, _ = ambient(rd, form)
    assert len(data.simples) == 3
    labels = sorted(affine_coroot_label(rd, ac) for ac in data.simples)
    assert ((1, 0), 1) in labels  # the wall x(e1) = Q(e1)
    # affine C2 Coxeter matrix: orders {4, 4, 2} off-diagonal
    off = sorted(
        data.coxeter[i][j] for i in range(3) for j in range(3) if i < j
    )
    assert off == [2, 4, 4]


def descend_length(rd, system, g):
    """The number of simple walls descend crosses from g^{-1} x0."""
    return len(descend(rd, system, slice_act_inverse(g, system.form, system.base_point))[0])


def test_lengths_sl2(reference_length):
    rd, form = sl2(), sl2_form()
    data, _ = ambient(rd, form)
    e = ExtendedWeylElement.unit(1)
    s = ExtendedWeylElement.from_weyl(rd.reflection(0))
    t = ExtendedWeylElement.translation((1,))
    for g, length in ((e, 0), (s, 1), (t, 2)):
        assert reference_length(rd, data, g) == length and descend_length(rd, data, g) == length


def test_length_steps_by_one(reference_length):
    rd = preset("Sp", 4)
    form = gram_from_weights(rd, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    data, _ = ambient(rd, form)
    refl = [affine_coroot_reflection(rd, ac) for ac in data.simples]
    rng = random.Random(2)
    ws = weyl_elements(rd)
    for _ in range(25):
        g = ExtendedWeylElement(tuple(rng.randint(-2, 2) for _ in range(2)), rng.choice(ws))
        lg = reference_length(rd, data, g)
        assert descend_length(rd, data, g) == lg
        for r in refl:
            assert abs(reference_length(rd, data, g * r) - lg) == 1


def test_length_additive_on_reduced_words(reference_length):
    rd, form = sl2(), sl2_form()
    data, _ = ambient(rd, form)
    refl = [affine_coroot_reflection(rd, ac) for ac in data.simples]
    g = ExtendedWeylElement.unit(1)
    expected = 0
    word = [0, 1, 0, 1, 0, 1]
    for i in word:
        g = g * refl[i]
        expected += 1
        assert reference_length(rd, data, g) == expected and descend_length(rd, data, g) == expected


def test_faithfulness_short_words():
    rd, form = sl2(), sl2_form()
    data, (omega, _) = ambient(rd, form)
    gens = [affine_coroot_reflection(rd, ac) for ac in data.simples] + list(omega)
    seen = {}
    frontier = {ExtendedWeylElement.unit(1)}
    for _ in range(6):
        new = set()
        for g in frontier:
            for h in gens:
                new.add(g * h)
        frontier = new
        for g in frontier:
            m = extended_matrix(g, form)
            if m in seen:
                assert seen[m] == g
            else:
                seen[m] = g


def test_character_from_config_bases():
    psp6 = preset("PSp", 6)
    chi = character_from_config(psp6, "1/8", ["1/3", "1/5", "1/4"], basis="simple_roots")
    # chi_f(e1) = theta_1 = 1/3
    e1 = ambient_to_lattice(psp6, [1, 0, 0])
    assert value_on(chi, e1) == QmodZ(1, 3)
    e3 = ambient_to_lattice(psp6, [0, 0, 1])
    assert value_on(chi, e3) == QmodZ(3, 10)


def test_character_from_config_names_a_wrong_length_or_basis():
    gl2 = preset("GL", 2)  # rank 2, one simple root
    with pytest.raises(ValueError, match=re.escape("finite part of length 1 must have the rank 2")):
        character_from_config(gl2, "0", [0])
    with pytest.raises(ValueError, match=re.escape("2 values for 1 simple roots: need one per simple root")):
        character_from_config(gl2, "0", [0, 0], basis="simple_roots")
    with pytest.raises(ValueError, match=re.escape("unknown character basis 'weights'")):
        character_from_config(gl2, "0", [0, 0], basis="weights")


def test_typed_errors_name_the_datum_and_the_elements():
    # dependent simple coroots (1) and (-1): no covector is 1 on both
    bad = RootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0, 1), name="dependent simples")
    with pytest.raises(NoDominantCovector, match="dependent simples"):
        dominant_base_point(bad, GramForm(((2,),)))


def test_progression_helpers_against_enumeration():
    progressions = [None, (0, 0), (3, 0), (-5, 0)] + [(i, d) for d in (1, 2, 3, 7) for i in range(-8, 9, 3)]
    for p in progressions:
        if p is None:
            members = []
        elif p[1] == 0:
            members = [p[0]]
        else:
            members = [n for n in range(-200, 201) if (n - p[0]) % p[1] == 0]
        for n in range(-30, 31):
            assert progression_contains(p, n) == (n in members), (p, n)
        for lo in range(-40, 41):
            assert progression_min_at_least(p, lo) == min((n for n in members if n >= lo), default=None), (p, lo)
        for a in range(-20, 21, 3):
            for b in range(a - 3, 25, 2):  # b < a gives the empty range
                assert progression_count_in(p, a, b) == sum(a <= n <= b for n in members), (p, a, b)


# ---------------------------------------------------------------------------
# the integer slice kernel against the Fraction formulas it replaced

def _coxeter_entry_by_powers(r, s):
    """The least k <= 6 with (r s)^k = e, or "infinite" when (r s)^12 != e:
    every finite order in a crystallographic group divides 12."""
    g, p = r * s, ExtendedWeylElement.unit(len(r.trans))
    for k in range(1, 13):
        p = p * g
        if k <= 6 and p.is_identity():
            return k
    return "order 12" if p.is_identity() else "infinite"


COXETER_PRESETS = [("SL", 2), ("SL", 3), ("SL", 4), ("SL", 5), ("PGL", 2), ("PGL", 3), ("Sp", 4), ("PSp", 4), ("Sp", 6),
                   ("G2", 2), ("SO_odd", 5), ("Spin_odd", 5), ("SO_odd", 7), ("SO_even", 6), ("SO_even", 8)]


def test_coxeter_entries_against_powers_of_the_simple_reflections():
    # coxeter_system reads each entry off two Cartan integers; here each is
    # found by powering r_i r_j, on the systems of both front ends: characters
    # (c, chi_f) on the Killing form, chi_f zero or seeded in twelfths, and
    # levels c K, theta zero or seeded in sixths
    rng = random.Random(2507230)
    cases, seen = 0, set()
    for name, param in COXETER_PRESETS:
        rd = preset(name, param)
        killing = gram_from_weights(rd, rd.roots)
        systems = []
        for c in (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(5, 6)):
            seeded = [tuple(Fraction(rng.randrange(12), 12) for _ in range(rd.rank)) for _ in range(2)]
            for finite in [(Fraction(0),) * rd.rank] + seeded:
                chi = CharacterPoint(QmodZ.from_fraction(Fraction(c)), tuple(map(QmodZ.from_fraction, finite)))
                systems.append(integral_simple_system(rd, killing, chi))
        for c in (1, -1, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3)):
            lvl = level_from_config(rd, [[c * x for x in row] for row in killing.matrix])
            for theta in ((Fraction(0),) * rd.rank, tuple(Fraction(rng.randrange(6), 6) for _ in range(rd.rank))):
                systems.append(level_integral_weyl(rd, lvl, theta))
        for system in systems:
            reflections = system.simple_reflections(rd)
            for i, j in itertools.combinations(range(len(reflections)), 2):
                expected = _coxeter_entry_by_powers(reflections[i], reflections[j])
                assert system.coxeter[i][j] == system.coxeter[j][i] == expected, (name, system.simples, i, j)
                seen.add(expected)
            assert all(system.coxeter[i][i] == 1 for i in range(len(reflections)))
            cases += 1
    assert cases == 420
    assert seen == {2, 3, 4, 6, "infinite"}


KERNEL_PRESETS = [("SL", 2), ("SL", 3), ("SL", 4), ("SL", 5), ("PGL", 3), ("GL", 2), ("Sp", 4), ("Sp", 6), ("PSp", 4),
                  ("SO_odd", 5), ("SO_odd", 7), ("Spin_odd", 5), ("SO_even", 4), ("SO_even", 6), ("SO_even", 8), ("G2", 2)]


def _fraction_weyl_shift(w, right, left):
    winv = mat_inv(w)
    n = len(w)
    return tuple(sum((Fraction(right[j]) * winv[j][i] for j in range(n)), Fraction(0)) - Fraction(left[i]) for i in range(n))


def _fraction_slice_act(g, form, x):
    winv = mat_inv(g.w)
    scov = form.covector(g.trans)
    n = len(x)
    return tuple(sum((Fraction(x[j]) * winv[j][i] for j in range(n)), Fraction(0)) - scov[i] for i in range(n))


def _fraction_gallery_walk(walls_between, rd, form, progressions, p, target):
    """p reflected in the first integral wall between p and target until none is left."""
    walls = walls_between(rd, form, progressions, p, target)
    while walls:
        p = _fraction_slice_act(affine_coroot_reflection(rd, AffineCoroot(walls[0][0], walls[0][1])), form, p)
        walls = walls_between(rd, form, progressions, p, target)
    return p


def _kernel_systems(rd, rng):
    """Integral systems: on S at the trivial and a seeded character, and at
    levels c S of both signs at a random theta, one with a component flagged
    irrational."""
    try:
        form = gram_from_weights(rd, rd.roots)
    except NotPositiveDefinite:  # GL: the roots do not span
        form = gram_from_weights(rd, [tuple(s * int(i == j) for j in range(rd.rank)) for i in range(rd.rank) for s in (1, -1)])
    c = Fraction(rng.randint(1, 5), rng.choice((2, 3, 4, 6)))
    chi = CharacterPoint(QmodZ.from_fraction(c), tuple(QmodZ(rng.randint(0, 11), 12) for _ in range(rd.rank)))
    out = [integral_simple_system(rd, form, CharacterPoint.trivial(rd.rank)), integral_simple_system(rd, form, chi)]
    for sign, irrational in ((1, ()), (-1, ()), (rng.choice((1, -1)), (rng.randrange(len(finite_components(rd))),))):
        c = sign * Fraction(rng.randint(1, 5), rng.randint(1, 6))
        lvl = level_from_config(rd, [[c * v for v in row] for row in form.matrix], irrational)
        out.append(level_integral_weyl(rd, lvl, tuple(Fraction(rng.randint(0, 11), 12) for _ in range(rd.rank))))
    return out


def _onto_wall(rd, form, progressions, x, rng):
    """x moved along one coordinate onto a random integral wall
    {<x, alpha> = -n q(alpha)}, or None if there is none."""
    walls = [(cv, p) for cv, p in progressions.items() if p is not None]
    if not walls:
        return None
    cv, (i, d) = rng.choice(walls)
    n = i + d * rng.randint(-2, 2)
    k = next(k for k, c in enumerate(cv) if c)
    y = list(x)
    y[k] += (-n * form.q(cv) - dot(x, cv)) / Fraction(cv[k])
    assert dot(y, cv) == -n * form.q(cv)
    return tuple(y)


def test_integer_slice_kernel_against_fraction_formulas(fraction_walls_between):
    # the walls between a point a and its image r a in the wall of every
    # direction at a seeded level (_reflected_walls, read off the Cartan
    # integers) and the slice action, each against the Fraction formula it
    # replaced, and descend's end point against
    # a Fraction gallery walk over every integral wall: the closed alcove of x0
    # meets each orbit once, so the end points agree, and the product of the
    # crossed reflections sends the start to that point; one point of most
    # pairs lies exactly on an integral wall, where the open interval of levels
    # matters and the walks may choose different elements of its stabilizer
    rng = random.Random(2507166)
    on_wall = negative_q = several = 0
    for name, param in KERNEL_PRESETS:
        rd = preset(name, param)
        group, half = weyl_elements(rd), _coroot_table(rd).half
        for system in _kernel_systems(rd, rng):
            form, progs = system.form, dict(system.progressions)
            x0 = dominant_base_point(rd, form)
            negative_q += form.q(rd.coroots[0]) < 0
            for _ in range(3):
                x = tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(rd.rank))
                y = _onto_wall(rd, form, progs, x, rng)
                on_wall += y is not None
                y = x if y is None else y
                lattice_point = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
                for a in (x, y, x0, lattice_point):
                    walls = _reflected_walls(rd, form, progs, a)[2]
                    for i, cv in enumerate(half):
                        n = rng.randint(-3, 3)
                        r = affine_coroot_reflection(rd, AffineCoroot(cv, n))
                        expected = fraction_walls_between(rd, form, progs, a, slice_act_inverse(r.inverse(), form, a))
                        assert list(walls(i, n)) == expected, (name, form, a, cv, n)
                        several += len(expected) > 1
                steps, end = descend(rd, system, y)
                assert end == _fraction_gallery_walk(fraction_walls_between, rd, form, progs, y, x0), (name, y)
                product = ExtendedWeylElement.unit(rd.rank)
                for ac in steps:
                    product = affine_coroot_reflection(rd, ac) * product
                assert _fraction_slice_act(product, form, y) == end and all(type(v) is Fraction for v in end), (name, y, steps)
                w = rng.choice(group)
                g = ExtendedWeylElement(tuple(rng.randint(-3, 3) for _ in range(rd.rank)), w)
                for p in (x, y, lattice_point):
                    got = slice_act_inverse(g.inverse(), form, p)
                    assert got == _fraction_slice_act(g, form, p) and all(type(v) is Fraction for v in got), (name, g, p)
    assert on_wall >= 100 and negative_q >= 16 and several >= 1000, (on_wall, negative_q, several)


def test_below_wall_against_walls_between(fraction_walls_between):
    # below_wall on every simple of the kernel systems (trivial and character
    # progressions, levels of both signs, one with a flagged component) against
    # the walls between the base point x0 and p, counted in Fractions: every
    # simple is positive at x0, so p is below its wall iff the wall separates
    # x0 and p; p runs over images of x0, which lie on no wall, its images r x0
    # in seeded walls, where the integer count (_reflected_walls) must agree,
    # and seeded points, skipped on the wall they meet
    rng = random.Random(2507200)
    outcomes = {True: 0, False: 0}
    for name, param in KERNEL_PRESETS:
        rd = preset(name, param)
        group, half = weyl_elements(rd), _coroot_table(rd).half
        for system in _kernel_systems(rd, rng):
            form, progs, x0 = system.form, dict(system.progressions), system.base_point
            assert all(dot(x0, ac.coroot) + ac.n * form.q(ac.coroot) > 0 for ac in system.simples), (name, system.simples)
            points = [
                slice_act_inverse(ExtendedWeylElement(tuple(rng.randint(-2, 2) for _ in range(rd.rank)), rng.choice(group)), form, x0)
                for _ in range(8)
            ]
            points += [tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(rd.rank)) for _ in range(4)]
            walls = _reflected_walls(rd, form, progs, x0)[2]
            for _ in range(4):
                i, n = rng.randrange(len(half)), rng.randint(-3, 3)
                points.append(slice_act_inverse(affine_coroot_reflection(rd, AffineCoroot(half[i], n)).inverse(), form, x0))
                assert list(walls(i, n)) == fraction_walls_between(rd, form, progs, x0, points[-1]), (name, half[i], n)
            for p in points:
                between = set()
                for cv, first, count in fraction_walls_between(rd, form, progs, x0, p):
                    step = progs[cv][1]
                    between |= {(cv, first + k * step) for k in range(count)}
                    between |= {(tuple(-v for v in cv), -(first + k * step)) for k in range(count)}
                for ac in system.simples:
                    if dot(p, ac.coroot) + ac.n * form.q(ac.coroot) == 0:
                        continue
                    got = below_wall(form, ac, p)
                    assert got == ((ac.coroot, ac.n) in between), (name, form, ac, p)
                    outcomes[got] += 1
    assert outcomes[True] >= 700 and outcomes[False] >= 1200, outcomes


def _congruence_holds(rows, exact_rows, lam, shift):
    """rows lam = shift (mod 1) and exact_rows lam = 0, in Fractions."""
    return all((sum(Fraction(a) * x for a, x in zip(row, lam)) - s).denominator == 1 for row, s in zip(rows, shift)) and not any(
        sum(Fraction(a) * x for a, x in zip(row, lam)) for row in exact_rows
    )


def test_stabilizer_cosets_against_per_element_rational_solves():
    # numerators over one denominator against, per w, the Fraction Weyl shift
    # and its own rational solve, the w with no solution left out; the
    # character rows c S at seeded characters and the level rows at levels of
    # both signs, one with a flagged component (exact rows).  Each coset is
    # also checked on its congruences in Fractions
    rng = random.Random(2507180)
    empty = found = 0
    for name, param in KERNEL_PRESETS:
        rd = preset(name, param)
        form = _kernel_systems(rd, rng)[0].form
        cases = []
        for _ in range(2):
            c = Fraction(rng.randint(1, 5), rng.choice((2, 3, 4, 6)))
            cases.append(([[c * x for x in row] for row in form.matrix], ()))
        for sign, irrational in ((1, ()), (-1, ()), (rng.choice((1, -1)), (rng.randrange(len(finite_components(rd))),))):
            c = sign * Fraction(rng.randint(1, 5), rng.randint(1, 6))
            lvl = level_from_config(rd, [[c * v for v in row] for row in form.matrix], irrational)
            cases.append(duality._stabilizer_rows(rd, lvl))
        for rows, exact_rows in cases:
            theta = tuple(Fraction(rng.randint(0, 11), rng.choice((4, 6, 12))) for _ in range(rd.rank))
            cosets, lattice = stabilizer_cosets(rd, rows, theta, exact_rows)
            moduli = [1] * len(rows) + [0] * len(exact_rows)
            shifts = {w: _fraction_weyl_shift(w, theta, theta) for w in weyl_elements(rd)}
            expected = {}
            for w, shift in shifts.items():
                coset = solve_integer_affine(list(rows) + list(exact_rows), list(shift) + [0] * len(exact_rows), moduli)
                if coset is not None:
                    expected[w] = coset
            assert cosets == expected, (name, rows, theta)
            empty += len(shifts) - len(cosets)
            for w, coset in cosets.items():
                found += 1
                assert coset.basis == lattice
                assert _congruence_holds(rows, exact_rows, coset.particular, shifts[w]), (name, w)
                assert all(_congruence_holds(rows, exact_rows, b, [0] * len(rows)) for b in lattice)
    assert empty >= 1000 and found >= 60, (empty, found)


def test_length_zero_lattice_is_the_facet_kernel_in_the_translation_lattice():
    # Omega's translation lattice, computed once for all Weyl parts, against
    # {lam in L : S(lam, c) = 0 for every facet direction c}, solved here on
    # the coefficients of lam over the basis of L
    rng = random.Random(2507251)
    systems = several = 0
    for name, param in KERNEL_PRESETS:
        rd = preset(name, param)
        for system in _kernel_systems(rd, rng):
            omega, lattice = length_zero_group(rd, system)
            basis = system.translation_lattice
            rows = [[dot(system.form.covector(ac.coroot), b) for b in basis] for ac in system.simples]
            kernel = solve_integer_affine(rows, [0] * len(rows), [0] * len(rows)).basis if rows else identity(len(basis))
            expected = lattice_basis_from_generators([tuple(dot(k, col) for col in zip(*basis)) for k in kernel])
            assert lattice == expected, (name, system.form, system.simples)
            assert all(not dot(system.form.covector(ac.coroot), lam) for lam in lattice for ac in system.simples)
            systems += 1
            several += len(omega) > 1
    assert systems == 80 and several >= 10, (systems, several)


def test_length_zero_group_against_the_per_element_reference(reference_length_zero_group):
    # one shared solver against one solve per Weyl element, on every preset
    # of rank <= 3 (SL4 among them): character systems at c = 0, 1/2, 1/3
    # with a seeded chi_f, and level systems at +-K and +-K/2 with a seeded
    # theta.  The same Weyl parts, representatives equal up to Omega's
    # lattice (the two solvers may pick different ones), and the same
    # lattice; tori, GL1 and non-integral theta give systems with no simples
    rng = random.Random(2507166)
    systems = no_simples = several = 0
    for name, param in RANK_AT_MOST_FOUR:
        rd = preset(name, param)
        if rd.rank > 3:
            continue
        form = even_form(rd)
        built = []
        for c in (0, Fraction(1, 2), Fraction(1, 3)):
            finite = tuple(QmodZ.from_fraction(Fraction(rng.randrange(3), 3)) for _ in range(rd.rank))
            built.append(integral_simple_system(rd, form, CharacterPoint(QmodZ.from_fraction(Fraction(c)), finite)))
        for scale in (1, -1, Fraction(1, 2), Fraction(-1, 2)):
            lvl = level_from_config(rd, [[scale * x for x in row] for row in form.matrix])
            built.append(level_integral_weyl(rd, lvl, tuple(Fraction(rng.randrange(3), 3) for _ in range(rd.rank))))
        for system in built:
            omega, lattice = length_zero_group(rd, system)
            ref_omega, ref_lattice = reference_length_zero_group(rd, system)
            assert lattice == ref_lattice, (rd.name, system.form, system.simples)
            assert sorted(g.w for g in omega) == sorted(g.w for g in ref_omega), (rd.name, system.form)
            ref_by_weyl = {g.w: g for g in ref_omega}
            assert all(lattice_contains(lattice, vec_sub(g.trans, ref_by_weyl[g.w].trans)) for g in omega), (rd.name, system.form)
            systems += 1
            no_simples += not system.simples
            several += len(omega) > 1
    assert systems == 7 * 25 and no_simples >= 20 and several >= 80, (systems, no_simples, several)


def test_slice_act_inverse_against_the_inverse_element():
    # g^{-1} read through w equals the action of g.inverse(), undoes g, and on
    # a reflection equals the reflection's own action
    rng = random.Random(1566)
    for name, param in KERNEL_PRESETS:
        rd = preset(name, param)
        group = weyl_elements(rd)
        for form in (system.form for system in _kernel_systems(rd, rng)):
            for _ in range(3):
                x = tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(rd.rank))
                g = ExtendedWeylElement(tuple(rng.randint(-3, 3) for _ in range(rd.rank)), rng.choice(group))
                got = slice_act_inverse(g, form, x)
                assert got == _fraction_slice_act(g.inverse(), form, x) and all(type(v) is Fraction for v in got), (name, g, x)
                assert slice_act_inverse(g, form, slice_act_inverse(g.inverse(), form, x)) == x, (name, g, x)
                r = affine_coroot_reflection(rd, AffineCoroot(rng.choice(rd.coroots), rng.randint(-3, 3)))
                assert slice_act_inverse(r, form, x) == _fraction_slice_act(r, form, x), (name, r, x)


def test_lengths_simples_and_walks_invert_nothing(monkeypatch, fraction_walls_between, reference_length):
    # a fresh SL4 (its own name, so no cache holds its Weyl group or base
    # point), with the integral-inverse cache emptied: slice_act_inverse acts
    # by g^{-1} through w, and reflections are their own inverses, so simple
    # systems and descent walks invert no matrix; each walk crosses as many
    # walls as the Fraction length of its element and ends in the alcove of
    # x0, and each simple reflection has Fraction length 1
    from weylkit import exact, rootdata

    rng = random.Random(4)
    rd = dataclasses.replace(preset("SL", 4), name="SL4, no inverses")
    form = gram_from_weights(rd, rd.roots)
    chi = CharacterPoint(QmodZ(1, 2), tuple(QmodZ(k, 6) for k in range(rd.rank)))
    system = integral_simple_system(rd, form, chi)
    progs = dict(system.progressions)
    elements = [ExtendedWeylElement(tuple(rng.randint(-2, 2) for _ in range(rd.rank)), w) for w in weyl_elements(rd)[::3]]
    inverted = []
    original = exact.mat_inv

    def counted(m):
        inverted.append(m)
        return original(m)

    for module in (exact, rootdata):
        monkeypatch.setattr(module, "mat_inv", counted)
    rootdata.mat_inv_int.cache_clear()
    every = {cv: (0, 1) for cv in rd.coroots}  # every level of every direction
    simples = [simple_system_from_progressions(rd, form, p) for p in (progs, every)]
    x0 = dominant_base_point(rd, form)
    walks = [descend(rd, system, slice_act_inverse(g, form, x0)) for g in elements]
    assert inverted == []
    monkeypatch.undo()
    lengths = [reference_length(rd, system, g) for g in elements]
    assert any(lengths)
    for (steps, end), n in zip(walks, lengths):
        assert len(steps) == n and fraction_walls_between(rd, form, progs, end, x0) == []
    for walls, p in zip(simples, (progs, every)):
        for r in (affine_coroot_reflection(rd, ac) for ac in walls):
            assert sum(count for _, _, count in fraction_walls_between(rd, form, p, x0, slice_act_inverse(r.inverse(), form, x0))) == 1
    assert len(simples[1]) == 4  # the affine A3 diagram


def _facet_cases(rd, rng):
    """(geometry form, progressions): characters at c = 0, 1/2, 1/3 on a form
    S, and levels c S of both signs, with no flag and with one component
    flagged irrational; each at theta (the finite part) zero and seeded in
    twelfths."""
    form = even_form(rd)
    geometries = [(form, Level(tuple(tuple((c or 1) * x for x in row) for row in form.matrix))) for c in (0, Fraction(1, 2), Fraction(1, 3))]
    components = len(finite_components(rd))
    for sign in (1, -1):
        for irrational in [(), (rng.randrange(components),)] if components else [()]:
            c = sign * Fraction(rng.randint(1, 5), rng.randint(1, 6))
            lvl = level_from_config(rd, [[c * v for v in row] for row in form.matrix], irrational)
            geometries.append((lvl, lvl))
    thetas = ((Fraction(0),) * rd.rank, tuple(Fraction(rng.randrange(12), 12) for _ in range(rd.rank)))
    return [(geometry, duality.level_progressions(rd, lvl, theta)) for geometry, lvl in geometries for theta in thetas]


def test_facet_test_against_fraction_wall_counts(fraction_walls_between):
    # every candidate wall of the simple system, the two integral levels of a
    # direction that bracket the base point x0 (found here in Fractions): the
    # integer count of the walls between x0 and r x0 read off the Cartan
    # integers against the Fraction count, and the simple system against the
    # candidates whose Fraction count is 1, each oriented positive at x0; on
    # every preset of rank <= 4, at characters and levels of both signs, with
    # and without a component flagged irrational
    rng = random.Random(2507270)
    counts = {"candidates": 0, "simple": 0, "several": 0, "flagged": 0}
    for name, param in RANK_AT_MOST_FOUR:
        rd = preset(name, param)
        half = _coroot_table(rd).half
        for form, progs in _facet_cases(rd, rng):
            counts["flagged"] += bool(getattr(form, "irrational", ()))
            x0 = dominant_base_point(rd, form)
            walls = _reflected_walls(rd, form, progs, x0)[2]
            expected = []
            for i, cv in enumerate(half):
                if progs[cv] is None:
                    continue
                (first, step), v = progs[cv], math.floor(-Fraction(dot(x0, cv)) / form.q(cv))
                below = first + (v - first) // step * step if step else first
                for n in {below, below + step} if step else {first}:
                    r = affine_coroot_reflection(rd, AffineCoroot(cv, n))
                    crossed = fraction_walls_between(rd, form, progs, x0, slice_act_inverse(r.inverse(), form, x0))
                    assert list(walls(i, n)) == crossed, (name, form, cv, n)
                    counts["candidates"] += 1
                    counts["several"] += len(crossed) > 1
                    if sum(count for _, _, count in crossed) == 1:
                        sign = 1 if dot(x0, cv) + n * form.q(cv) > 0 else -1
                        expected.append(AffineCoroot(tuple(sign * x for x in cv), sign * n))
            got = simple_system_from_progressions(rd, form, progs)
            assert got == tuple(sorted(expected, key=lambda a: (a.n, a.coroot))), (name, form, progs)
            counts["simple"] += len(got)
    assert counts["candidates"] >= 2500 and counts["simple"] >= 900 and counts["several"] >= 1500 and counts["flagged"] >= 100, counts


def test_integral_system_builds_no_fraction_reflection(monkeypatch, fraction_walls_between):
    # a fresh SO9 (its own name, so no cache holds its tables): the builder
    # reads every wall count off the Cartan integers, so no affine reflection
    # is formed and no slice point is moved, at a character and at a level
    from weylkit import affine

    rd = dataclasses.replace(preset("SO_odd", 9), name="SO9, no reflections")
    form = gram_from_weights(rd, rd.roots)
    lvl = level_from_config(rd, [[Fraction(-2, 3) * v for v in row] for row in form.matrix])
    args = [(rd, form, Level(tuple(tuple(Fraction(1, 2) * x for x in row) for row in form.matrix)), (Fraction(1, 4),) * rd.rank),
            (rd, lvl, lvl, (Fraction(1, 6),) * rd.rank)]

    def forbidden(*_):
        raise AssertionError("the builder formed a reflection or moved a slice point")

    for module in (affine, duality):
        for name in ("affine_coroot_reflection", "slice_act_inverse"):
            monkeypatch.setattr(module, name, forbidden)
    systems = [duality.integral_system(*a) for a in args]
    monkeypatch.undo()
    assert all(system.simples for system in systems)
    for system in systems:
        for r in system.simple_reflections(rd):  # each simple reflection has length 1
            walls = fraction_walls_between(rd, system.form, dict(system.progressions), system.base_point, slice_act_inverse(r.inverse(), system.form, system.base_point))
            assert sum(count for _, _, count in walls) == 1, (system.form, r)
