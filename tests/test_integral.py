import dataclasses
import random
from fractions import Fraction

import pytest

from weylkit.exact import CosetZn, QmodZ, identity
from weylkit.affine import (
    AffineCoroot,
    CharacterPoint,
    ExtendedWeylElement,
    act_affine_coroot,
    affine_coroot_reflection,
    character_from_config,
    coxeter_system,
    dominant_base_point,
    gram_from_matrix,
    gram_from_weights,
    length_zero_group,
    progression_contains,
    simple_system_from_progressions,
)
from weylkit.integral import (
    CharacterMismatch,
    conjugate_to_simple,
    integral_simple_system,
    is_minimal,
    minimal_rep,
    omega_compose,
)
from weylkit.rootdata import preset, weyl_elements


def sl2_setup(c="1/2", chif=("0",)):
    rd = preset("SL", 2)
    form = gram_from_weights(rd, [(1,), (-1,)])
    chi = character_from_config(rd, c, list(chif))
    return rd, form, chi


def sp4_setup(c="1/2"):
    rd = preset("Sp", 4)
    form = gram_from_weights(rd, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    chi = character_from_config(rd, c, ["0", "0"])
    return rd, form, chi


def psp6_setup():
    rd = preset("PSp", 6)
    form = gram_from_weights(rd, rd.roots)
    chi = character_from_config(rd, "1/8", ["1/3", "1/5", "1/4"], basis="simple_roots")
    return rd, form, chi


def test_progressions_sl2():
    rd, form, chi = sl2_setup()
    assert dict(integral_simple_system(rd, form, chi).progressions)[(1,)] == (0, 2)
    triv = CharacterPoint.trivial(1)
    assert dict(integral_simple_system(rd, form, triv).progressions)[(1,)] == (0, 1)


def test_progressions_psp6_all_empty():
    rd, form, chi = psp6_setup()
    progressions = integral_simple_system(rd, form, chi).progressions
    assert len(progressions) == len(rd.coroots) and all(p is None for _, p in progressions)


def _unit_weights(rank):
    weights = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    return weights + [tuple(-x for x in w) for w in weights]


# every preset, under its root form, and the forms the ambient-group tests use
PRESET_FORMS = [
    (name, param, "roots")
    for name, param in [
        ("SL", 2), ("SL", 3), ("SL", 4), ("SL", 5), ("PGL", 2), ("PGL", 3), ("Sp", 4), ("Sp", 6), ("PSp", 4),
        ("SO_odd", 5), ("SO_odd", 7), ("Spin_odd", 5), ("G2", 2), ("SO_even", 4), ("SO_even", 8),
    ]
] + [("SL", 2, "units"), ("Sp", 4, "units"), ("GL", 2, "units"), ("torus", 2, "units"), ("PGL", 2, [[2]])]


def _preset_form(name, param, form):
    rd = preset(name, param)
    if form == "roots":
        return rd, gram_from_weights(rd, rd.roots)
    if form == "units":
        return rd, gram_from_weights(rd, _unit_weights(rd.rank))
    return rd, gram_from_matrix(rd, form)


def test_simple_system_trivial_char_is_affine_system():
    # the trivial character's integral system is the ambient affine system:
    # its walls, Coxeter matrix and base point from the trivial progressions,
    # and its Omega equal to the length-zero group over the full lattice t^lam w
    for name, param, form_kind in PRESET_FORMS:
        rd, form = _preset_form(name, param, form_kind)
        sys = integral_simple_system(rd, form, CharacterPoint.trivial(rd.rank))
        simples = simple_system_from_progressions(rd, form, {cv: (0, 1) for cv in rd.coroots})
        assert sys.simples == simples
        assert sys.coxeter == coxeter_system(rd, simples)[0]
        assert sys.base_point == dominant_base_point(rd, form)
        every_lam = CosetZn((0,) * rd.rank, identity(rd.rank))
        full = dataclasses.replace(sys, stabilizer=tuple((w, every_lam) for w in weyl_elements(rd)))
        assert length_zero_group(rd, sys) == length_zero_group(rd, full), (name, param, form_kind)


def test_sl2_halfcentral_system(affine_coroot_label):
    rd, form, chi = sl2_setup()
    sys = integral_simple_system(rd, form, chi)
    labels = sorted(affine_coroot_label(rd, ac) for ac in sys.simples)
    assert labels == [((1,), 0), ((1,), 2)]
    assert sys.coxeter[0][1] == "infinite"
    assert sys.components[0][1] == "affine"


def test_sl2_stabilizer():
    rd, form, chi = sl2_setup()
    system = integral_simple_system(rd, form, chi)
    assert len(system.stabilizer) == 2  # both Weyl parts are admissible
    assert system.translation_lattice == ((1,),)  # L_chi = Z alpha-check


def test_psp6_scenario():
    rd, form, chi = psp6_setup()
    sys = integral_simple_system(rd, form, chi)
    assert sys.simples == ()  # the reflection subgroup is trivial
    admitting = list(sys.stabilizer)
    # engine verdict: only the identity Weyl part admits translations, the
    # coset being the ambient-integral sublattice (= the coroot lattice here)
    assert len(admitting) == 1
    w, coset = admitting[0]
    assert w == tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    e1 = rd.ambient_to_lattice([1, 0, 0])
    e2 = rd.ambient_to_lattice([0, 1, 0])
    mu = rd.ambient_to_lattice([Fraction(1, 2)] * 3)
    assert coset.contains(e1) and coset.contains(e2)
    assert not coset.contains(mu)
    # t^mu omega has infinite order regardless of stabilizer membership
    omega_amb = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    cols = [rd.ambient_to_lattice([row[j] for row in omega_amb]) for j in range(3)]
    # matrix on the lattice: send basis vector b_j to lattice coords of omega(b_j)
    from weylkit.exact import mat_inv, mat_mul

    b = rd.ambient_basis
    omega_lat = tuple(
        tuple(int(x) for x in row)
        for row in mat_mul(mat_mul(mat_inv(b), tuple(tuple(Fraction(v) for v in r) for r in omega_amb)), b)
    )
    g = ExtendedWeylElement(mu, omega_lat)
    # omega has order 2 and g^2 is a nonzero translation: g has infinite order
    assert g.w != identity(3) and (g * g).w == identity(3) and any((g * g).trans)
    # noncommuting witness involving t^{e3}
    e3 = rd.ambient_to_lattice([0, 0, 1])
    t_e3 = ExtendedWeylElement.translation(e3)
    assert g * t_e3 != t_e3 * g


def test_minimal_rep_sl2(reference_length):
    rd, form, chi = sl2_setup()
    system = integral_simple_system(rd, form, chi)
    t = ExtendedWeylElement.translation((1,))
    assert reference_length(rd, system, t) == 1
    m = minimal_rep(rd, form, chi, t)
    assert reference_length(rd, system, m) == 0
    assert m == ExtendedWeylElement((-1,), rd.reflection(0))
    # omega squared is the identity: Omega_chi = Z/2
    sq = omega_compose(rd, form, m, chi, m, chi)
    assert sq.is_identity()


def test_minimal_rep_fixed_points_and_one_descent(reference_length):
    rd, form, chi = sl2_setup()
    sys = integral_simple_system(rd, form, chi)
    for ac in sys.simples:
        r = affine_coroot_reflection(rd, ac)
        assert reference_length(rd, sys, r) == 1
        assert minimal_rep(rd, form, chi, r).is_identity()
    e = ExtendedWeylElement.unit(1)
    assert minimal_rep(rd, form, chi, e) == e


def test_omega_compose_character_mismatch():
    rd, form, chi = sl2_setup()
    other = character_from_config(rd, "1/2", ["1/3"])
    m = ExtendedWeylElement.unit(1)
    with pytest.raises(CharacterMismatch):
        omega_compose(rd, form, m, chi, m, other)


def test_conjugate_to_simple_sl2(affine_coroot_label, reference_length):
    rd, form, chi = sl2_setup()
    sys = integral_simple_system(rd, form, chi)
    far = [ac for ac in sys.simples if affine_coroot_label(rd, ac) == ((1,), 2)][0]
    u = conjugate_to_simple(rd, form, chi, far)
    assert reference_length(rd, sys, u) == 0
    assert not u.is_identity()
    # ambient-simple already: u = e
    near = [ac for ac in sys.simples if affine_coroot_label(rd, ac) == ((1,), 0)][0]
    assert conjugate_to_simple(rd, form, chi, near).is_identity()


def test_conjugate_to_simple_sp4():
    rd, form, chi = sp4_setup()
    sys = integral_simple_system(rd, form, chi)
    assert len(sys.simples) == 3
    for ac in sys.simples:
        u = conjugate_to_simple(rd, form, chi, ac)
        assert is_minimal(sys, u)


def test_sp4_halfcentral_coxeter():
    rd, form, chi = sp4_setup()
    sys = integral_simple_system(rd, form, chi)
    off = sorted(sys.coxeter[i][j] for i in range(3) for j in range(3) if i < j)
    assert off == [2, 4, 4]
    assert all(kind == "affine" for _, kind in sys.components)


def test_reflection_closure_property():
    rd, form, chi = sl2_setup()
    sys = integral_simple_system(rd, form, chi)
    progs = dict(sys.progressions)
    for ac in sys.simples:
        r = affine_coroot_reflection(rd, ac)
        for cv in rd.coroots:
            p = progs[cv]
            for n in range(-6, 7):
                if not progression_contains(p, n):
                    continue
                img = act_affine_coroot(r, rd, form, AffineCoroot(cv, n))
                assert progression_contains(progs[img.coroot], img.n)


def test_stabilizer_ball_and_blocks(omega_against_box):
    rd, form, chi = sl2_setup()
    omega, lattice, ball = omega_against_box(rd, form, chi, radius=3)
    assert len(ball) == 14  # translations -3..3 paired with two Weyl parts
    assert len(omega) == 2 and lattice == ()  # Omega_chi = Z/2
    # the block map x -> its minimal element reaches every element of Omega_chi
    assert {minimal_rep(rd, form, chi, g) for g in ball} == set(omega)


def test_minimal_length_transport(omega_against_box, reference_length):
    # left multiplication by a minimal element of Omega_chi (integral
    # length 0) leaves the integral length of every element unchanged
    rd, form, chi = sl2_setup()
    system = integral_simple_system(rd, form, chi)
    omega, lattice, ball = omega_against_box(rd, form, chi, radius=2)
    mins = [m for m in omega if not m.is_identity()] + [ExtendedWeylElement.translation(lam) for lam in lattice]
    assert mins
    for m in mins:
        for z in ball:
            lhs = reference_length(rd, system, m * z)
            rhs = reference_length(rd, system, z)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# the wall walk and the length descent against the descents they replaced,
# written here: minimal_rep descended one integral simple reflection at a
# time, and conjugate_to_simple descended on the height of the affine coroot
# in the ambient simple affine coroots

WALK_PRESETS = [
    ("SL", 2), ("SL", 3), ("PGL", 3), ("Sp", 4), ("PSp", 4), ("G2", 2),
    ("SO_odd", 5), ("Spin_odd", 5), ("SO_even", 4), ("SL", 5), ("SO_even", 8),
]
CENTRAL_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))


def _random_character(rng, rd, c):
    finite = tuple(QmodZ.from_fraction(Fraction(rng.randint(0, 11), 12)) for _ in range(rd.rank))
    return CharacterPoint(QmodZ.from_fraction(c), finite)


def _affine_coroot_positive(rd, ac):
    """n > 0, or n = 0 and a positive direction."""
    return ac.n > 0 or (ac.n == 0 and rd.is_positive_coroot(ac.coroot))


def _descent_minimal_rep(rd, form, chi, x):
    """Right-multiply by an integral simple reflection s while x sends the
    simple affine coroot of s to a negative one."""
    simples = integral_simple_system(rd, form, chi).simples
    while True:
        for ac in simples:
            if not _affine_coroot_positive(rd, act_affine_coroot(x, rd, form, ac)):
                x = x * affine_coroot_reflection(rd, ac)
                break
        else:
            return x


def _ambient_height(rd, form, ambient, ac):
    """Height of a positive affine coroot over the ambient simples: first
    over each connected component of the affine diagram, then over all."""
    from weylkit.affine import connected_components
    from weylkit.exact import solve_linear

    refl = [affine_coroot_reflection(rd, s) for s in ambient]
    comps = connected_components(len(ambient), lambda i, j: refl[i] * refl[j] != refl[j] * refl[i])
    target = (ac.n * form.q(ac.coroot),) + tuple(ac.coroot)
    for group in [[ambient[i] for i in comp] for comp in comps] + [list(ambient)]:
        cols = [(s.n * form.q(s.coroot),) + tuple(s.coroot) for s in group]
        sol = solve_linear(tuple(zip(*cols)), target)
        if sol is not None and all(x.denominator == 1 and x >= 0 for x in sol):
            return int(sum(sol))
    raise ValueError(f"{ac} is not a nonnegative combination of the ambient simples")


def _height_descent_conjugator(rd, form, r):
    """Conjugate r by the first ambient simple that keeps it positive and
    lowers its height, until it is an ambient simple."""
    ambient = simple_system_from_progressions(rd, form, {cv: (0, 1) for cv in rd.coroots})
    u, cur = ExtendedWeylElement.unit(rd.rank), r
    height = _ambient_height(rd, form, ambient, cur)
    while cur not in ambient:
        for s in ambient:
            t = affine_coroot_reflection(rd, s)
            img = act_affine_coroot(t, rd, form, cur)
            if _affine_coroot_positive(rd, img) and _ambient_height(rd, form, ambient, img) < height:
                u, cur, height = t * u, img, _ambient_height(rd, form, ambient, img)
                break
        else:
            raise AssertionError(f"height descent from {r} stalled at {cur}")
    return u


def test_minimal_rep_walk_equals_simple_descent(reference_length):
    rng = random.Random(2507167)
    checked = 0
    for name, param in WALK_PRESETS:
        rd = preset(name, param)
        form = gram_from_weights(rd, rd.roots)
        weyl = weyl_elements(rd)
        for c in CENTRAL_VALUES:
            chi = _random_character(rng, rd, c)
            for _ in range(3):
                lam = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
                x = ExtendedWeylElement(lam, rng.choice(weyl))
                m = minimal_rep(rd, form, chi, x)
                assert m == _descent_minimal_rep(rd, form, chi, x), (name, c, chi, x)
                assert reference_length(rd, integral_simple_system(rd, form, chi), m) == 0
                checked += 1
    assert checked == len(WALK_PRESETS) * len(CENTRAL_VALUES) * 3


def test_conjugate_to_simple_length_descent_equals_height_descent():
    rng = random.Random(2507168)
    checked = 0
    for name, param in WALK_PRESETS:
        rd = preset(name, param)
        form = gram_from_weights(rd, rd.roots)
        for c in CENTRAL_VALUES:
            for chi in (_random_character(rng, rd, c), _random_character(rng, rd, c)):
                for r in integral_simple_system(rd, form, chi).simples:
                    u = conjugate_to_simple(rd, form, chi, r)
                    assert u == _height_descent_conjugator(rd, form, r), (name, c, chi, r)
                    checked += 1
    assert checked >= 70


RANK_TWO_FORMS = [(name, param, kind) for name, param, kind in PRESET_FORMS if preset(name, param).rank <= 2]


def test_length_zero_group_against_box_on_presets(omega_against_box):
    # exact Omega_chi against the radius-2 box at seeded characters: finite
    # parts in twelfths, and in halves, where the stabilizer is larger
    rng = random.Random(2507170)
    nontrivial = 0
    for name, param, form_kind in RANK_TWO_FORMS:
        rd, form = _preset_form(name, param, form_kind)
        for c in CENTRAL_VALUES + (Fraction(2, 3),):
            for den in (12, 2):
                finite = tuple(QmodZ.from_fraction(Fraction(rng.randrange(den), den)) for _ in range(rd.rank))
                chi = CharacterPoint(QmodZ.from_fraction(c), finite)
                omega, _, _ = omega_against_box(rd, form, chi, radius=2)
                nontrivial += len(omega) > 1
    assert len(RANK_TWO_FORMS) == 15 and nontrivial >= 60
