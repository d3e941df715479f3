import dataclasses
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from weylkit import duality
from weylkit.affine import (
    AffineCoroot,
    ExtendedWeylElement,
    NotPositiveDefinite,
    _descend,
    affine_coroot_reflection,
    gram_from_weights,
    length_zero_group,
)
from weylkit.duality import (
    AffineMap,
    Degenerate,
    IrrationalSquareLength,
    Level,
    VerificationFailed,
    alcove_match,
    dual_level,
    finite_longest_group,
    iota_conjugation,
    kappa_parabolic_match,
    level_from_config,
    level_integral_weyl,
    level_progressions,
)
from weylkit.exact import (
    CosetZn,
    dot,
    identity,
    lattice_basis_from_generators,
    lattice_contains,
    mat_inv,
    mat_mul,
    mat_vec,
    vec_add,
    vec_sub,
)
from weylkit.hecke import ONE, V, HeckeElement, _mult_by_simple, _times_minimal
from weylkit.integral import is_minimal
from weylkit.rootdata import langlands_dual, mat_inv_int, preset, weyl_elements


def sl2():
    return preset("SL", 2)


def sp4():
    return preset("Sp", 4)


def test_level_validation():
    rd = sp4()
    with pytest.raises(Degenerate):
        level_from_config(rd, [[0, 0], [0, 0]])
    with pytest.raises(Degenerate):
        level_from_config(rd, [[1, 0], [0, 2]])  # not W-invariant for C2
    level_from_config(rd, [[1, 0], [0, 1]])


def test_level_validation_names_a_wrong_shape():
    # a matrix smaller or larger than rank x rank, or ragged, is a Degenerate
    # level that names its shape, not an IndexError
    rd = preset("SL", 3)
    for gram, shape in (([[1]], r"1 rows of lengths \[1\]"), ([[2, -1], [-1, 2], [0, 0]], r"3 rows of lengths \[2, 2, 2\]"),
                        ([[2, -1], [-1]], r"2 rows of lengths \[2, 1\]")):
        with pytest.raises(Degenerate, match=shape + " are not 2 x 2"):
            level_from_config(rd, gram)
    with pytest.raises(Degenerate, match="1 rows of lengths"):
        level_from_config(sp4(), [[1]])


def test_level_validation_irrational_indices():
    rd = sl2()
    for bad in (-1, 1, "0", 0.0, True):
        with pytest.raises(ValueError, match="irrational component index"):
            level_from_config(rd, [[1]], irrational=[bad])
    assert level_from_config(rd, [[1]], irrational=[0]).irrational == frozenset({0})
    rd2 = preset("product", factors=[sl2(), preset("SL", 3)])
    lvl = level_from_config(rd2, [[2, 0, 0], [0, -2, 1], [0, 1, -2]], irrational=[1])
    with pytest.raises(ValueError, match="irrational component index 2"):
        level_from_config(rd2, lvl.gram, irrational=[2])


def test_dual_level_involution():
    rd = sl2()
    lvl = level_from_config(rd, [[1]])
    rdd, dual = dual_level(rd, lvl)
    assert dual.gram == ((Fraction(1),),)
    rddd, double = dual_level(rdd, dual)
    assert double.gram == lvl.gram
    rd4 = sp4()
    lvl4 = level_from_config(rd4, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    _, dual4 = dual_level(rd4, lvl4)
    assert dual4.gram == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))


def test_level_progressions_sl2():
    rd = sl2()
    lvl = level_from_config(rd, [[1]])  # kappa(a,a) = 1, q = 1/2
    assert level_progressions(rd, lvl, (Fraction(0),))[(1,)] == (0, 2)
    lvl2 = level_from_config(rd, [[2]])
    assert level_progressions(rd, lvl2, (Fraction(0),))[(1,)] == (0, 1)
    # theta = 1/3 with q = 1 has no integral level in this direction
    assert level_progressions(rd, lvl2, (Fraction(1, 3),))[(1,)] is None


def test_level_progression_irrational():
    rd = sl2()
    lvl = level_from_config(rd, [[1]], irrational=[0])
    assert level_progressions(rd, lvl, (Fraction(0),))[(1,)] == (0, 0)
    assert level_progressions(rd, lvl, (Fraction(1, 3),))[(1,)] is None


def test_integral_weyl_full_at_even_level():
    rd = sl2()
    lvl = level_from_config(rd, [[2]])
    sys = level_integral_weyl(rd, lvl, (Fraction(0),))
    assert len(sys.simples) == 2
    assert sys.coxeter[0][1] == "infinite"
    # every w is admissible at theta = 0
    assert [w for w, _ in sys.stabilizer] == list(weyl_elements(rd))


def test_integral_weyl_irrational_is_finite():
    rd = sl2()
    lvl = level_from_config(rd, [[1]], irrational=[0])
    sys = level_integral_weyl(rd, lvl, (Fraction(0),))
    assert len(sys.simples) == 1
    assert sys.components == (((0,), "finite"),)
    # only lam = 0 translations are integral
    units = dict(sys.stabilizer)[((1,),)]
    assert units.contains((0,)) and not units.contains((1,)) and sys.translation_lattice == ()


def test_iota_conjugation_sl2():
    rd = sl2()
    for gram in ([[1]], [[2]], [[-2]], [[Fraction(2, 3)]]):
        lvl = level_from_config(rd, gram)
        report = iota_conjugation(rd, lvl, (Fraction(0),))
        assert report["verified"]
        assert report["pairs_checked"] > 0


def test_iota_conjugation_tests_membership_on_the_coset(monkeypatch):
    # an admissible Weyl part is not enough: at kappa = 2 on SL2 the dual
    # translation lattice is 2Z, so a partner shifted by 1 is off its coset,
    # and with the lattice of G doubled some dual generator has no integral
    # preimage; each is caught by the membership test that names it
    rd, lvl, theta = sl2(), level_from_config(sl2(), [[2]]), (Fraction(0),)
    partner_of, generators = duality._iota_partner, duality._integral_generators

    def shifted(*side):
        partner = partner_of(*side)

        def off_coset(g):
            h = partner(g)
            return ExtendedWeylElement((h.trans[0] + 1,), h.w)

        return off_coset

    with monkeypatch.context() as m:
        m.setattr(duality, "_iota_partner", shifted)
        with pytest.raises(VerificationFailed, match="is not integral"):
            iota_conjugation(rd, lvl, theta)

    def doubled(side_rd, *rest):
        cosets, reps, shifts = generators(side_rd, *rest)
        if side_rd is rd:
            cosets = {w: CosetZn(c.particular, tuple(tuple(2 * x for x in b) for b in c.basis)) for w, c in cosets.items()}
        return cosets, reps, shifts

    monkeypatch.setattr(duality, "_integral_generators", doubled)
    with pytest.raises(VerificationFailed, match="does not come from an integral element"):
        iota_conjugation(rd, lvl, theta)


def test_iota_conjugation_counts_admissible_weyl_parts(monkeypatch):
    # SL3 at K: every w is admissible on both sides; with one w' dropped
    # from the dual cosets, the count of the onto half fails before any
    # partner is looked up
    rd = preset("SL", 3)
    lvl, theta = killing_level(rd, 1), (Fraction(0), Fraction(0))
    generators = duality._integral_generators
    assert iota_conjugation(rd, lvl, theta)["verified"]

    def dropped(side_rd, *rest):
        cosets, reps, shifts = generators(side_rd, *rest)
        if side_rd is not rd:
            cosets = dict(list(cosets.items())[:-1])
        return cosets, reps, shifts

    monkeypatch.setattr(duality, "_integral_generators", dropped)
    with pytest.raises(VerificationFailed, match="5 admissible dual Weyl parts for 6: .* does not come from an integral"):
        iota_conjugation(rd, lvl, theta)


def test_iota_conjugation_compares_translation_lattices(monkeypatch):
    # SL2 at kappa = 2: the partners of G's lattice Z span 2Z, the dual
    # lattice; a dual lattice scaled by 2 passes every membership test of the
    # into half, and the lattice comparison of the onto half names it
    rd, lvl, theta = sl2(), level_from_config(sl2(), [[2]]), (Fraction(0),)
    generators = duality._integral_generators

    def scaled(side_rd, *rest):
        cosets, reps, shifts = generators(side_rd, *rest)
        if side_rd is not rd:
            shifts = [ExtendedWeylElement.translation(tuple(2 * x for x in h.trans)) for h in shifts]
        return cosets, reps, shifts

    monkeypatch.setattr(duality, "_integral_generators", scaled)
    with pytest.raises(VerificationFailed, match=re.escape("dual lattice ((4,),) does not come from an integral element")):
        iota_conjugation(rd, lvl, theta)


def test_iota_conjugation_checks_reflections_at_two_levels(monkeypatch):
    # SL2 at K/3, theta = 0: the integral levels are 3Z, and m = 4n/3.  A
    # progression with the right first level 0 and the step 4 puts n = 4 in,
    # where m is not integral, so the second level tested fails reflections
    rd, theta = sl2(), (Fraction(0),)
    lvl = killing_level(rd, Fraction(1, 3))
    progressions = duality.level_progressions
    assert progressions(rd, lvl, theta) == {(-1,): (0, 3), (1,): (0, 3)}
    assert iota_conjugation(rd, lvl, theta)["reflections"]
    monkeypatch.setattr(duality, "level_progressions", lambda *args: {cv: (i, d + 1) for cv, (i, d) in progressions(*args).items()})
    with pytest.raises(VerificationFailed, match="'reflections': False"):
        iota_conjugation(rd, lvl, theta)


def test_iota_and_parabolic_match_reject_irrational_levels():
    # both name the flagged components; kappa_parabolic_match also names a
    # level, built without validation, that vanishes on a coroot
    rd = preset("SL", 3)
    lvl = level_from_config(rd, killing_level(rd, 1).gram, irrational=[0])
    with pytest.raises(IrrationalSquareLength, match=re.escape("components [0] are flagged")):
        iota_conjugation(rd, lvl, (Fraction(0), Fraction(0)))
    with pytest.raises(IrrationalSquareLength, match=re.escape("components [0] are flagged")):
        kappa_parabolic_match(rd, lvl)
    one = Fraction(1)
    with pytest.raises(IrrationalSquareLength, match=re.escape("is 0 on (-1, 1) at the level [[1, 1], [1, 1]]")):
        kappa_parabolic_match(preset("GL", 2), Level(((one, one), (one, one))))


def test_level_checks_name_the_gram():
    # an asymmetric level fails validation, and a singular one built directly
    # fails where kappa^{-1} is formed; each names the gram
    with pytest.raises(Degenerate, match=re.escape("level [[1, 1/2], [0, 1]] must be symmetric")):
        level_from_config(preset("GL", 2), [[1, Fraction(1, 2)], [0, 1]])
    one = Fraction(1)
    with pytest.raises(Degenerate, match=re.escape("level [[1, 1], [1, 1]] must be nondegenerate")):
        dual_level(preset("GL", 2), Level(((one, one), (one, one))))


def test_iota_conjugation_sp4_half_basic():
    rd = sp4()
    lvl = level_from_config(rd, [[1, 0], [0, 1]])  # (1/2) * basic
    report = iota_conjugation(rd, lvl, (Fraction(0), Fraction(0)))
    assert report["verified"]


def test_iota_pair_equivalence_random_levels():
    # iota conjugates every integral element of the radius-2 box to its dual
    # partner, at random levels of both signs and theta != 0
    rng = random.Random(17)
    rd = sp4()
    for sign in (1, -1, 1):
        scale = sign * Fraction(rng.randint(1, 5), rng.randint(1, 5))
        lvl = level_from_config(rd, [[scale, 0], [0, scale]])
        _check_iota_box(rd, lvl, _nonzero_theta(rng, rd.rank))
    for name, param in RANK_TWO:
        for sign in (1, -1):
            rd = preset(name, param)
            c = sign * Fraction(rng.randint(1, 4), rng.randint(1, 4))
            _check_iota_box(rd, killing_level(rd, c), _nonzero_theta(rng, rd.rank))


def test_iota_conjugation_rejects_a_wrong_iota(monkeypatch):
    # iota moved by a non-integral translation no longer conjugates
    # t^lam w to its partner when w moves the shift
    rd = sp4()
    lvl = level_from_config(rd, [[1, 0], [0, 1]])
    right = duality.iota_map

    def shifted(*args):
        m = right(*args)
        return AffineMap(m.linear, (m.offset[0] + Fraction(1, 3), m.offset[1]))

    monkeypatch.setattr(duality, "iota_map", shifted)
    with pytest.raises(VerificationFailed):
        iota_conjugation(rd, lvl, (Fraction(0), Fraction(0)))


def test_alcove_match_sl2_negative_level_trivial_y():
    rd = sl2()
    lvl = level_from_config(rd, [[-2]])
    match = alcove_match(rd, lvl, (Fraction(0),))
    assert match.y.is_identity()


def test_alcove_match_sl2_positive_level_longest():
    rd = sl2()
    lvl = level_from_config(rd, [[2]])
    match = alcove_match(rd, lvl, (Fraction(0),))
    assert not match.y.is_identity()
    assert match.y.w == rd.reflection(0)


def test_alcove_match_sp4():
    rd = sp4()
    lvl = level_from_config(rd, [[1, 0], [0, 1]])
    match = alcove_match(rd, lvl, (Fraction(0), Fraction(0)))
    assert len(match.simple_bijection) == 3
    assert len(match.omega_pairs) == len({o for o, _ in match.omega_pairs})
    # Coxeter data agreed (verified inside); spot check the multiset
    off = sorted(
        match.g_system.coxeter[i][j] for i in range(3) for j in range(3) if i < j
    )
    assert off == [2, 4, 4]


def test_alcove_match_sl2_half_level_vs_pgl2():
    rd = sl2()
    lvl = level_from_config(rd, [[1]])  # half of the basic level
    match = alcove_match(rd, lvl, (Fraction(0),))
    assert len(match.simple_bijection) == 2
    assert len(match.omega_pairs) == 2  # Omega = Z/2 on both sides


def test_kappa_parabolic_match():
    rd3 = preset("SL", 3)
    lvl_pos = level_from_config(rd3, [[2, -1], [-1, 2]])
    assert kappa_parabolic_match(rd3, lvl_pos) == ((0, 1), (1, 0))
    neg = level_from_config(rd3, [[-2, 1], [1, -2]])
    assert kappa_parabolic_match(rd3, neg) == ((0, 0), (1, 1))
    rd4 = sp4()
    lvl4 = level_from_config(rd4, [[1, 0], [0, 1]])
    assert kappa_parabolic_match(rd4, lvl4) == ((0, 0), (1, 1))


def test_finite_longest_group():
    rd = sl2()
    rational = level_from_config(rd, [[2]])
    assert finite_longest_group(rd, rational, (Fraction(0),)) == ()
    irr = level_from_config(rd, [[1]], irrational=[0])
    gens = finite_longest_group(rd, irr, (Fraction(0),))
    assert len(gens) == 1
    assert (gens[0] * gens[0]).is_identity()
    rd4 = sp4()
    lvl4 = level_from_config(rd4, [[1, 0], [0, 1]])
    assert finite_longest_group(rd4, lvl4, (Fraction(0), Fraction(0))) == ()


# ---------------------------------------------------------------------------
# levels c * (Killing form), and alcoves checked without the package's walls

RANK_TWO = [("SL", 2), ("SL", 3), ("PGL", 3), ("Sp", 4), ("PSp", 4), ("G2", 2), ("SO_odd", 5)]


def killing_level(rd, c):
    killing = gram_from_weights(rd, rd.roots).matrix
    return level_from_config(rd, [[c * x for x in row] for row in killing])


def _pair(x, v):
    return sum((Fraction(a) * b for a, b in zip(x, v)), Fraction(0))


def _act(lam, w, gram, x):
    """t^lam w on the slice: x |-> w^{-T} x - gram lam."""
    winv = mat_inv_int(w)
    n = len(x)
    return tuple(_pair(x, [winv[j][i] for j in range(n)]) - _pair(gram[i], lam) for i in range(n))


def _separated(coroots, gram, theta, u, v):
    """Some integral wall <x, a> = -n q(a), <theta, a> + n q(a) in Z, separates
    u from v or holds one of them."""
    for cv in coroots:
        q = _pair(mat_vec(gram, cv), cv) / 2
        t = _pair(theta, cv)
        lo, hi = sorted((-_pair(u, cv) / q, -_pair(v, cv) / q))
        if any((t + n * q).denominator == 1 for n in range(math.ceil(lo), math.floor(hi) + 1)):
            return True
    return False


def _sides(rd, lvl, theta, match):
    """(coroots, gram, theta, base point) of the level and of its dual side."""
    kinv = mat_inv(lvl.gram)
    dual_gram = tuple(tuple(-x for x in row) for row in kinv)
    theta_dual = mat_vec(kinv, theta)
    return (
        (rd, rd.coroots, lvl.gram, theta, match.g_system.base_point),
        (langlands_dual(rd), rd.roots, dual_gram, theta_dual, match.h_system.base_point),
    )


def _check_walk(rd, lvl, theta, match):
    """y moves iota(base point) into the dual base alcove."""
    kinv = mat_inv(lvl.gram)
    _, (_, coroots, dual_gram, theta_dual, h_base) = _sides(rd, lvl, theta, match)
    iota_base = tuple(-a + b for a, b in zip(mat_vec(kinv, match.g_system.base_point), theta_dual))
    moved = _act(match.y.trans, match.y.w, dual_gram, iota_base)
    assert not _separated(coroots, dual_gram, theta_dual, moved, h_base)


def _nonzero_theta(rng, rank):
    theta = (Fraction(0),) * rank
    while not any(theta):
        theta = tuple(Fraction(rng.randint(-2, 2), 6) for _ in range(rank))
    return theta


def _check_iota_box(rd, lvl, theta):
    """Every t^lam w with |lam|_inf <= 2 that is integral, kappa lam = w(theta)
    - theta (mod 1), conjugates under iota to its partner
    t^{theta - w^{-T} theta + kappa lam} w^{-T}, and the partner is integral
    at the dual level -kappa^{-1} and theta' = kappa^{-1} theta."""
    report = iota_conjugation(rd, lvl, theta)
    assert report["verified"]
    n = rd.rank
    kinv = mat_inv(lvl.gram)
    dual_gram = tuple(tuple(-x for x in row) for row in kinv)
    theta_dual = mat_vec(kinv, theta)
    assert report["iota"].linear == dual_gram and report["iota"].offset == theta_dual

    def iota(x):
        return tuple(a + b for a, b in zip(mat_vec(dual_gram, x), theta_dual))

    def iota_inv(y):
        return tuple(b - a for a, b in zip(mat_vec(lvl.gram, y), theta))

    # an affine map is fixed by its values at 0 and the unit vectors
    points = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)] + [(Fraction(0),) * n]
    integral = 0
    for w in weyl_elements(rd):
        winv_t = tuple(zip(*mat_inv_int(w)))
        w_theta, w_theta_dual = mat_vec(winv_t, theta), mat_vec(w, theta_dual)
        for lam in itertools.product(range(-2, 3), repeat=n):
            mu = tuple(t - wt + k for t, wt, k in zip(theta, w_theta, mat_vec(lvl.gram, lam)))
            if any(x.denominator != 1 for x in mu):
                continue
            integral += 1
            mu = tuple(int(x) for x in mu)
            # the partner t^mu w^{-T}: (-kappa^{-1}) mu = w theta' - theta' (mod 1)
            shift = zip(mat_vec(dual_gram, mu), w_theta_dual, theta_dual)
            assert all((a - b + c).denominator == 1 for a, b, c in shift), (rd.name, lam, w)
            for p in points:
                assert iota(_act(lam, w, lvl.gram, iota_inv(p))) == _act(mu, winv_t, dual_gram, p), (rd.name, lam, w)
    assert integral > 0
    return report


LARGE = [("SL", 4), ("Sp", 6), ("PSp", 4), ("SO_odd", 7)]


@pytest.mark.parametrize("name,param", [("SL", 2), ("SL", 3), ("Sp", 4), ("G2", 2), ("PGL", 3), ("SO_odd", 5)] + LARGE)
def test_iota_conjugation_killing_levels(name, param):
    rd = preset(name, param)
    large = (name, param) in LARGE
    for c in (1, -1) if large else (1, -1, Fraction(1, 3)):
        theta = (Fraction(0),) * rd.rank
        lvl = killing_level(rd, c)
        report = iota_conjugation(rd, lvl, theta) if large else _check_iota_box(rd, lvl, theta)
        assert report["verified"] and report["pairs"]
        # at theta = 0 every stabilizer coset is non-empty, and L has full rank,
        # so G contributes |W| + rank generators (the dual side is counted)
        assert report["pairs_checked"] == len(weyl_elements(rd)) + rd.rank


def test_alcove_match_random_levels():
    rng = random.Random(2507)
    cases = [(name, param, 3) for name, param in RANK_TWO] + [("SL", 4, 1), ("Sp", 6, 1)]
    for name, param, count in cases:
        rd = preset(name, param)
        for _ in range(count):
            c = rng.choice((1, -1)) * Fraction(rng.randint(1, 4), rng.randint(1, 4))
            lvl = killing_level(rd, c)
            theta = (Fraction(0),) * rd.rank
            _check_walk(rd, lvl, theta, alcove_match(rd, lvl, theta))


@pytest.mark.parametrize(
    "name,param,c", [("SL", 3, 1), ("PGL", 3, 1), ("PGL", 3, -1), ("SO_odd", 5, 1), ("SO_odd", 5, -1)]
)
def test_alcove_match_former_failures(name, param, c):
    # a straight-line walk met a codimension-2 crossing at SL3 and PGL3 at K,
    # and a radius-3 box missed dual length-zero elements of PGL3 at -K and SO5
    rd = preset(name, param)
    lvl = killing_level(rd, c)
    theta = (Fraction(0),) * rd.rank
    match = alcove_match(rd, lvl, theta)
    _check_walk(rd, lvl, theta, match)
    assert len(match.omega_pairs) == {"SL3": 1, "PGL3": 3, "SO5": 2}[rd.name]


def _in_omega(reps, lattice, lam, w):
    return any(r.w == w and lattice_contains(lattice, tuple(a - b for a, b in zip(lam, r.trans))) for r in reps)


@pytest.mark.parametrize("name,param", RANK_TWO)
def test_length_zero_group_against_box(name, param):
    rng = random.Random(f"{name}{param}")
    rd = preset(name, param)
    for c in (1, -1, Fraction(1, 2), Fraction(-1, 3)):
        lvl = killing_level(rd, c)
        theta = tuple(Fraction(rng.randint(-2, 2), 6) for _ in range(rd.rank))
        match = alcove_match(rd, lvl, theta)
        sides = _sides(rd, lvl, theta, match)
        for (side_rd, coroots, gram, side_theta, base), reps, lattice in zip(
            sides, zip(*match.omega_pairs), match.omega_lattices
        ):
            # the brute-force box: integral elements t^lam w that fix the base alcove
            for w in weyl_elements(side_rd):
                winv_t = tuple(zip(*mat_inv_int(w)))
                shift = [a - b for a, b in zip(mat_vec(winv_t, side_theta), side_theta)]
                for lam in itertools.product(range(-2, 3), repeat=rd.rank):
                    integral = all((s - _pair(row, lam)).denominator == 1 for s, row in zip(shift, gram))
                    if integral and not _separated(coroots, gram, side_theta, base, _act(lam, w, gram, base)):
                        assert _in_omega(reps, lattice, lam, w), (rd.name, c, lam, w)
            for r in reps:
                assert not _separated(coroots, gram, side_theta, base, _act(r.trans, r.w, gram, base))
            for lam in lattice:
                assert not _separated(coroots, gram, side_theta, base, _act(lam, identity(rd.rank), gram, base))


def test_alcove_match_omega_lattice_without_integral_walls():
    # kappa = 2, theta = 1/3: no level of the one direction is integral
    rd = sl2()
    lvl = level_from_config(rd, [[2]])
    match = alcove_match(rd, lvl, (Fraction(1, 3),))
    assert match.simple_bijection == ()
    assert match.y.is_identity()
    g_lattice, h_lattice = match.omega_lattices
    assert g_lattice == ((1,),) and h_lattice == ((2,),)
    assert finite_longest_group(rd, lvl, (Fraction(1, 3),)) == ()


def test_finite_longest_group_joins_components_that_omega_swaps():
    # Sp4 flagged irrational at theta = (1/2, 1/2): the integral roots are
    # +-e1 +- e2, two finite A1 components, and the length-zero s_{2 e2}
    # swaps them, so their longest elements make one generator, -1.  In SO4
    # at theta = 0 no length-zero element joins the two A1 components.
    rd = sp4()
    lvl = level_from_config(rd, killing_level(rd, 1).gram, irrational=[0])
    theta = (Fraction(1, 2), Fraction(1, 2))
    system = level_integral_weyl(rd, lvl, theta)
    assert [kind for _, kind in system.components] == ["finite", "finite"]
    assert len(length_zero_group(rd, system)[0]) == 2
    assert finite_longest_group(rd, lvl, theta) == (ExtendedWeylElement((0, 0), ((-1, 0), (0, -1))),)
    rd = preset("SO_even", 4)
    lvl = level_from_config(rd, killing_level(rd, 1).gram, irrational=[0, 1])
    gens = finite_longest_group(rd, lvl, (Fraction(0), Fraction(0)))
    assert gens == (ExtendedWeylElement((0, 0), ((0, 1), (1, 0))), ExtendedWeylElement((0, 0), ((0, -1), (-1, 0))))


def test_alcove_match_checks_that_the_walk_element_moves_the_point(monkeypatch):
    # SL2 at kappa = 2: the walk from iota(x0) crosses a wall, so a walk that
    # reports its true steps with the start as its end point is caught, and
    # the error names the walk element
    rd, lvl, theta = sl2(), level_from_config(sl2(), [[2]]), (Fraction(0),)
    y = alcove_match(rd, lvl, theta).y
    assert not y.is_identity()
    walk = duality.descend
    monkeypatch.setattr(duality, "descend", lambda rd, system, start: (walk(rd, system, start)[0], start))
    with pytest.raises(VerificationFailed, match=re.escape(f"walk element {y} does not move")):
        alcove_match(rd, lvl, theta)


def test_finite_longest_group_checks_involutions(monkeypatch):
    # GL2 at the identity level, its component flagged, theta = 0: the
    # translation t^(1,1) of Omega's lattice fixes the alcove, so it
    # normalizes the simple system, but it is no involution
    rd, theta = preset("GL", 2), (Fraction(0), Fraction(0))
    lvl = level_from_config(rd, identity(2), irrational=[0])
    t = ExtendedWeylElement.translation((1, 1))
    assert length_zero_group(rd, level_integral_weyl(rd, lvl, theta))[1] == ((1, 1),)
    monkeypatch.setattr(duality, "_longest_in_component", lambda rd, system, simples: t)
    with pytest.raises(VerificationFailed, match=re.escape(f"finite-longest generator {t} is not an involution")):
        finite_longest_group(rd, lvl, theta)


def test_finite_longest_group_checks_that_generators_commute(monkeypatch):
    # SO5 flagged irrational at theta = (1/2, 0): two finite A1 components,
    # s_e2 and s_e1, in two orbits.  Longest elements of distinct components
    # commute, so only a wrong one reaches the check: s_(e1 - e2) in place of
    # s_e2 is an involution that swaps the two simples, and it does not
    # commute with s_e1
    rd, theta = preset("SO_odd", 5), (Fraction(1, 2), Fraction(0))
    lvl = level_from_config(rd, killing_level(rd, 1).gram, irrational=[0])
    s_e1, swap = ExtendedWeylElement((0, 0), ((-1, 0), (0, 1))), ExtendedWeylElement((0, 0), ((0, 1), (1, 0)))
    assert finite_longest_group(rd, lvl, theta) == (ExtendedWeylElement((0, 0), ((1, 0), (0, -1))), s_e1)
    longest = duality._longest_in_component
    monkeypatch.setattr(duality, "_longest_in_component",
                        lambda rd, system, simples: swap if simples[0].coroot == (0, 2) else longest(rd, system, simples))
    with pytest.raises(VerificationFailed, match=re.escape(f"finite-longest generators {swap} and {s_e1} do not commute")):
        finite_longest_group(rd, lvl, theta)


def test_finite_longest_group_checks_the_normalizer(monkeypatch):
    # SL3 flagged irrational at theta = 0: one finite A2 component.  Its
    # simple reflection s in place of its longest element is an involution,
    # but s conjugates the other simple to a non-simple reflection
    rd, theta = preset("SL", 3), (Fraction(0), Fraction(0))
    lvl = level_from_config(rd, killing_level(rd, 1).gram, irrational=[0])
    assert len(finite_longest_group(rd, lvl, theta)) == 1
    s = affine_coroot_reflection(rd, level_integral_weyl(rd, lvl, theta).simples[0])
    monkeypatch.setattr(duality, "_longest_in_component", lambda rd, system, simples: s)
    with pytest.raises(VerificationFailed, match=re.escape(f"finite-longest generator {s} does not normalize")):
        finite_longest_group(rd, lvl, theta)


def test_alcove_match_checks_the_length_zero_groups(monkeypatch):
    # PGL3 at K: three length-zero elements on each side.  With one dropped
    # on the dual side the sizes differ; with one moved off the dual
    # translation lattice, its partner is not found
    rd, theta = preset("PGL", 3), (Fraction(0), Fraction(0))
    lvl = killing_level(rd, 1)
    omega = length_zero_group
    h_omega, h_lattice = omega(langlands_dual(rd), alcove_match(rd, lvl, theta).h_system)
    assert len(h_omega) == 3
    off = next(v for v in itertools.product(range(3), repeat=2) if not lattice_contains(h_lattice, v))

    def dual_changed(change):
        return lambda side_rd, system: omega(side_rd, system) if side_rd == rd else change(*omega(side_rd, system))

    for change, message in (
        (lambda reps, lattice: (reps[1:], lattice), "length-zero groups have different sizes 3 and 2"),
        (lambda reps, lattice: ((ExtendedWeylElement(vec_add(reps[0].trans, off), reps[0].w),) + reps[1:], lattice),
         "has no dual partner"),
        (lambda reps, lattice: (reps, lattice + (off,)), "length-zero translation lattices do not correspond"),
    ):
        with monkeypatch.context() as m:
            m.setattr(duality, "length_zero_group", dual_changed(change))
            with pytest.raises(VerificationFailed, match=message):
                alcove_match(rd, lvl, theta)


def test_alcove_match_checks_the_simple_systems(monkeypatch):
    # SL3 at K: an affine A2 on each side.  A partner map that finds no
    # partner leaves the first simple unmatched; a dual system that lists a
    # simple twice leaves one dual simple unmatched; a dual Coxeter matrix of
    # 2s in place of 3s does not match
    rd, theta = preset("SL", 3), (Fraction(0), Fraction(0))
    lvl = killing_level(rd, 1)
    first = alcove_match(rd, lvl, theta).g_system.simples[0]
    with monkeypatch.context() as m:
        m.setattr(duality, "_iota_partner", lambda rd, lvl, theta: lambda g: None)
        with pytest.raises(VerificationFailed, match=re.escape(f"conjugated simple {first} is not a dual simple")):
            alcove_match(rd, lvl, theta)
    system = duality.level_integral_weyl

    def dual_changed(change):
        return lambda side_rd, *args: system(side_rd, *args) if side_rd == rd else change(system(side_rd, *args))

    for change, message in (
        (lambda sys: dataclasses.replace(sys, simples=sys.simples + sys.simples[:1]), "simple systems do not biject"),
        (lambda sys: dataclasses.replace(sys, coxeter=tuple(tuple(1 if x == 1 else 2 for x in row) for row in sys.coxeter)),
         "Coxeter matrices differ after matching"),
    ):
        with monkeypatch.context() as m:
            m.setattr(duality, "level_integral_weyl", dual_changed(change))
            with pytest.raises(VerificationFailed, match=message):
                alcove_match(rd, lvl, theta)


def _cayley_farthest(rd, reflections):
    """The farthest elements from the unit in the Cayley graph of the group
    the reflections generate (breadth-first search)."""
    unit = ExtendedWeylElement.unit(rd.rank)
    dist, frontier = {unit: 0}, [unit]
    while frontier:
        new = []
        for g in frontier:
            for r in reflections:
                if g * r not in dist:
                    dist[g * r] = dist[g] + 1
                    new.append(g * r)
        frontier = new
    top = max(dist.values())
    return [g for g, d in dist.items() if d == top]


def test_longest_in_component_against_cayley_bfs(monkeypatch):
    # every finite component finite_longest_group meets on the rank <= 2
    # presets at +-K: rational levels give affine components only, so every
    # subset of the components is also flagged irrational, at theta = 0 and
    # at seeded theta
    rng = random.Random(2507169)
    ascend = duality._longest_in_component
    met = []

    def checked(rd, system, simples):
        longest = ascend(rd, system, simples)
        reflections = [affine_coroot_reflection(rd, ac) for ac in simples]
        assert _cayley_farthest(rd, reflections) == [longest], (rd.name, system.form, reflections)
        met.append(len(reflections))
        return longest

    monkeypatch.setattr(duality, "_longest_in_component", checked)
    for name, param in RANK_TWO + [("Spin_odd", 5), ("SO_even", 4)]:
        rd = preset(name, param)
        count = len(duality.finite_components(rd))
        flags = [s for k in range(count + 1) for s in itertools.combinations(range(count), k)]
        for c in (1, -1):
            killing = killing_level(rd, c).gram
            for irrational in flags:
                lvl = level_from_config(rd, killing, irrational=irrational)
                for theta in [(Fraction(0),) * rd.rank] + [_nonzero_theta(rng, rd.rank) for _ in range(2)]:
                    finite_longest_group(rd, lvl, theta)
    assert len(met) >= 30 and set(met) == {1, 2}


# ---------------------------------------------------------------------------
# the integer conjugation test against composed Fraction maps

RANK_AT_MOST_TWO = [("SL", 2), ("SL", 3), ("PGL", 2), ("PGL", 3), ("GL", 1), ("GL", 2), ("Sp", 2), ("Sp", 4), ("PSp", 2),
                    ("PSp", 4), ("SO_odd", 3), ("SO_odd", 5), ("Spin_odd", 3), ("Spin_odd", 5), ("SO_even", 4),
                    ("G2", 2), ("torus", 2)]


def _scaled_level(rd, c):
    """c K, or c I where the roots do not span (GL, tori)."""
    try:
        return killing_level(rd, c)
    except NotPositiveDefinite:
        return level_from_config(rd, [[c * int(i == j) for j in range(rd.rank)] for i in range(rd.rank)])


def _slice_map(lam, w, gram):
    """t^lam w on the slice as an AffineMap, x |-> w^{-T} x - gram lam."""
    return AffineMap(tuple(zip(*mat_inv(w))), tuple(-x for x in mat_vec(gram, lam)))


def _compose(f, g):
    """f o g for AffineMaps."""
    return AffineMap(mat_mul(f.linear, g.linear), tuple(v + o for v, o in zip(mat_vec(f.linear, g.offset), f.offset)))


def _inverse(f):
    inv = mat_inv(f.linear)
    return AffineMap(inv, tuple(-x for x in mat_vec(inv, f.offset)))


def test_conjugation_test_against_composed_maps():
    # every generator pair iota_conjugation checks, and wrong partners (the
    # translation perturbed, the Weyl part replaced, the sign of kappa lam
    # flipped, a reflection's level moved), decided by the integer test and
    # by iota o g o iota^{-1} composed as Fraction maps
    rng = random.Random(2507)
    verdicts = {True: 0, False: 0}
    for name, param in RANK_AT_MOST_TWO + [("SL", 4), ("Sp", 6)]:
        rd = preset(name, param)
        rd_dual = langlands_dual(rd)
        dual_group = weyl_elements(rd_dual)
        for c in (Fraction(rng.randint(1, 4), rng.randint(1, 4)), -Fraction(rng.randint(1, 4), rng.randint(1, 4))):
            lvl = _scaled_level(rd, c)
            for theta in ((Fraction(0),) * rd.rank, _nonzero_theta(rng, rd.rank)):
                # iota, and iota with its linear part doubled, which the test
                # must read from the map rather than from the level
                iota = duality.iota_map(rd, lvl, theta)
                doubled = AffineMap(tuple(tuple(2 * x for x in row) for row in iota.linear), iota.offset)
                dual_gram = tuple(tuple(-x for x in row) for row in mat_inv(lvl.gram))
                maps = [(m, _inverse(m), duality._conjugation_test(m, lvl, Level(dual_gram))) for m in (iota, doubled)]

                def agree(lam, w, mu, v, expected=None):
                    for m, m_inv, conjugates in maps:
                        ref = _compose(_compose(m, _slice_map(lam, w, lvl.gram)), m_inv) == _slice_map(mu, v, dual_gram)
                        got = conjugates(tuple(zip(*mat_inv_int(w))), lam, tuple(zip(*mat_inv_int(v))), mu)
                        assert got == ref, (rd.name, lvl.gram, theta, m, lam, w, mu, v)
                        assert expected is None or m is doubled or got == expected, (rd.name, lvl.gram, theta, lam, w)
                        verdicts[got] += 1

                _, reps, shifts = duality._integral_generators(rd, lvl, theta)
                for g in reps + shifts:
                    winv_t = tuple(zip(*mat_inv_int(g.w)))
                    kappa_lam = mat_vec(lvl.gram, g.trans)
                    base = [t - wt for t, wt in zip(theta, mat_vec(winv_t, theta))]
                    mu = tuple(int(b + k) for b, k in zip(base, kappa_lam))
                    agree(g.trans, g.w, mu, winv_t, expected=True)
                    agree(g.trans, g.w, (mu[0] + 1,) + mu[1:], winv_t)
                    agree(g.trans, g.w, mu, rng.choice([v for v in dual_group if v != winv_t] or [winv_t]))
                    agree(g.trans, g.w, tuple(b - k for b, k in zip(base, kappa_lam)), winv_t)
                for cv, alpha in zip(rd.coroots, rd.roots):
                    p = level_progressions(rd, lvl, theta)[cv]
                    if p is None:
                        continue
                    r = affine_coroot_reflection(rd, AffineCoroot(cv, p[0]))
                    m = dot(theta, cv) + p[0] * lvl.q(cv)
                    assert m.denominator == 1, (rd.name, lvl.gram, theta, cv)
                    for shift in (0, 1):
                        h = affine_coroot_reflection(rd_dual, AffineCoroot(alpha, int(m) + shift))
                        agree(r.trans, r.w, h.trans, h.w, expected=True if shift == 0 else None)
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts


def test_alcove_match_against_composed_maps():
    # the simple bijection, the length-zero pairs and the lattices of
    # alcove_match against j = y o iota composed as Fraction maps: a simple
    # reflection goes to the dual simple with the same slice map, and a
    # length-zero representative to the dual one with the same linear part,
    # up to a translation in the dual lattice
    rng = random.Random(1707)
    for name, param in RANK_TWO + [("GL", 2), ("SL", 4), ("Sp", 6)]:
        rd = preset(name, param)
        rd_dual = langlands_dual(rd)
        for c in (1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(-3, 4)):
            lvl = _scaled_level(rd, c)
            kinv = mat_inv(lvl.gram)
            dual_gram = tuple(tuple(-x for x in row) for row in kinv)
            for theta in ((Fraction(0),) * rd.rank, _nonzero_theta(rng, rd.rank)):
                match = alcove_match(rd, lvl, theta)
                jmap = _compose(_slice_map(match.y.trans, match.y.w, dual_gram), AffineMap(dual_gram, mat_vec(kinv, theta)))
                jinv = _inverse(jmap)

                def conjugate(g):
                    return _compose(_compose(jmap, _slice_map(g.trans, g.w, lvl.gram)), jinv)

                def translation(offset):
                    """The mu whose dual slice offset kappa^{-1} mu is offset."""
                    mu = mat_vec(lvl.gram, offset)
                    assert all(Fraction(x).denominator == 1 for x in mu), (rd.name, c, theta, offset)
                    return tuple(int(x) for x in mu)

                walls = {}
                for ac in match.h_system.simples:
                    r = affine_coroot_reflection(rd_dual, ac)
                    walls[_slice_map(r.trans, r.w, dual_gram)] = ac
                bij = tuple((ac, walls[conjugate(affine_coroot_reflection(rd, ac))]) for ac in match.g_system.simples)
                g_omega, g_lattice = length_zero_group(rd, match.g_system)
                h_omega, h_lattice = length_zero_group(rd_dual, match.h_system)
                h_by_linear = {_slice_map(o.trans, o.w, dual_gram).linear: o for o in h_omega}
                pairs = []
                for o in g_omega:
                    conj = conjugate(o)
                    dual = h_by_linear[conj.linear]
                    offset = _slice_map(dual.trans, dual.w, dual_gram).offset
                    assert lattice_contains(h_lattice, translation([a - b for a, b in zip(conj.offset, offset)]))
                    pairs.append((o, dual))
                images = [translation(conjugate(ExtendedWeylElement.translation(lam)).offset) for lam in g_lattice]
                assert lattice_basis_from_generators(images) == lattice_basis_from_generators(h_lattice)
                assert match.simple_bijection == bij, (rd.name, c, theta)
                assert match.omega_pairs == tuple(pairs), (rd.name, c, theta)
                assert match.omega_lattices == (g_lattice, h_lattice), (rd.name, c, theta)


@pytest.mark.parametrize("wrong", ["scaled", "sheared"])
def test_iota_conjugation_rejects_a_wrong_linear_part(monkeypatch, wrong):
    # kappa^{-1} is symmetric, so transposing iota's linear part changes
    # nothing; doubling it, or shearing it, breaks the conjugation of the
    # generators and their partners, at theta = 0 and theta != 0
    right = duality.iota_map

    def changed(*args):
        m = right(*args)
        if wrong == "scaled":
            return AffineMap(tuple(tuple(2 * x for x in row) for row in m.linear), m.offset)
        shear = tuple(tuple(int(i == j or j == i + 1) for j in range(len(m.offset))) for i in range(len(m.offset)))
        return AffineMap(mat_mul(m.linear, shear), m.offset)

    cases = [(sp4(), [[1, 0], [0, 1]], (Fraction(0), Fraction(0))), (sp4(), [[-2, 0], [0, -2]], (Fraction(1, 2), Fraction(0)))]
    rd3 = preset("SL", 3)
    cases.append((rd3, killing_level(rd3, -1).gram, (Fraction(1, 3), Fraction(0))))
    if wrong == "scaled":
        cases.append((sl2(), [[Fraction(2, 3)]], (Fraction(0),)))
    for rd, gram, theta in cases:
        lvl = level_from_config(rd, gram)
        assert iota_conjugation(rd, lvl, theta)["verified"]
        monkeypatch.setattr(duality, "iota_map", changed)
        with pytest.raises(VerificationFailed):
            iota_conjugation(rd, lvl, theta)
        monkeypatch.setattr(duality, "iota_map", right)


def test_level_hash_computed_once_and_equal_levels_share_cache_entries(monkeypatch):
    rd = sp4()
    a = level_from_config(rd, [[1, 0], [0, 1]])
    b = Level(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    c = dataclasses.replace(a)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a != Level(a.gram, frozenset({0})) and a != level_from_config(rd, [[2, 0], [0, 2]])
    # hashing a level hashes no Fraction: the value was computed at construction
    hashed = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: hashed.append(x) or fraction_hash(x))
    assert {a: 1}[b] == 1 and hash(c) == hash(a)
    assert hashed == []
    hash(Fraction(1, 3))
    assert hashed == [Fraction(1, 3)]  # the count would see a Fraction hashed
    monkeypatch.undo()
    # an equal level built anew hits the entries the first one made
    duality._inverse_gram.cache_clear()
    duality._inverse_gram(a)
    duality._inverse_gram(b)
    assert duality._inverse_gram.cache_info()[:2] == (1, 1)  # hits, misses
    theta = (Fraction(1, 4), Fraction(0))
    assert level_integral_weyl(rd, a, theta) is level_integral_weyl(rd, b, theta)


def test_level_integral_weyl_once_per_level_and_theta(monkeypatch):
    rd = sp4()
    lvl = killing_level(rd, Fraction(-1, 2))
    duality._level_integral_weyl.cache_clear()
    system = level_integral_weyl(rd, lvl, (0, 0))
    assert level_integral_weyl(rd, lvl, (Fraction(0), Fraction(0))) is system
    assert level_integral_weyl(rd, lvl, [Fraction(0), 0]) is system
    # alcove_match reads the system just built, and builds only the dual one
    built = []
    core = duality.integral_system
    monkeypatch.setattr(duality, "integral_system", lambda rd, *args: built.append(rd) or core(rd, *args))
    match = alcove_match(rd, lvl, (0, 0))
    assert match.g_system is system and built == [langlands_dual(rd)]
    assert alcove_match(rd, lvl, (0, 0)).h_system is match.h_system and len(built) == 1


# the levels of the benchmark's level strata: (preset, parameter, levels as
# (form, scale)), K the sum over the roots of a (x) a and I the identity
LEVEL_STRATA = (
    ("SL", 2, (("K", 1), ("K", -1), ("K", Fraction(1, 2)), ("K", Fraction(-1, 2)), ("K", Fraction(1, 3)), ("K", Fraction(-1, 3)),
               ("I", -1), ("I", Fraction(-1, 2)))),
    ("SL", 3, (("K", -1), ("K", Fraction(-1, 2)), ("K", Fraction(-1, 3)))),
    ("Sp", 4, (("K", 1), ("K", -1), ("K", Fraction(1, 2)))),
    ("G2", 2, (("K", Fraction(1, 3)), ("K", Fraction(-1, 3)))),
    ("PGL", 3, (("K", Fraction(-1, 3)),)),
    ("SO_odd", 5, (("K", Fraction(-1, 3)), ("I", Fraction(-1, 2)))),
)


def test_hecke_products_match_through_level_duality():
    # level duality, decategorified: on every level of the level strata, at
    # theta = 0 and a seeded theta in sixths, seeded words of length 1-5 in
    # the simples and length-zero elements of the integral system at kappa
    # multiply out (b_r = T_r + v by _mult_by_simple, and support shifts for
    # omega) to the table of the transported word on the dual system at
    # -kappa^{-1}, after g -> y partner(g) y^{-1}.  A simple goes along
    # simple_bijection; an omega goes to its conjugate, which omega_pairs
    # pairs with a dual representative up to the dual translation lattice
    rng = random.Random(2507211)
    tokens = Counter()
    for name, param, levels in LEVEL_STRATA:
        rd = preset(name, param)
        rd_dual = langlands_dual(rd)
        for kind, scale in levels:
            base = killing_level(rd, 1).gram if kind == "K" else identity(rd.rank)
            lvl = level_from_config(rd, [[scale * x for x in row] for row in base])
            for theta in ((Fraction(0),) * rd.rank, tuple(Fraction(rng.randint(0, 5), 6) for _ in range(rd.rank))):
                match = alcove_match(rd, lvl, theta)
                partner, y, y_inv = duality._iota_partner(rd, lvl, theta), match.y, match.y.inverse()

                def conjugate(g):
                    return y * partner(g) * y_inv

                letters = [("r", ac, dual) for ac, dual in match.simple_bijection]
                for o, dual in (pair for pair in match.omega_pairs if not pair[0].is_identity()):
                    h = conjugate(o)
                    assert h.w == dual.w and lattice_contains(match.omega_lattices[1], vec_sub(h.trans, dual.trans)), (name, lvl, o)
                    letters.append(("omega", o, h))
                for _ in range(5 if letters else 0):  # no letters: a trivial group
                    unit = {ExtendedWeylElement.unit(rd.rank): ONE}
                    g_elt, h_elt = HeckeElement(None, None, unit), HeckeElement(None, None, dict(unit))
                    for letter, g, h in (rng.choice(letters) for _ in range(rng.randint(1, 5))):
                        if letter == "r":  # b_r = T_r + v
                            g_elt = _mult_by_simple(rd, match.g_system, g_elt, g) + g_elt.scale(V)
                            h_elt = _mult_by_simple(rd_dual, match.h_system, h_elt, h) + h_elt.scale(V)
                        else:
                            g_elt, h_elt = _times_minimal(g_elt, g, None), _times_minimal(h_elt, h, None)
                        tokens[letter] += 1
                    assert {conjugate(g): c for g, c in g_elt.support.items()} == h_elt.support, (name, lvl, theta)
                    tokens["support"] += len(h_elt.support)
    assert tokens["r"] >= 300 and tokens["omega"] >= 40 and tokens["support"] >= 500, tokens


def test_descend_on_level_systems(reference_length):
    # the one walk on the level systems of the level strata, at theta = 0 and
    # a seeded theta in sixths: a seeded y = t^lam w is m r_1 ... r_k over the
    # simples, with m minimal (is_minimal on the system) and k the reference
    # length of y, counted in Fractions
    rng = random.Random(2507320)
    walked = Counter()
    for name, param, levels in LEVEL_STRATA:
        rd = preset(name, param)
        group = weyl_elements(rd)
        for kind, scale in levels:
            base = killing_level(rd, 1).gram if kind == "K" else identity(rd.rank)
            lvl = level_from_config(rd, [[scale * x for x in row] for row in base])
            for theta in ((Fraction(0),) * rd.rank, tuple(Fraction(rng.randint(0, 5), 6) for _ in range(rd.rank))):
                system = level_integral_weyl(rd, lvl, theta)
                for _ in range(4):
                    y = ExtendedWeylElement(tuple(rng.randint(-2, 2) for _ in range(rd.rank)), rng.choice(group))
                    m, word = _descend(rd, system, y)
                    assert is_minimal(system, m) and set(word) <= set(system.simples), (name, lvl, theta, y)
                    assert len(word) == reference_length(rd, system, y), (name, lvl, theta, y, word)
                    product = m
                    for ac in word:
                        product = product * affine_coroot_reflection(rd, ac)
                    assert product == y, (name, lvl, theta, y, word)
                    walked["steps"] += len(word)
                    walked["moved"] += not m.is_identity()
                    walked["negative"] += lvl.q(rd.coroots[0]) < 0
    assert walked["steps"] >= 400 and walked["moved"] >= 60 and walked["negative"] >= 80, walked
