import itertools
import math
import random
from fractions import Fraction

import pytest

from weylkit import duality
from weylkit.affine import ExtendedWeylElement, gram_from_weights, length_zero_group
from weylkit.duality import (
    AffineMap,
    AlcoveMatch,
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
    level_membership,
    level_progression,
    level_progressions,
)
from weylkit.exact import identity, lattice_contains, mat_inv, mat_vec
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
    assert level_progression(rd, lvl, (Fraction(0),), (1,)) == (0, 2)
    lvl2 = level_from_config(rd, [[2]])
    assert level_progression(rd, lvl2, (Fraction(0),), (1,)) == (0, 1)
    # theta = 1/3 with q = 1 has no integral level in this direction
    assert level_progression(rd, lvl2, (Fraction(1, 3),), (1,)) is None


def test_level_progression_irrational():
    rd = sl2()
    lvl = level_from_config(rd, [[1]], irrational=[0])
    assert level_progression(rd, lvl, (Fraction(0),), (1,)) == (0, 0)
    assert level_progression(rd, lvl, (Fraction(1, 3),), (1,)) is None


def test_integral_weyl_full_at_even_level():
    rd = sl2()
    lvl = level_from_config(rd, [[2]])
    sys = level_integral_weyl(rd, lvl, (Fraction(0),))
    assert len(sys.simples) == 2
    assert sys.coxeter[0][1] == "infinite"
    for w, coset in sys.stabilizer:
        assert coset is not None


def test_integral_weyl_irrational_is_finite():
    rd = sl2()
    lvl = level_from_config(rd, [[1]], irrational=[0])
    sys = level_integral_weyl(rd, lvl, (Fraction(0),))
    assert len(sys.simples) == 1
    assert sys.components == (((0,), "finite"),)
    # only lam = 0 translations are integral
    assert level_membership(rd, lvl, (Fraction(0),), ExtendedWeylElement.translation((1,))) is False
    assert level_membership(rd, lvl, (Fraction(0),), ExtendedWeylElement.translation((0,)))


def test_iota_conjugation_sl2():
    rd = sl2()
    for gram in ([[1]], [[2]], [[-2]], [[Fraction(2, 3)]]):
        lvl = level_from_config(rd, gram)
        report = iota_conjugation(rd, lvl, (Fraction(0),))
        assert report["verified"]
        assert report["pairs_checked"] > 0


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
        # so each side contributes |W| + rank generators
        assert report["pairs_checked"] == 2 * (len(weyl_elements(rd)) + rd.rank)


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
    assert len(length_zero_group(rd, lvl, system)[0]) == 2
    assert finite_longest_group(rd, lvl, theta) == (ExtendedWeylElement((0, 0), ((-1, 0), (0, -1))),)
    rd = preset("SO_even", 4)
    lvl = level_from_config(rd, killing_level(rd, 1).gram, irrational=[0, 1])
    gens = finite_longest_group(rd, lvl, (Fraction(0), Fraction(0)))
    assert gens == (ExtendedWeylElement((0, 0), ((0, 1), (1, 0))), ExtendedWeylElement((0, 0), ((0, -1), (-1, 0))))


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

    def checked(rd, lvl, progressions, reflections):
        longest = ascend(rd, lvl, progressions, reflections)
        assert _cayley_farthest(rd, reflections) == [longest], (rd.name, lvl, reflections)
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
