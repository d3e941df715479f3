"""The integral-Weyl-group core against its front-ends, the character
formulas it replaced, and brute force.

One builder, duality.integral_system, serves both front-ends: the level
front-end (level kappa, theta) and the character front-end (form S,
character chi), which builds the level c~ S at theta = chi_f with S as the
geometry.  The character's own formulas, the progressions of chi_f(alpha) +
n q(alpha) c and the stabilizer rows c S, are kept here as the reference the
wrapper is checked against, field by field.  The brute-force references below
share no code with the core: they enumerate affine coroots over a window of
levels and act on them through the extended matrix.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

from weylkit.affine import (
    CharacterPoint,
    ExtendedWeylElement,
    IntegralSystem,
    coxeter_system,
    descend,
    dominant_base_point,
    extended_act_character,
    gram_from_weights,
    simple_system_from_progressions,
    slice_act_inverse,
    stabilizer_cosets,
)
from conftest import RANK_AT_MOST_FOUR, even_form, progression, value_on
from weylkit import duality
from weylkit.duality import (
    finite_components,
    level_from_config,
    level_integral_weyl,
    level_progressions,
)
from weylkit.exact import QmodZ, identity, mat_inv, solve_integer_affine
from weylkit.integral import integral_simple_system
from weylkit.rootdata import longest_element, mat_inv_int, preset, weyl_elements

FRONT_END_PRESETS = [("SL", 2), ("SL", 3), ("Sp", 4), ("G2", 2), ("PGL", 3), ("SO_odd", 5)]


def _reflection(rd, coroot, n):
    """t^{n alpha} s_alpha."""
    return ExtendedWeylElement(tuple(n * x for x in coroot), rd.reflection(rd.coroots.index(tuple(coroot))))


def _character_progressions(rd, form, chi):
    """{n : chi_f(alpha) + n q(alpha) c in Z} per coroot alpha."""
    c = chi.central.as_fraction()
    return {cv: progression(form.q(cv) * c, value_on(chi, cv).as_fraction()) for cv in rd.coroots}


def _character_system(rd, form, chi):
    """The integral system of chi from its own progressions and the
    stabilizer rows c S lam = w(chi_f) - chi_f (mod 1), on the geometry S."""
    progs = _character_progressions(rd, form, chi)
    c, theta = chi.central.as_fraction(), tuple(f.as_fraction() for f in chi.finite)
    simples = simple_system_from_progressions(rd, form, progs)
    matrix, components = coxeter_system(rd, simples)
    stab, lattice = stabilizer_cosets(rd, [[c * x for x in row] for row in form.matrix], theta)
    stab = tuple(sorted(stab.items()))
    return IntegralSystem(form, tuple(sorted(progs.items())), simples, matrix, components, stab, lattice, dominant_base_point(rd, form))


def test_character_wrapper_against_the_character_formulas():
    # every field of integral_simple_system, built at the level c~ S, against
    # the system of the character's own progressions and rows c S, at c = 0
    # (where c~ = 1) and five central values, with chi_f zero or seeded in
    # twelfths
    rng = random.Random(2507210)
    cases = 0
    for name, param in [("SL", 2), ("SL", 3), ("SL", 4), ("Sp", 4), ("PSp", 4), ("G2", 2), ("PGL", 2), ("PGL", 3),
                        ("SO_odd", 5), ("Spin_odd", 5)]:
        rd = preset(name, param)
        form = gram_from_weights(rd, rd.roots)
        for c in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(5, 6)):
            for finite in ((Fraction(0),) * rd.rank, tuple(Fraction(rng.randrange(12), 12) for _ in range(rd.rank))):
                chi = CharacterPoint(QmodZ.from_fraction(c), tuple(QmodZ.from_fraction(x) for x in finite))
                got, expected = integral_simple_system(rd, form, chi), _character_system(rd, form, chi)
                for field in dataclasses.fields(IntegralSystem):
                    assert getattr(got, field.name) == getattr(expected, field.name), (name, chi, field.name)
                cases += 1
    assert cases == 120


def _same_coset(a, b):
    return a.basis == b.basis and a.contains(b.particular)


def test_front_ends_agree():
    # kappa = c S, theta = chi_f.  Scaling the slice by c carries the level's
    # arrangement to the character's; for c < 0 it carries the level's base
    # alcove to the alcove of -x0, which w0 carries to the base alcove of w0 chi.
    rng = random.Random(2507)
    cases = 0
    for name, param in FRONT_END_PRESETS:
        rd = preset(name, param)
        form = gram_from_weights(rd, rd.roots)
        w0 = ExtendedWeylElement.from_weyl(longest_element(rd))
        for _ in range(20):
            c = rng.choice((1, -1)) * Fraction(rng.randint(1, 4), rng.randint(1, 4))
            theta = tuple(Fraction(rng.randint(0, 5), 6) for _ in range(rd.rank))
            chi = CharacterPoint(QmodZ.from_fraction(c), tuple(QmodZ.from_fraction(t) for t in theta))
            lvl = level_from_config(rd, [[c * x for x in row] for row in form.matrix])
            level_sys = level_integral_weyl(rd, lvl, theta)
            char_sys = integral_simple_system(rd, form, chi if c > 0 else extended_act_character(w0, form, chi))
            assert _character_progressions(rd, form, chi) == level_progressions(rd, lvl, theta)

            level_refl = [_reflection(rd, s.coroot, s.n) for s in level_sys.simples]
            char_refl = [_reflection(rd, s.coroot, s.n) for s in char_sys.simples]
            if c < 0:
                char_refl = [w0 * r * w0 for r in char_refl]
            assert sorted(level_refl, key=repr) == sorted(char_refl, key=repr), (name, c, theta)
            perm = [char_refl.index(r) for r in level_refl]
            k = len(perm)
            for i in range(k):
                for j in range(k):
                    assert level_sys.coxeter[i][j] == char_sys.coxeter[perm[i]][perm[j]]

            stab = dict(integral_simple_system(rd, form, chi).stabilizer)
            level_stab = dict(level_sys.stabilizer)
            assert set(stab) == set(level_stab)
            assert all(_same_coset(stab[w], level_stab[w]) for w in stab), (name, c, theta)
            cases += 1
    assert cases == 120


# ---------------------------------------------------------------------------
# brute-force references: affine coroots over a window of levels
#
# A case is (root datum, form matrix, integrality test (alpha, n) -> bool,
# base point).  q(alpha) = form(alpha, alpha)/2; the affine coroot (alpha, n)
# is the functional x |-> <x, alpha> + n q(alpha) on the slice, and t^lam w
# sends it to x |-> <x, w alpha> + n q(alpha) + form(lam, w alpha).


def _pair(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def _q(gram, cv):
    return _pair([_pair(row, cv) for row in gram], cv) / 2


def _weyl_image(w, v):
    return tuple(sum(w[i][j] * v[j] for j in range(len(v))) for i in range(len(w)))


def _brute_length(rd, gram, integral, x0, lam, w):
    """Integral affine coroots positive at x0 that t^lam w makes negative there."""
    klam = [_pair(row, lam) for row in gram]
    total = 0
    for cv in rd.coroots:
        q = _q(gram, cv)
        wcv = _weyl_image(w, cv)
        before, after = _pair(x0, cv), _pair(x0, wcv) + _pair(klam, wcv)
        bound = int((abs(before) + abs(after)) / abs(q)) + 2
        for n in range(-bound, bound + 1):
            if before + n * q > 0 and after + n * q < 0 and integral(cv, n):
                total += 1
    return total


def _compose(g, h):
    (lam, w), (mu, u) = g, h
    return (
        tuple(a + b for a, b in zip(lam, _weyl_image(w, mu))),
        tuple(tuple(sum(w[i][k] * u[k][j] for k in range(len(u))) for j in range(len(u))) for i in range(len(w))),
    )


def _closure_is_finite(gens, cap=300):
    n = len(gens[0][0])
    seen = {((0,) * n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))}
    frontier = list(seen)
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                x = _compose(g, s)
                if x not in seen:
                    if len(seen) >= cap:
                        return False
                    seen.add(x)
                    new.append(x)
        frontier = new
    return True


def _check_case(rd, form, gram, integral, system, rng, elements=6, window=8):
    x0 = system.base_point
    # x0 lies on no integral wall
    for cv in rd.coroots:
        q = _q(gram, cv)
        level = -_pair(x0, cv) / q
        assert level.denominator != 1 or not integral(cv, int(level))
    ws = weyl_elements(rd)
    for _ in range(elements):
        lam = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
        w = rng.choice(ws)
        # descend crosses one wall per descent, so as many as the length
        steps, _ = descend(rd, system, slice_act_inverse(ExtendedWeylElement(lam, w), form, x0))
        assert len(steps) == _brute_length(rd, gram, integral, x0, lam, w), (rd.name, lam, w)
    # the simple reflections are the integral reflections of length 1
    length_one = set()
    for cv in rd.coroots:
        for n in range(-window, window + 1):
            if integral(cv, n) and _pair(x0, cv) + n * _q(gram, cv) > 0:
                r = _reflection(rd, cv, n)
                if _brute_length(rd, gram, integral, x0, r.trans, r.w) == 1:
                    length_one.add(r)
    assert set(system.simple_reflections(rd)) == length_one
    assert len(system.simples) == len(length_one)
    for ac in system.simples:
        assert _pair(x0, ac.coroot) + ac.n * _q(gram, ac.coroot) > 0
    assert list(system.simples) == sorted(system.simples, key=lambda a: (a.n, a.coroot))
    # component kinds against a capped closure
    refl = system.simple_reflections(rd)
    for idx, kind in system.components:
        gens = [(r.trans, r.w) for r in (refl[i] for i in idx)]
        assert kind == ("finite" if _closure_is_finite(gens) else "affine"), (rd.name, idx)


def test_character_systems_against_brute_force():
    rng = random.Random(16667)
    for name, param in [("SL", 3), ("Sp", 4), ("G2", 2), ("PGL", 3), ("SO_odd", 5), ("PSp", 4)]:
        rd = preset(name, param)
        form = gram_from_weights(rd, rd.roots)
        positive = {rd.coroots[i] for i in rd.positive_root_indices()}
        for _ in range(3):
            c = Fraction(rng.randint(0, 5), 6)
            chi_f = tuple(Fraction(rng.randint(0, 3), 4) for _ in range(rd.rank))
            chi = CharacterPoint(QmodZ.from_fraction(c), tuple(QmodZ.from_fraction(x) for x in chi_f))
            system = integral_simple_system(rd, form, chi)
            # the base point lies in the fundamental alcove 0 < x(a) < Q(a)
            for cv in positive:
                assert 0 < _pair(system.base_point, cv) < form.q(cv)

            def integral(cv, n, chi_f=chi_f, c=c):
                return (_pair(chi_f, cv) + n * form.q(cv) * c).denominator == 1

            _check_case(rd, form, form.matrix, integral, system, rng)


def _level_integrality(rd, lvl, theta, factor_of):
    values = {cv: (_pair(theta, cv), _q(lvl.gram, cv), factor_of(cv) in lvl.irrational) for cv in rd.coroots}

    def integral(cv, n):
        t, q, flagged = values[cv]
        if flagged:
            return n == 0 and t.denominator == 1
        return (t + n * q).denominator == 1

    return integral


def _check_stabilizer(rd, lvl, theta, system, factor_of):
    """t^lam w over a box of lam: integral iff lam vanishes on the flagged
    factors (kappa is block-diagonal there) and w(theta) - theta - kappa(lam)
    is integral, the flagged blocks of kappa counting as zero."""
    n = rd.rank
    flagged = [factor_of(tuple(int(i == j) for j in range(n))) in lvl.irrational for i in range(n)]
    stab = dict(system.stabilizer)
    for w in weyl_elements(rd):
        coset = stab.get(w)  # listed iff w is admissible
        winv = mat_inv_int(w)
        shift = [_pair(theta, [winv[j][i] for j in range(n)]) - theta[i] for i in range(n)]
        for lam in itertools.product(range(-1, 2), repeat=n):
            expected = all(
                (shift[i] - (0 if flagged[i] else _pair(lvl.gram[i], lam))).denominator == 1 for i in range(n)
            ) and not any(x for x, f in zip(lam, flagged) if f)
            assert (coset is not None and coset.contains(lam)) == expected, (rd.name, w, lam)


def _check_level(rd, lvl, theta, rng, factor_of=lambda cv: 0):
    system = level_integral_weyl(rd, lvl, theta)
    integral = _level_integrality(rd, lvl, theta, factor_of)
    _check_case(rd, lvl, lvl.gram, integral, system, rng)
    _check_stabilizer(rd, lvl, theta, system, factor_of)


def test_killing_levels_against_brute_force():
    rng = random.Random(7166)
    for name, param in [("SL", 2), ("SL", 3), ("Sp", 4), ("G2", 2), ("PGL", 3)]:
        rd = preset(name, param)
        killing = gram_from_weights(rd, rd.roots).matrix
        for sign in (1, -1):
            c = sign * Fraction(rng.randint(1, 4), rng.randint(1, 4))
            lvl = level_from_config(rd, [[c * x for x in row] for row in killing])
            theta = tuple(Fraction(rng.randint(-2, 2), 6) for _ in range(rd.rank))
            _check_level(rd, lvl, theta, rng)


def _block(a, b):
    n, m = len(a), len(b)
    return [list(a[i]) + [0] * m for i in range(n)] + [[0] * n + list(b[j]) for j in range(m)]


def test_mixed_levels_against_brute_force():
    # block-diagonal levels with one positive and one negative block, and
    # irrational flags on either factor
    rng = random.Random(2507166)
    for left, right in [(("SL", 2), ("SL", 2)), (("SL", 2), ("SL", 3)), (("Sp", 4), ("SL", 2))]:
        a, b = preset(*left), preset(*right)
        rd = preset("product", factors=[a, b])
        ka, kb = gram_from_weights(a, a.roots).matrix, gram_from_weights(b, b.roots).matrix

        def factor_of(cv, split=a.rank):
            return 0 if any(cv[:split]) else 1

        for irrational in ((), (0,), (1,)):
            ca = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            cb = -Fraction(rng.randint(1, 3), rng.randint(1, 3))
            if rng.random() < 0.5:
                ca, cb = -ca, -cb
            gram = _block([[ca * x for x in row] for row in ka], [[cb * x for x in row] for row in kb])
            lvl = level_from_config(rd, gram, irrational=irrational)
            for theta in ((Fraction(0),) * rd.rank, tuple(Fraction(rng.randint(-1, 1), 2) for _ in range(rd.rank))):
                _check_level(rd, lvl, theta, rng, factor_of)


# ---------------------------------------------------------------------------
# one factorization for every Weyl element against one solve per element

STABILIZER_PRESETS = FRONT_END_PRESETS + [("PSp", 4), ("Spin_odd", 5), ("SO_even", 4), ("SL", 5), ("SO_even", 8)]


def _solve_per_element(rd, rows, theta, exact_rows):
    """Cosets of rows lam = theta o w^{-1} - theta (mod 1), exact_rows lam = 0,
    each w with its own solve_integer_affine; the w with no solution left out."""
    n = rd.rank
    moduli = [1] * len(rows) + [0] * len(exact_rows)
    out = {}
    for w in weyl_elements(rd):
        winv = mat_inv(w)
        shift = [_pair(theta, [winv[j][i] for j in range(n)]) - theta[i] for i in range(n)]
        coset = solve_integer_affine(list(rows) + list(exact_rows), shift + [0] * len(exact_rows), moduli)
        if coset is not None:
            out[w] = coset
    return out


def test_stabilizer_cosets_against_per_element_solves():
    rng = random.Random(2507171)
    for name, param in STABILIZER_PRESETS:
        rd = preset(name, param)
        form = gram_from_weights(rd, rd.roots)
        components = range(len(finite_components(rd)))
        for c in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(rng.randint(1, 5), 6)):
            theta = tuple(Fraction(rng.randint(0, 11), 12) for _ in range(rd.rank))
            chi = CharacterPoint(QmodZ.from_fraction(c), tuple(QmodZ.from_fraction(t) for t in theta))
            system = integral_simple_system(rd, form, chi)
            cosets, lattice = dict(system.stabilizer), system.translation_lattice
            expected = _solve_per_element(rd, [[c * x for x in row] for row in form.matrix], theta, ())
            assert cosets == expected, (name, c, theta)
            assert lattice == expected[identity(rd.rank)].basis
            if c == 0:
                continue
            for irrational in [()] + [(i,) for i in components]:
                sign = rng.choice((1, -1))
                kappa = [[sign * c * x for x in row] for row in form.matrix]
                lvl = level_from_config(rd, kappa, irrational=irrational)
                system = level_integral_weyl(rd, lvl, theta)
                rows, exact_rows = duality._stabilizer_rows(rd, lvl)
                assert bool(exact_rows) == bool(irrational)
                expected = _solve_per_element(rd, rows, theta, exact_rows)
                assert dict(system.stabilizer) == expected, (name, kappa, irrational, theta)
                assert system.translation_lattice == expected[identity(rd.rank)].basis


# ---------------------------------------------------------------------------
# the integer progressions and character action against Fraction formulas


def _fraction_progressions(rd, lvl, theta):
    """Per coroot, progression(q(alpha), <theta, alpha>) in Fractions, and on
    a flagged component (0, 0), or None where <theta, alpha> is not integral."""
    out = {}
    for cv in rd.coroots:
        value = sum((Fraction(t) * x for t, x in zip(theta, cv)), Fraction(0))
        if duality._coroot_components(rd)[cv] in lvl.irrational:
            out[cv] = (0, 0) if value.denominator == 1 else None
        else:
            out[cv] = progression(lvl.q(cv), value)
    return out


def test_level_progressions_against_fraction_progressions():
    # every preset of rank <= 4 at levels c K of both signs, c = +-p/q, and
    # SL2 x SL3 with each component flagged irrational, at theta zero and
    # seeded; the keys keep the order of rd.coroots
    rng = random.Random(2507310)
    sl2_sl3 = preset("product", factors=[preset("SL", 2), preset("SL", 3)])
    cases = [(preset(name, param), ()) for name, param in RANK_AT_MOST_FOUR]
    cases += [(sl2_sl3, flagged) for flagged in ((0,), (1,), (0, 1))]
    counts = {"levels": 0, "none": 0, "offset": 0, "flagged": 0}
    for rd, flagged in cases:
        form = even_form(rd)
        for sign in (1, -1):
            for _ in range(2):
                c = sign * Fraction(rng.randint(1, 7), rng.randint(1, 6))
                lvl = level_from_config(rd, [[c * x for x in row] for row in form.matrix], flagged)
                for theta in [(Fraction(0),) * rd.rank] + [
                    tuple(Fraction(rng.randint(-11, 11), rng.randint(1, 12)) for _ in range(rd.rank)) for _ in range(3)
                ]:
                    got, expected = level_progressions(rd, lvl, theta), _fraction_progressions(rd, lvl, theta)
                    assert got == expected and list(got) == list(rd.coroots), (rd.name, lvl.gram, flagged, theta)
                    counts["levels"] += 1
                    counts["none"] += sum(p is None for p in got.values())
                    counts["offset"] += sum(p is not None and p[0] != 0 for p in got.values())
                    counts["flagged"] += sum(p == (0, 0) for p in got.values())
    assert counts["levels"] == 36 * 16 and counts["none"] >= 1000 and counts["offset"] >= 150 and counts["flagged"] >= 90, counts


def _fraction_character_action(g, form, chi):
    """chi_f o w^{-1} - c S(lam, -) mod 1 for g = t^lam w, in Fractions."""
    c, w_inv, shift = chi.central.as_fraction(), mat_inv(g.w), form.covector(g.trans)
    finite = [f.as_fraction() for f in chi.finite]
    values = [sum((f * w_inv[i][j] for i, f in enumerate(finite)), Fraction(0)) - c * s for j, s in enumerate(shift)]
    return CharacterPoint(chi.central, tuple(QmodZ.from_fraction(x) for x in values))


def test_extended_act_character_against_fraction_formula():
    # seeded t^lam w at seeded characters on every preset of rank <= 4; in
    # most cases the term c S(lam, -) is nonzero mod 1
    rng = random.Random(2507311)
    cases, translated = 0, 0
    for name, param in RANK_AT_MOST_FOUR:
        rd = preset(name, param)
        form, group = even_form(rd), weyl_elements(rd)
        for _ in range(12):
            central = QmodZ.from_fraction(Fraction(rng.randint(0, 11), rng.randint(1, 12)))
            chi = CharacterPoint(central, tuple(QmodZ(rng.randint(0, 23), rng.randint(1, 24)) for _ in range(rd.rank)))
            g = ExtendedWeylElement(tuple(rng.randint(-3, 3) for _ in range(rd.rank)), rng.choice(group))
            expected = _fraction_character_action(g, form, chi)
            assert extended_act_character(g, form, chi) == expected, (name, chi, g)
            cases += 1
            translated += expected != _fraction_character_action(ExtendedWeylElement.from_weyl(g.w), form, chi)
    assert cases == 33 * 12 and translated >= 150, (cases, translated)
