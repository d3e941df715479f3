import ast
import random
import re
from fractions import Fraction

import pytest

from conftest import even_form, value_on
from weylkit import metaplectic
from weylkit.exact import QmodZ, identity, mat_vec, rank as mat_rank, solve_integer_affine, solve_linear, vec_scale
from weylkit.affine import (
    CharacterPoint,
    ExtendedWeylElement,
    character_from_config,
    gram_from_matrix,
    gram_from_weights,
)
from weylkit.integral import integral_simple_system
from weylkit.metaplectic import (
    NoCommonFrame,
    ValidationFailed,
    bullet_weyl_compare,
    endoscopic_lattice,
    endoscopic_root_datum,
    rescale_factor,
)
from weylkit.rootdata import RootDatum, group_closure, is_isomorphic, preset, validate_root_datum, weyl_elements


def sp_form(n):
    rd = preset("Sp", 2 * n)
    weights = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    weights += [tuple(-x for x in w) for w in weights]
    return rd, gram_from_weights(rd, weights)


def test_endoscopic_lattice_examples():
    rd = preset("SL", 2)
    form = gram_from_weights(rd, [(1,), (-1,)])
    assert endoscopic_lattice(rd, form, QmodZ(0, 1)) == ((1,),)
    assert endoscopic_lattice(rd, form, QmodZ(1, 2)) == ((1,),)
    rd4, form4 = sp_form(2)
    assert endoscopic_lattice(rd4, form4, QmodZ(1, 2)) == ((1, 0), (0, 1))


def test_rescale_factors_sp4():
    rd, form = sp_form(2)
    c = QmodZ(1, 2)
    assert rescale_factor(rd, form, c, (1, 0)) == 2
    assert rescale_factor(rd, form, c, (0, 1)) == 2
    assert rescale_factor(rd, form, c, (1, -1)) == 1
    assert rescale_factor(rd, form, c, (1, 1)) == 1
    for cv in rd.coroots:
        assert rescale_factor(rd, form, QmodZ(0, 1), cv) == 1


def test_rescale_weyl_invariance():
    rd, form = sp_form(2)
    c = QmodZ(1, 4)
    from weylkit.exact import mat_vec
    from weylkit.rootdata import weyl_elements

    for w in weyl_elements(rd):
        for cv in rd.coroots:
            assert rescale_factor(rd, form, c, cv) == rescale_factor(
                rd, form, c, tuple(mat_vec(w, cv))
            )


def _closed_form_rescale(rd, form, c):
    """The two-case closed form for almost simple types (epsilon from the
    squared-length ratio, N the order of c^{Q(short)})."""
    qs = {form.pair(cv, cv) for cv in rd.coroots}
    eps = max(qs) // min(qs)
    assert eps in (1, 2, 3), "not an almost simple length pattern"
    n_ord = c.scale(min(qs) // 2).order()
    out = {}
    for cv in rd.coroots:
        is_short = form.pair(cv, cv) == min(qs)
        out[tuple(cv)] = n_ord if n_ord % eps != 0 or eps == 1 or is_short else n_ord // eps
    return out


def test_closed_form_matches_progressions_sp4_and_g2():
    rd, form = sp_form(2)
    for den in (1, 2, 3, 4, 6):
        c = QmodZ(1, den)
        closed = _closed_form_rescale(rd, form, c)
        for cv in rd.coroots:
            assert rescale_factor(rd, form, c, cv) == closed[tuple(cv)], (den, cv)
    g2 = preset("G2", 2)
    # basic-like form: any W-invariant even form; use the Gram of the
    # 7-dimensional-representation-style normalization via short roots
    from weylkit.affine import gram_from_weights as gfw

    form_g2 = gfw(g2, g2.roots)  # adjoint weights are W-stable and even
    for den in (1, 2, 3, 4, 6):
        c = QmodZ(1, den)
        closed = _closed_form_rescale(g2, form_g2, c)
        for cv in g2.coroots:
            assert rescale_factor(g2, form_g2, c, cv) == closed[tuple(cv)], (den, cv)


def test_endoscopic_sl2_order2_is_pgl2():
    rd = preset("SL", 2)
    form = gram_from_weights(rd, [(1,), (-1,)])
    endo = endoscopic_root_datum(rd, form, QmodZ(1, 2))
    assert validate_root_datum(endo.rd_h) == []
    assert is_isomorphic(endo.rd_h, preset("PGL", 2))
    assert is_isomorphic(endo.rd_h_dual, preset("SL", 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_endoscopic_sp2n_order2_is_so_odd(n):
    rd, form = sp_form(n)
    endo = endoscopic_root_datum(rd, form, QmodZ(1, 2))
    assert validate_root_datum(endo.rd_h) == []
    assert is_isomorphic(endo.rd_h, preset("SO_odd", 2 * n + 1))
    assert is_isomorphic(endo.rd_h_dual, preset("Sp", 2 * n))


def test_trivial_center_returns_same_datum():
    for name, n in [("SL", 2), ("SL", 3), ("Sp", 4), ("PGL", 2), ("PSp", 6)]:
        rd = preset(name, n)
        if name == "PGL":
            form = gram_from_matrix(rd, [[2]])
        elif name == "PSp":
            form = gram_from_weights(rd, rd.roots)
        elif name == "SL" and n == 3:
            form = gram_from_weights(rd, rd.roots)
        elif name == "SL":
            form = gram_from_weights(rd, [(1,), (-1,)])
        else:
            form = gram_from_weights(rd, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        endo = endoscopic_root_datum(rd, form, QmodZ(0, 1))
        assert is_isomorphic(endo.rd_h, rd)


def test_pairing_two_on_output():
    rd, form = sp_form(3)
    endo = endoscopic_root_datum(rd, form, QmodZ(1, 2))
    from weylkit.exact import dot

    for a, cv in zip(endo.rd_h.roots, endo.rd_h.coroots):
        assert dot(cv, a) == 2


def test_bullet_compare_trivial_finite_part():
    rd, form = sp_form(2)
    chi = character_from_config(rd, "1/2", ["0", "0"])
    report = bullet_weyl_compare(rd, form, chi)
    assert report["verified"]
    assert report["termwise_conjugation"]
    assert report["mu"] == (Fraction(0), Fraction(0))
    assert report["g_bullet_is_full"] and report["h_bullet_is_full"]


def test_bullet_compare_sl2_vs_pgl2():
    rd = preset("SL", 2)
    form = gram_from_weights(rd, [(1,), (-1,)])
    chi = character_from_config(rd, "1/2", ["0"])
    report = bullet_weyl_compare(rd, form, chi)
    assert report["verified"]
    assert is_isomorphic(report["endoscopic"].rd_h, preset("PGL", 2))


def test_bullet_compare_psp6_flags_incomplete():
    rd = preset("PSp", 6)
    form = gram_from_weights(rd, rd.roots)
    chi = character_from_config(rd, "1/8", ["1/3", "1/5", "1/4"], basis="simple_roots")
    report = bullet_weyl_compare(rd, form, chi)
    # S_chi is empty, so the conjugation content is vacuous but the report
    # must still be coherent and the example is the obstruction witness for
    # nonconnected centers: H = Sp6 here
    assert is_isomorphic(report["endoscopic"].rd_h, preset("Sp", 6))
    assert report["verified"]


def test_bullet_compare_nontrivial_finite_part():
    rd, form = sp_form(2)
    chi = character_from_config(rd, "1/2", ["1/2", "0"])
    report = bullet_weyl_compare(rd, form, chi)
    assert report["termwise_conjugation"]
    assert report["lattice_match"]
    assert report["direction_match"]


RANK_AT_MOST_TWO = [("SL", 2), ("SL", 3), ("PGL", 2), ("PGL", 3), ("GL", 2), ("Sp", 2), ("Sp", 4), ("PSp", 4),
                    ("SO_odd", 5), ("Spin_odd", 5), ("SO_even", 4), ("G2", 2)]


def _five_point_termwise(rd, mu, families, rescale):
    """The window j in {-2, ..., 2} of tau g_j tau^{-1} = h_j, with
    g_j = t^{(i0 + j N) alpha} s_alpha and h_j = t^{j N alpha} s_alpha for N
    the rescale of alpha: the reference."""
    tau = ExtendedWeylElement(mu, identity(rd.rank))
    tau_inv = tau.inverse()
    ok = True
    for cv, i0 in families:
        refl, nfac = rd.reflection(rd.coroots.index(cv)), rescale[cv]
        for j in (-2, -1, 0, 1, 2):
            g = ExtendedWeylElement(vec_scale(cv, i0 + j * nfac), refl)
            ok &= tau * g * tau_inv == ExtendedWeylElement(vec_scale(cv, j * nfac), refl)
    return ok


def test_termwise_check_against_five_point_window(monkeypatch):
    # the one-point test against the old window, on the families and mu of
    # every rank <= 2 preset at c in {1/2, 1/3, 1/4}, and on the same inputs
    # with mu or a minimal level i0 moved, where the identity can fail
    rng = random.Random(2507183)
    calls = []
    original = metaplectic._termwise_conjugation

    def recorded(rd, mu, families):
        calls.append((rd, mu, families))
        return original(rd, mu, families)

    monkeypatch.setattr(metaplectic, "_termwise_conjugation", recorded)
    for name, n in RANK_AT_MOST_TWO:
        rd = preset(name, n)
        form = even_form(rd)
        for c in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
            for _ in range(2):
                chi = CharacterPoint(QmodZ.from_fraction(c), tuple(QmodZ(rng.randint(0, 11), 12) for _ in range(rd.rank)))
                report = bullet_weyl_compare(rd, form, chi)
                calls[-1] += (dict(report["endoscopic"].rescale),)
                assert report["termwise_conjugation"] == _five_point_termwise(*calls[-1]), (name, c, chi)
    outcomes = []
    for rd, mu, families, rescale in calls:
        if not families:
            continue
        cases = [(rd, mu, families)]
        for _ in range(4):
            moved_mu = tuple(x + Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for x in mu)
            k = rng.randrange(len(families))
            moved = [(cv, i0 + rng.choice((-1, 1)) * (i == k)) for i, (cv, i0) in enumerate(families)]
            cases += [(rd, moved_mu, families), (rd, mu, moved)]
        for args in cases:
            outcomes.append(original(*args))
            assert outcomes[-1] == _five_point_termwise(*args, rescale), args
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 90, (outcomes.count(True), outcomes.count(False))


def test_rescale_factor_against_central_progressions():
    # the closed form against the denominator read off the progression of
    # central levels, on every rank <= 2 preset and SL4 and central values
    # of both signs; with a seeded finite part too, as bullet_weyl_compare
    # takes the level step of every integral direction for its rescale
    rng = random.Random(2507361)
    steps = 0
    for name, n in RANK_AT_MOST_TWO + [("SL", 4)]:
        rd = preset(name, n)
        form = even_form(rd)
        for c in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(-3, 4), Fraction(5, 12)):
            c = QmodZ.from_fraction(c)
            chi = CharacterPoint(c, tuple(QmodZ(0, 1) for _ in range(rd.rank)))
            for cv, p in integral_simple_system(rd, form, chi).progressions:
                assert p[0] == 0 and rescale_factor(rd, form, c, cv) == (p[1] or 1), (name, c, cv)
            for d in (2, 12):
                chi = CharacterPoint(c, tuple(QmodZ(rng.randrange(d), d) for _ in range(rd.rank)))
                for cv, p in integral_simple_system(rd, form, chi).progressions:
                    if p is not None:
                        assert p[1] == rescale_factor(rd, form, c, cv), (name, chi, cv)
                        steps += 1
    assert steps >= 300, steps


def _closure_bullet_is_full(rd, stab, directions):
    """The admitting Weyl parts inside the enumerated group of the integral
    reflections: the reference for the bullet-is-full flag."""
    generated = group_closure([rd.reflection(rd.coroots.index(cv)) for cv in directions], rd.rank)
    return set(stab) <= set(generated)


def _closure_h_criterion(endo, chi):
    """The stabilizer of theta in W(H), in Fractions, against the enumerated
    group of the reflections it contains: the reference for the H flag."""
    rd_h = endo.rd_h
    theta = [value_on(chi, tuple(int(x) for x in row)).as_fraction() for row in endo.cochar_basis]
    n = rd_h.rank
    group = weyl_elements(rd_h)
    stabilizing = {
        w for w in group
        if all((sum(theta[j] * group.inverse[w][j][i] for j in range(n)) - theta[i]).denominator == 1 for i in range(n))
    }
    reflections = [m for m in map(rd_h.reflection, range(len(rd_h.roots))) if m in stabilizing]
    return stabilizing == set(group_closure(reflections, n))


def test_bullet_criteria_against_group_closure():
    # both bullet-is-full flags against the enumerated reflection subgroups
    # they replaced, on every rank <= 2 preset and SL4 and Sp6, at six central
    # values, with one seeded finite part per denominator 1..12
    rng = random.Random(2507201)
    negatives, cases = {"g": 0, "h": 0}, 0
    for name, n in RANK_AT_MOST_TWO + [("SL", 4), ("Sp", 6)]:
        rd = preset(name, n)
        form = even_form(rd)
        for c in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(2, 3)):
            for d in range(1, 13):
                chi = CharacterPoint(QmodZ.from_fraction(c), tuple(QmodZ(rng.randrange(d), d) for _ in range(rd.rank)))
                report = bullet_weyl_compare(rd, form, chi)
                system = integral_simple_system(rd, form, chi)
                stab = dict(system.stabilizer)
                directions = [cv for cv, p in system.progressions if p is not None]
                # the positive indecomposable directions are a simple system:
                # independent, with every positive direction a nonnegative
                # integer combination of them
                positive = [cv for cv in directions if rd.is_positive_coroot(cv)]
                simples = sorted(metaplectic._indecomposable(positive))
                assert mat_rank(simples) == len(simples), (name, chi)
                for cv in positive:
                    coords = solve_linear(tuple(zip(*simples)), cv)
                    assert all(x.denominator == 1 and x >= 0 for x in coords), (name, chi, cv)
                g_full = _closure_bullet_is_full(rd, stab, directions)
                h_full = _closure_h_criterion(report["endoscopic"], chi)
                assert report["g_bullet_is_full"] == g_full, (name, chi)
                assert report["h_bullet_is_full"] == h_full, (name, chi)
                negatives["g"] += not g_full
                negatives["h"] += not h_full
                cases += 1
    assert cases == 1008 and 60 <= negatives["g"] < cases and 15 <= negatives["h"] < cases, (cases, negatives)


CENTRAL_VALUES = (0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4), Fraction(1, 5),
                  Fraction(1, 6), Fraction(5, 6), Fraction(1, 8), Fraction(1, 12))


def _stabilizer_on(rd, basis, chi):
    """The w in W with chi_f(w^{-1} b) = chi_f(b) (mod 1) on each row b of
    basis, in Fractions: on H's lattice, the stabilizer of chi_f in W(H)."""
    group = weyl_elements(rd)
    return {
        w for w in group
        if all((value_on(chi, mat_vec(group.inverse[w], b)) - value_on(chi, b)).is_zero() for b in basis)
    }


def test_h_stabilizer_is_the_admissible_weyl_parts():
    # the stabilizer of chi_f in W(H), read off H's lattice, against the
    # admissible Weyl parts of the chi-stabilizer, which the H flag reads: on
    # 17 presets at eleven central values, chi_f zero, in twelfths, and in
    # twice the denominator of c.  H's lattice matters: in the cases counted
    # as finer, fewer w fix chi_f on all of Z^n
    rng = random.Random(2507252)
    cases, proper, finer = 0, 0, 0
    for name, n in [("SL", 2), ("SL", 3), ("SL", 4), ("SL", 5), ("PGL", 2), ("PGL", 3), ("Sp", 4), ("Sp", 6), ("PSp", 4),
                    ("PSp", 6), ("GL", 2), ("G2", 2), ("SO_odd", 5), ("SO_odd", 7), ("Spin_odd", 5), ("SO_even", 6), ("SO_even", 8)]:
        rd = preset(name, n)
        form = even_form(rd)
        unit = identity(rd.rank)
        for c in CENTRAL_VALUES:
            cq = QmodZ.from_fraction(c)
            basis = endoscopic_lattice(rd, form, cq)
            assert len(basis) == rd.rank, (name, c)
            for d in (1, 12, 2 * cq.den):
                chi = CharacterPoint(cq, tuple(QmodZ(rng.randrange(d), d) for _ in range(rd.rank)))
                admissible = {w for w, _ in integral_simple_system(rd, form, chi).stabilizer}
                assert admissible == _stabilizer_on(rd, basis, chi), (name, c, chi)
                cases += 1
                proper += len(admissible) < len(weyl_elements(rd))
                finer += admissible != _stabilizer_on(rd, unit, chi)
    assert cases == 561 and proper >= 300 and finer >= 90, (cases, proper, finer)


def test_endoscopic_simples_are_the_indecomposable_positive_roots():
    # H takes G's simple indices: its positive system is G's, and its simple
    # roots are exactly its positive roots that are not a sum of two positive
    # roots, computed here, on 17 presets at eleven central values
    cases = 0
    for name, n in RANK_AT_MOST_TWO + [("SL", 4), ("SL", 5), ("Sp", 6), ("SO_odd", 7), ("SO_even", 8)]:
        rd = preset(name, n)
        form = even_form(rd)
        pos = set(rd.positive_root_indices())
        for c in CENTRAL_VALUES:
            rd_h = endoscopic_root_datum(rd, form, QmodZ.from_fraction(c)).rd_h
            assert set(rd_h.positive_root_indices()) == pos, (name, c)
            positives = {rd_h.roots[i] for i in pos}
            sums = {tuple(x + y for x, y in zip(a, b)) for a in positives for b in positives}
            assert {rd_h.roots[i] for i in rd_h.simple_indices} == positives - sums, (name, c)
            cases += 1
    assert cases == 187


def test_endoscopic_datum_rejects_a_wrong_rescale(monkeypatch):
    # with N = 1 where the true N > 1, the coroot itself is not in the
    # endoscopic lattice; with 2N, the rescaled coroot is, but the root
    # divided by 2N is not integral on the lattice.  Each raise names the
    # target or the coroot
    true_rescale, cases = metaplectic.rescale_factor, 0
    for name, n, c in [("SL", 3, "1/4"), ("Sp", 4, "1/5"), ("G2", 2, "1/3"), ("PSp", 4, "1/4"), ("SO_odd", 5, "1/4")]:
        rd, c = preset(name, n), QmodZ.parse(c)
        form = even_form(rd)
        lattice = endoscopic_lattice(rd, form, c)
        endoscopic_root_datum(rd, form, c)  # the true N pass both checks
        assert max(true_rescale(rd, form, c, cv) for cv in rd.coroots) > 1
        for patch, pattern in ((lambda *args: 1, r"rescaled coroot (\(.*\)) is not in the endoscopic lattice"),
                               (lambda *args: 2 * true_rescale(*args), r"rescaled root for (\(.*\)) is not integral on the lattice")):
            monkeypatch.setattr(metaplectic, "rescale_factor", patch)
            with pytest.raises(ValidationFailed, match=pattern) as failure:
                endoscopic_root_datum(rd, form, c)
            monkeypatch.undo()
            named = ast.literal_eval(re.search(pattern, str(failure.value)).group(1))
            assert named in rd.coroots, (name, c, failure.value)
            if patch(rd, form, c, named) == 1:  # the target is the coroot: outside the lattice
                assert solve_integer_affine(list(zip(*lattice)), list(named), [0] * rd.rank) is None, (name, c, named)
            cases += 1
    assert cases == 10


def test_bullet_compare_and_endoscopic_datum_checks(monkeypatch):
    # a character of the wrong rank is named; an H built on one simple root
    # too few leaves roots outside the span of its simples, and the
    # validation of H names H and the root
    rd, form = sp_form(2)
    chi = CharacterPoint(QmodZ(1, 2), (QmodZ(0, 1),))
    with pytest.raises(NoCommonFrame, match=re.escape(f"character {chi} has 1 finite values for the rank 2")):
        bullet_weyl_compare(rd, form, chi)
    monkeypatch.setattr(metaplectic, "RootDatum",
                        lambda rank, roots, coroots, simple, *rest, **named: RootDatum(rank, roots, coroots, simple[:1], *rest, **named))
    with pytest.raises(ValidationFailed, match=r"H\(Sp4,c=1/2\) is not a root datum: root \(.*\) outside the span of the simple roots"):
        endoscopic_root_datum(rd, form, QmodZ(1, 2))
