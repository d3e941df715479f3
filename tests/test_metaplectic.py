from fractions import Fraction

import pytest

from weylkit.exact import QmodZ
from weylkit.affine import CharacterPoint, character_from_config, gram_from_matrix, gram_from_weights
from weylkit.integral import integral_progression
from weylkit.metaplectic import (
    ValidationFailed,
    bullet_weyl_compare,
    endoscopic_lattice,
    endoscopic_root_datum,
    rescale_factor,
)
from weylkit.rootdata import is_isomorphic, langlands_dual, preset, validate_root_datum


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
