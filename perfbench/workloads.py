"""The benchmark's workloads: seeded scenario lists of weylkit calls.

A scenario is one generated input set and the weylkit calls a workload makes
on it.  ``build(workload, seed)`` makes the list; it is the set-up of a pass
and touches none of weylkit's caches.  Every call of a scenario is an
``Op``: a thunk that makes the call, and a check of its output against
``checks``, which computes apart from weylkit.

The seed picks inputs only inside strata of equal work, so runs on different
seeds do the same work:

* ``blocks``: the character is a base character moved by a random element of
  the extended affine Weyl group (its integral system is isomorphic); the
  Bott-Samelson word alternates the two simple reflections of a pair with the
  largest Coxeter entry, the pair and its order picked by the seed.
* ``levels``: the level is picked from a set of levels of one root datum whose
  calls take the same time; iota_conjugation always runs at the stratum's
  first level, so that its outcome does not depend on the seed.
* ``soergel``: words and reflections are conjugated by a random diagonal sign
  matrix, which changes signs of coefficients and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

import checks
from weylkit.affine import CharacterPoint, ExtendedWeylElement, extended_act_character, gram_from_weights
from weylkit.duality import alcove_match, iota_conjugation, kappa_parabolic_match, level_from_config, level_integral_weyl
from weylkit.exact import QmodZ
from weylkit.hecke import bott_samelson_product
from weylkit.integral import integral_simple_system, minimal_rep
from weylkit.metaplectic import bullet_weyl_compare
from weylkit.rootdata import preset
from weylkit.soergel import graph_character_table, hilbert_end_bs


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], List[str]]


@dataclass
class Scenario:
    name: str
    ops: List[Op]
    # sizes read from outputs: Bott-Samelson support terms
    stats: dict


def build(workload: str, seed: int) -> List[Scenario]:
    rng = random.Random(f"{workload}:{seed}")
    return {"blocks": _blocks, "levels": _levels, "soergel": _soergel}[workload](rng)


# ---------------------------------------------------------------------------
# plain-data views of weylkit objects, for the checks


def _datum(rd):
    return {"roots": rd.roots, "coroots": rd.coroots, "simple": rd.simple_indices}


def _chi(chi):
    return chi.central.as_fraction(), tuple(x.as_fraction() for x in chi.finite)


def _elt(g):
    return tuple(g.trans), tuple(map(tuple, g.w))


def _random_weyl(rng, rd, steps):
    """A product of `steps` simple reflections picked by rng."""
    w = ExtendedWeylElement.unit(rd.rank)
    gens = rd.simple_reflections()
    for _ in range(steps):
        w = w * ExtendedWeylElement.from_weyl(rng.choice(gens))
    return w.w


def _random_element(rng, rd):
    lam = tuple(rng.randint(-1, 1) for _ in range(rd.rank))
    return ExtendedWeylElement(lam, _random_weyl(rng, rd, 3))


# ---------------------------------------------------------------------------
# blocks: the character side
#
# (preset, parameter, central value, finite part of the base character,
#  minimal_rep calls, Bott-Samelson word length, whether bullet_weyl_compare
#  runs).  The rank-4 stratum makes only integral_simple_system, which takes
#  about 1 s there.

BLOCK_STRATA = (
    ("SL", 3, "1/2", (0, 0), 2, 1, True),
    ("SL", 3, "1/3", ("1/3", 0), 2, 2, True),
    ("Sp", 4, "1/2", (0, 0), 2, 1, True),
    ("Sp", 4, "1/4", ("1/2", 0), 2, 1, True),
    ("G2", 2, "1/3", ("1/3", 0), 2, 1, True),
    ("G2", 2, "1/4", ("1/2", 0), 2, 1, True),
    ("SO_odd", 5, "1/4", ("1/2", 0), 2, 1, True),
    ("PGL", 3, "1/2", (0, 0), 2, 2, True),
    ("PGL", 3, "0", ("1/2", 0), 2, 1, True),
    ("SL", 4, "1/4", ("1/2", 0, 0), 1, 1, True),
    ("SL", 5, "0", ("1/2", 0, 0, 0), 0, 0, False),
)


def _blocks(rng) -> List[Scenario]:
    data = {}
    out = []
    for name, param, central, finite, n_min, word_len, bullet in BLOCK_STRATA:
        if (name, param) not in data:
            rd = preset(name, param)
            data[name, param] = rd, gram_from_weights(rd, rd.roots)
        rd, form = data[name, param]
        base = CharacterPoint(QmodZ.parse(central), tuple(QmodZ.parse(str(x)) for x in finite))
        chi = extended_act_character(_random_element(rng, rd), form, base)
        xs = [_random_element(rng, rd) for _ in range(n_min)]
        out.append(_block_scenario(rd, form, chi, xs, word_len, bullet, rng.random(), rng.random() < 0.5))
    return out


def _block_scenario(rd, form, chi, xs, word_len, bullet, pair_pick, swap) -> Scenario:
    datum, s_mat, c = _datum(rd), form.matrix, _chi(chi)
    stats = {"support_terms": 0}
    state = {}

    def system():
        state["system"] = integral_simple_system(rd, form, chi)
        return state["system"]

    def check_system(sys):
        return checks.simple_system_problems(datum, s_mat, c, [(ac.coroot, ac.n) for ac in sys.simples], sys.coxeter)

    def minimal(x):
        return lambda: minimal_rep(rd, form, chi, x)

    def check_minimal(x):
        return lambda m: checks.minimal_rep_problems(datum, s_mat, c, _elt(x), _elt(m))

    def bott_samelson():
        sys = state["system"]
        refl = sys.simple_reflections(rd)
        k = len(refl)
        top = max(_order_rank(sys.coxeter[i][j]) for i in range(k) for j in range(k) if i != j) if k > 1 else None
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if _order_rank(sys.coxeter[i][j]) == top]
        i, j = pairs[int(pair_pick * len(pairs))] if pairs else (0, 0)
        if swap:
            i, j = j, i
        letters = [(i, j)[p % 2] for p in range(word_len)]
        word = [("r", refl[k]) for k in letters]
        return letters, word, bott_samelson_product(rd, form, chi, word)

    def check_bott_samelson(result):
        letters, word, (_, table) = result
        stats["support_terms"] += len(table)
        simples = state["system"].simples
        own = [checks.affine_reflection(datum, simples[k].coroot, simples[k].n) for k in letters]
        if own != [_elt(r) for _, r in word]:
            return ["word letters are not the reflections of their simple affine coroots"]
        plain = {_elt(g): dict(p.coeffs) for g, p in table.items()}
        return checks.bott_samelson_problems(datum, s_mat, c, own, plain)

    def check_bullet(report):
        return [] if report["verified"] is True else [f"bullet comparison not verified: {report}"]

    ops = [Op("integral_simple_system", system, check_system)]
    ops += [Op("minimal_rep", minimal(x), check_minimal(x)) for x in xs]
    if bullet:
        ops.append(Op("bullet_weyl_compare", lambda: bullet_weyl_compare(rd, form, chi), check_bullet))
    if word_len:
        ops.append(Op("bott_samelson_product", bott_samelson, check_bott_samelson))
    return Scenario(f"{rd.name} c={chi.central}", ops, stats)


def _order_rank(m):
    return 10**6 if m == "infinite" else m


# ---------------------------------------------------------------------------
# levels: the level side
#
# (preset, parameter, levels of equal work as (form, scale), calls beside
# level_integral_weyl and kappa_parabolic_match); K is the sum over the roots
# of a (x) a, I the identity.  The first level is the one iota_conjugation
# runs at.  alcove_match takes 1-2.2 s on SL3, G2 and SO5, and
# iota_conjugation 0.5 s on Sp4, so they are left out there to keep a pass
# short (see the README).

LEVEL_STRATA = (
    ("SL", 2, (("K", 1), ("K", -1), ("K", Fraction(1, 2)), ("K", Fraction(-1, 2))), ("alcove", "iota")),
    ("SL", 2, (("K", Fraction(1, 3)), ("K", Fraction(-1, 3)), ("I", -1), ("I", Fraction(-1, 2))), ("alcove", "iota")),
    ("SL", 3, (("K", -1), ("K", Fraction(-1, 2)), ("K", Fraction(-1, 3))), ("iota",)),
    ("Sp", 4, (("K", 1), ("K", -1), ("K", Fraction(1, 2))), ("alcove",)),
    ("G2", 2, (("K", Fraction(1, 3)), ("K", Fraction(-1, 3))), ("iota",)),
    ("PGL", 3, (("K", Fraction(-1, 3)),), ("alcove", "iota")),
    ("SO_odd", 5, (("K", Fraction(-1, 3)), ("I", Fraction(-1, 2))), ("iota",)),
)


def _level(rd, kind, scale):
    base = gram_from_weights(rd, rd.roots).matrix if kind == "K" else [[int(i == j) for j in range(rd.rank)] for i in range(rd.rank)]
    return level_from_config(rd, [[scale * x for x in row] for row in base])


def _levels(rng) -> List[Scenario]:
    out = []
    for name, param, choices, calls in LEVEL_STRATA:
        rd = preset(name, param)
        lvl = _level(rd, *rng.choice(choices))
        iota_lvl = _level(rd, *choices[0])
        out.append(_level_scenario(rd, lvl, iota_lvl, calls))
    return out


def _level_scenario(rd, lvl, iota_lvl, calls) -> Scenario:
    datum = _datum(rd)
    theta = tuple(Fraction(0) for _ in range(rd.rank))
    kappa, iota_kappa = lvl.gram, iota_lvl.gram

    def walls(ws):
        return [(w.coroot, w.n) for w in ws]

    def check_system(sys):
        return checks.level_system_problems(datum, walls(sys.simples), sys.coxeter)

    def check_match(m):
        plain = {
            "y": _elt(m.y),
            "g_base": m.g_system.base_point,
            "h_base": m.h_system.base_point,
            "g_simples": walls(m.g_system.simples),
            "h_simples": walls(m.h_system.simples),
            "g_coxeter": m.g_system.coxeter,
            "h_coxeter": m.h_system.coxeter,
            "bijection": [((a.coroot, a.n), (b.coroot, b.n)) for a, b in m.simple_bijection],
        }
        return checks.alcove_match_problems(datum, kappa, theta, plain)

    def check_iota(report):
        plain = dict(report, linear=report["iota"].linear, offset=report["iota"].offset)
        return checks.iota_problems(iota_kappa, theta, plain)

    ops = [Op("level_integral_weyl", lambda: level_integral_weyl(rd, lvl, theta), check_system)]
    if "alcove" in calls:
        ops.append(Op("alcove_match", lambda: alcove_match(rd, lvl, theta), check_match))
    if "iota" in calls:
        ops.append(Op("iota_conjugation", lambda: iota_conjugation(rd, iota_lvl, theta), check_iota))
    ops.append(Op("kappa_parabolic_match", lambda: kappa_parabolic_match(rd, lvl), lambda m: checks.parabolic_match_problems(datum, kappa, m)))
    return Scenario(f"{rd.name} kappa={_level_name(rd, lvl)}", ops, {})


def _level_name(rd, lvl):
    return ",".join(str(x) for row in lvl.gram for x in row)


# ---------------------------------------------------------------------------
# soergel: graph characters and End(B_s)
#
# ("word", preset, parameter, letters as simple-reflection indices) and
# ("end", preset, parameter, simple-reflection index, depth)

SOERGEL_STRATA = (
    ("word", "SL", 3, (0, 1)),
    ("word", "SL", 3, (1, 0)),
    ("word", "Sp", 4, (0, 1)),
    ("word", "Sp", 4, (1, 0)),
    ("word", "G2", 2, (0, 1)),
    ("word", "G2", 2, (1, 0)),
    ("end", "SL", 2, 0, 6),
    ("end", "SL", 2, 0, 8),
    ("end", "SL", 3, 0, 5),
    ("end", "SL", 3, 0, 7),
    ("end", "Sp", 4, 1, 6),
    ("end", "G2", 2, 0, 6),
    ("end", "SL", 4, 0, 4),
)


def _sign_conjugate(rng, mats):
    n = len(mats[0])
    d = [rng.choice((1, -1)) for _ in range(n)]
    return [tuple(tuple(d[i] * m[i][j] * d[j] for j in range(n)) for i in range(n)) for m in mats]


def _soergel(rng) -> List[Scenario]:
    out = []
    for kind, name, param, *rest in SOERGEL_STRATA:
        rd = preset(name, param)
        simples = rd.simple_reflections()
        if kind == "word":
            word = _sign_conjugate(rng, [simples[i] for i in rest[0]])
            out.append(_word_scenario(f"{rd.name} word {rest[0]}", word))
        else:
            (m,) = _sign_conjugate(rng, [simples[rest[0]]])
            out.append(_end_scenario(f"{rd.name} End(B_s) depth {rest[1]}", m, rest[1]))
    return out


def _word_scenario(name, word) -> Scenario:
    def check(table):
        plain = {w: dict(p.coeffs) for w, p in table.items()}
        return checks.graph_character_problems(word, plain)

    return Scenario(name, [Op("graph_character_table", lambda: graph_character_table(word), check)], {})


def _end_scenario(name, m, depth) -> Scenario:
    n = len(m)
    op = Op("hilbert_end_bs", lambda: hilbert_end_bs(m, depth), lambda r: checks.end_bs_problems(n, depth, r))
    return Scenario(name, [op], {})
