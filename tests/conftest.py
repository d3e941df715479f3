import itertools
import math
from fractions import Fraction

import pytest

from weylkit.affine import ExtendedWeylElement, NotPositiveDefinite, extended_act_character, gram_from_weights, length_zero_group
from weylkit.exact import (
    CosetZn,
    QmodZ,
    dot,
    identity,
    lattice_basis_from_generators,
    lattice_contains,
    mat_vec,
    solve_integer_affine,
    vec_add,
    vec_scale,
)
from weylkit.integral import integral_simple_system, minimal_rep

# every preset of rank <= 4, G2, PSp, Spin, SO_even, GL and a torus among them
RANK_AT_MOST_FOUR = [(name, param) for name, params in (("SL", (2, 3, 4, 5)), ("PGL", (2, 3, 4, 5)), ("GL", (1, 2, 3, 4)),
                                                        ("Sp", (2, 4, 6, 8)), ("PSp", (2, 4, 6, 8)), ("SO_odd", (3, 5, 7, 9)),
                                                        ("Spin_odd", (3, 5, 7, 9)), ("SO_even", (4, 6, 8)), ("G2", (2,)),
                                                        ("torus", (2,))) for param in params]


def even_form(rd):
    """The form of the roots, or of +-e_i where the roots do not span (GL, tori)."""
    try:
        return gram_from_weights(rd, rd.roots)
    except NotPositiveDefinite:
        return gram_from_weights(rd, [tuple(s * int(i == j) for j in range(rd.rank)) for i in range(rd.rank) for s in (1, -1)])


def progression(step, value):
    """{n : value + n step in Z} for rationals step and value, in Fractions:
    None, or (i, d) for i + dZ.  The reference for the integer progressions."""
    step, value = Fraction(step), Fraction(value)
    den = math.lcm(step.denominator, value.denominator)
    a = step.numerator * (den // step.denominator)
    b = -value.numerator * (den // value.denominator)
    g = math.gcd(a, den)  # a n = b (mod den)
    if b % g:
        return None
    d = den // g
    return (b // g * pow(a // g, -1, d) % d, d)


def value_on(chi, v):
    """chi_f(v) in Q/Z for a cocharacter v."""
    d = math.lcm(*(c.den for c in chi.finite))
    return QmodZ(dot([c.num * (d // c.den) for c in chi.finite], v), d)


def _fraction_walls_between(rd, form, progressions, x, y):
    """Per coroot pair, (alpha, lowest level, count) of the integral walls
    strictly between the slice points x and y, in Fractions."""
    out = []
    for cv in rd.coroots:
        if cv < tuple(-v for v in cv):
            continue
        p = progressions.get(cv)
        if p is None:
            continue
        q = form.q(cv)
        a, b = sorted((-Fraction(dot(x, cv)) / q, -Fraction(dot(y, cv)) / q))
        lo, hi = math.floor(a) + 1, math.ceil(b) - 1
        i, d = p
        first = (i if i >= lo else None) if d == 0 else i + math.ceil(Fraction(lo - i, d)) * d
        if first is not None and first <= hi:
            out.append((cv, first, 1 if d == 0 else (hi - first) // d + 1))
    return out


def _reference_length(rd, system, g):
    """The length of g = t^lam w in system: the integral walls between the
    base point x0 and g^{-1} x0 = (x0 + S(lam, -)) o w, counted in Fractions."""
    form, x0, n = system.form, system.base_point, rd.rank
    shifted = [Fraction(a) + b for a, b in zip(x0, form.covector(g.trans))]
    p = tuple(sum((shifted[i] * g.w[i][j] for i in range(n)), Fraction(0)) for j in range(n))
    return sum(count for _, _, count in _fraction_walls_between(rd, form, dict(system.progressions), x0, p))


def _stabilizer_box(rd, form, chi, radius):
    """The elements t^lam w with t^lam w chi = chi and |lam|_inf <= radius:
    each stabilizer coset of the integral system met with the box of lam,
    sorted by (trans, w)."""
    stab = integral_simple_system(rd, form, chi).stabilizer
    box = itertools.product(range(-radius, radius + 1), repeat=rd.rank)
    out = [ExtendedWeylElement(lam, w) for lam in box for w, coset in stab if coset.contains(lam)]
    return sorted(out, key=lambda g: (g.trans, g.w))


def _omega_against_box(rd, form, chi, radius):
    """Omega_chi from length_zero_group, checked against the box of radius:
    every box element fixes chi, and its minimal representative is an exact
    representative with the same Weyl part, up to the Omega lattice; every
    exact representative and lattice translation fixes chi and has integral
    length 0.  Returns (representatives, lattice, box)."""
    system = integral_simple_system(rd, form, chi)
    omega, lattice = length_zero_group(rd, system)
    box = _stabilizer_box(rd, form, chi, radius)
    for g in box:
        assert extended_act_character(g, form, chi) == chi, (rd.name, chi, g)
        m = minimal_rep(rd, form, chi, g)
        assert any(
            o.w == m.w and lattice_contains(lattice, tuple(a - b for a, b in zip(m.trans, o.trans))) for o in omega
        ), (rd.name, chi, g, m)
    for g in list(omega) + [ExtendedWeylElement.translation(lam) for lam in lattice]:
        assert extended_act_character(g, form, chi) == chi, (rd.name, chi, g)
        assert _reference_length(rd, system, g) == 0, (rd.name, chi, g)
    return omega, lattice, box


def _reference_length_zero_group(rd, system):
    """Omega of system with one exact solve per Weyl element: the equations
    of w are indexed by the source facet c, the row S(w c, -) on the basis
    of w's coset, and the translation lattice is the last solve's kernel.
    The reference for length_zero_group, which shares one solver."""
    form = system.form
    facets = {ac.coroot: ac.n * form.q(ac.coroot) for ac in system.simples}
    elements = []
    for w, coset in system.stabilizer:
        rows, rhs = [], []
        for c, b in facets.items():
            wc = tuple(mat_vec(w, c))
            if wc not in facets:
                break
            row = form.covector(wc)
            rows.append([dot(row, e) for e in coset.basis])
            rhs.append(facets[wc] - b - dot(row, coset.particular))
        else:
            if rows:
                sol = solve_integer_affine(rows, rhs, [0] * len(rows))
            else:  # no walls: the whole coset fixes the alcove
                sol = CosetZn((0,) * len(coset.basis), identity(len(coset.basis)))
            if sol is None:
                continue
            lam = coset.particular
            for k, e in zip(sol.particular, coset.basis):
                lam = vec_add(lam, vec_scale(e, k))
            elements.append(ExtendedWeylElement(tuple(lam), w))
            kernel = sol.basis
    lattice = lattice_basis_from_generators([tuple(dot(ks, col) for col in zip(*system.translation_lattice)) for ks in kernel])
    return tuple(sorted(elements, key=lambda g: (g.trans, g.w))), lattice


def _affine_coroot_label(rd, ac):
    """(positive direction, m) with the reflection of ac equal to t^{-m dir} s_dir."""
    if rd.is_positive_coroot(ac.coroot):
        return tuple(ac.coroot), -ac.n
    return tuple(-x for x in ac.coroot), ac.n


@pytest.fixture
def affine_coroot_label():
    return _affine_coroot_label


@pytest.fixture
def reference_length_zero_group():
    return _reference_length_zero_group


@pytest.fixture
def stabilizer_box():
    return _stabilizer_box


@pytest.fixture
def omega_against_box():
    return _omega_against_box


@pytest.fixture
def fraction_walls_between():
    return _fraction_walls_between


@pytest.fixture
def reference_length():
    return _reference_length
