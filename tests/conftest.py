import itertools
import math
from fractions import Fraction

import pytest

from weylkit.affine import ExtendedWeylElement, extended_act_character, length_zero_group
from weylkit.exact import dot, lattice_contains
from weylkit.integral import integral_simple_system, minimal_rep


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


def _affine_coroot_label(rd, ac):
    """(positive direction, m) with the reflection of ac equal to t^{-m dir} s_dir."""
    if rd.is_positive_coroot(ac.coroot):
        return tuple(ac.coroot), -ac.n
    return tuple(-x for x in ac.coroot), ac.n


@pytest.fixture
def affine_coroot_label():
    return _affine_coroot_label


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
