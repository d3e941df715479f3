import itertools

import pytest

from weylkit.affine import ExtendedWeylElement, extended_act_character, length_zero_group
from weylkit.exact import lattice_contains
from weylkit.integral import integral_length, integral_simple_system, minimal_rep


def _stabilizer_box(rd, form, chi, radius):
    """The elements t^lam w with t^lam w chi = chi and |lam|_inf <= radius:
    each stabilizer coset of the integral system met with the box of lam,
    sorted by (trans, w)."""
    stab = integral_simple_system(rd, form, chi).stabilizer
    box = itertools.product(range(-radius, radius + 1), repeat=rd.rank)
    out = [
        ExtendedWeylElement(lam, w) for lam in box for w, coset in stab
        if coset is not None and coset.contains(lam)
    ]
    return sorted(out, key=lambda g: (g.trans, g.w))


def _omega_against_box(rd, form, chi, radius):
    """Omega_chi from length_zero_group, checked against the box of radius:
    every box element fixes chi, and its minimal representative is an exact
    representative with the same Weyl part, up to the Omega lattice; every
    exact representative and lattice translation fixes chi and has integral
    length 0.  Returns (representatives, lattice, box)."""
    omega, lattice = length_zero_group(rd, integral_simple_system(rd, form, chi))
    box = _stabilizer_box(rd, form, chi, radius)
    for g in box:
        assert extended_act_character(g, form, chi) == chi, (rd.name, chi, g)
        m = minimal_rep(rd, form, chi, g)
        assert any(
            o.w == m.w and lattice_contains(lattice, tuple(a - b for a, b in zip(m.trans, o.trans))) for o in omega
        ), (rd.name, chi, g, m)
    for g in list(omega) + [ExtendedWeylElement.translation(lam) for lam in lattice]:
        assert extended_act_character(g, form, chi) == chi, (rd.name, chi, g)
        assert integral_length(rd, form, chi, g) == 0, (rd.name, chi, g)
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
