import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import exact
from weylkit.exact import (
    CosetZn,
    QmodZ,
    congruence_solver,
    det,
    hermite_normal_form,
    identity,
    mat_inv,
    mat_mul,
    mat_vec,
    rank,
    smith_normal_form,
    solve_linear,
    solve_integer_affine,
)


def brute_smith_diagonal(m):
    """Oracle: elementary row/column reduction without transform bookkeeping."""
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0])
    t = 0
    while t < min(rows, cols):
        if all(a[i][j] == 0 for i in range(t, rows) for j in range(t, cols)):
            break
        # move a minimal nonzero entry to the pivot
        i0, j0 = min(
            ((i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]),
            key=lambda ij: abs(a[ij[0]][ij[1]]),
        )
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        dirty = False
        for i in range(t + 1, rows):
            q = a[i][t] // a[t][t]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = a[t][j] // a[t][t]
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        bad = next(
            (i for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % a[t][t]),
            None,
        )
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return [a[i][i] for i in range(min(rows, cols))]


def test_qmodz_normalization():
    assert QmodZ(5, 3) == QmodZ(2, 3)
    assert QmodZ(-1, 4) == QmodZ(3, 4)
    assert QmodZ(4, 2) == QmodZ(0, 1)
    assert QmodZ(0, 7).den == 1
    assert QmodZ(-6, 4) == QmodZ(1, 2)
    assert QmodZ.parse("7/6").as_fraction() == Fraction(1, 6)
    assert QmodZ(1, 6).order() == 6
    assert (QmodZ(1, 2) + QmodZ(1, 2)).is_zero()
    assert QmodZ(1, 3).scale(3).is_zero()


def test_normal_forms_examples():
    _, d, _ = smith_normal_form([[2, 0], [0, 2]])
    assert [d[0][0], d[1][1]] == [2, 2]
    _, d, _ = smith_normal_form([[1, 0], [0, 1]])
    assert [d[0][0], d[1][1]] == [1, 1]
    _, d, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]


def dense_gauss_jordan(m):
    """Oracle: dense column-by-column Gauss-Jordan over Fraction with row
    swaps.  Returns (reduced rows, pivot columns, determinant as if square)."""
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    pivots, d = [], Fraction(1)
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            d = -d
        d *= a[r][c]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, d if len(pivots) == rows else Fraction(0)


def _random_entry(rng, fractions):
    if fractions and rng.random() < 0.5:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return rng.randint(-3, 3)


def test_elimination_wrappers_against_dense_gauss_jordan():
    rng = random.Random(2507)
    cases = []
    for trial in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[_random_entry(rng, trial % 2) for _ in range(cols)] for _ in range(rows)]
        if trial % 3 == 0 and rows > 1:  # singular: a row that depends on the others
            k = rng.randint(-2, 2)
            m[-1] = [x + k * y for x, y in zip(m[0], m[1 % (rows - 1)])]
        cases.append(m)
    for n in range(1, 6):  # permutation matrices: det is the sign
        for _ in range(4):
            perm = rng.sample(range(n), n)
            cases.append([[int(perm[i] == j) for j in range(n)] for i in range(n)])
    singular = inconsistent = 0
    for m in cases:
        rows, cols = len(m), len(m[0])
        reduced, pivots, d = dense_gauss_jordan(m)
        assert rank(m) == len(pivots), m
        b = [_random_entry(rng, True) for _ in range(rows)]
        aug, aug_pivots, _ = dense_gauss_jordan([row + [y] for row, y in zip(m, b)])
        x = solve_linear(m, b)
        if cols in aug_pivots:
            assert x is None, (m, b)
            inconsistent += 1
        else:
            truth = [Fraction(0)] * cols
            for r, c in enumerate(aug_pivots):
                truth[c] = aug[r][cols]
            assert x == tuple(truth) and all(type(y) is Fraction for y in x), (m, b)
        if rows != cols:
            continue
        assert det(m) == d and type(det(m)) is Fraction, m
        if len(pivots) < rows:
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                mat_inv(m)
            continue
        inv, _, _ = dense_gauss_jordan([row + list(e) for row, e in zip(m, identity(rows))])
        got = mat_inv(m)
        assert got == tuple(tuple(row[rows:]) for row in inv), m
        assert all(type(y) is Fraction for row in got for y in row), m
        assert mat_mul(tuple(map(tuple, m)), got) == identity(rows), m
    assert singular >= 10 and inconsistent >= 50, (singular, inconsistent)
    for n in range(1, 6):
        assert det(identity(n)) == 1 and det(identity(n)[::-1]) == (-1) ** (n * (n - 1) // 2)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_smith_properties(rows, cols, data):
    m = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)]
        for _ in range(rows)
    ]
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, tuple(map(tuple, m))), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0
    assert diag == brute_smith_diagonal(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_hermite_properties(rows, cols, data):
    m = [[data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    h, u = hermite_normal_form(m)
    assert mat_mul(u, tuple(map(tuple, m))) == h
    assert abs(det(u)) == 1
    # row-echelon with positive pivots, entries above pivots reduced
    last = -1
    for row in h:
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            continue
        assert nz > last
        last = nz
        assert row[nz] > 0


def test_solve_integer_affine_examples():
    assert solve_integer_affine([[2]], [1], [4]) is None
    sol = solve_integer_affine([[1]], [0], [1])
    assert sol.particular == (0,)
    assert sol.basis == ((1,),)
    sol = solve_integer_affine([[1]], [1], [2])
    assert sol.contains((1,))
    assert sol.contains((3,))
    assert not sol.contains((0,))
    assert sol.basis == ((2,),)


def exhaustive_solutions(a, b, moduli, box):
    """Residue-enumeration oracle over the box [-box, box]^n."""
    n = len(a[0])
    out = []
    from itertools import product

    for x in product(range(-box, box + 1), repeat=n):
        ok = True
        for row, bb, mm in zip(a, b, moduli):
            val = sum(Fraction(c) * xi for c, xi in zip(row, x)) - Fraction(bb)
            if mm == 0:
                if val != 0:
                    ok = False
                    break
            else:
                q = val / Fraction(mm)
                if q.denominator != 1:
                    ok = False
                    break
        if ok:
            out.append(x)
    return set(out)


def test_solver_agrees_with_residue_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 2)
        rows = rng.randint(1, 2)
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(rows)]
        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rows)]
        moduli = [Fraction(rng.randint(1, 12), rng.randint(1, 2)) for _ in range(rows)]
        sol = solve_integer_affine(a, b, moduli)
        truth = exhaustive_solutions(a, b, moduli, box=6)
        if sol is None:
            assert truth == set()
            continue
        from itertools import product as iproduct

        for x in iproduct(range(-6, 7), repeat=n):
            assert (x in truth) == sol.contains(x)
        # and the coset's own points satisfy the congruence
        pts = [sol.particular] + [
            tuple(p + q for p, q in zip(sol.particular, bvec)) for bvec in sol.basis
        ]
        for x in pts:
            for row, bb, mm in zip(a, b, moduli):
                val = sum(Fraction(c) * xi for c, xi in zip(row, x)) - Fraction(bb)
                if mm == 0:
                    assert val == 0
                else:
                    assert (val / Fraction(mm)).denominator == 1


def test_coset_membership_roundtrip():
    sol = solve_integer_affine([[2, 0], [0, 3]], [0, 0], [4, 1])
    # 2x = 0 mod 4 -> x even; y free
    assert sol.contains((2, 5))
    assert not sol.contains((1, 0))


def _solves(a, b, moduli, x):
    for row, bb, mm in zip(a, b, moduli):
        val = sum(Fraction(c) * xi for c, xi in zip(row, x)) - Fraction(bb)
        if (val != 0) if mm == 0 else (val / Fraction(mm)).denominator != 1:
            return False
    return True


def test_congruence_solver_with_new_denominators_in_b():
    # b's denominators (up to 7) occur in neither a (1, 2, 3) nor the moduli,
    # given as Fractions and as integer numerators over one denominator;
    # with positive moduli the solution set is periodic by the lcm of the
    # scaled moduli in every coordinate, so the box of one period holds a
    # solution iff there is one.  Exact rows only check the coset.
    from itertools import product

    rng = random.Random(2507170)
    found = missing = 0
    for trial in range(80):
        n, rows = rng.randint(1, 2), rng.randint(1, 3)
        exact_rows = trial % 4 == 3
        a = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(rows)]
        moduli = [Fraction(rng.randint(1, 3), rng.choice((1, 2, 3))) for _ in range(rows)]
        if exact_rows:
            moduli[0] = Fraction(0)
        solve = congruence_solver(a, moduli)
        scaled = []
        for row, mm in zip(a, moduli):
            scale = math.lcm(*(x.denominator for x in row), mm.denominator)
            scaled.append(int(mm * scale))
        period = math.lcm(*(m for m in scaled if m))
        for _ in range(6):
            b = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(rows)]
            sol = solve(b)
            (numerators,), den = exact._over_common_denominator(b)
            assert solve(numerators, den) == sol  # the integer path the rational b takes
            box = [x for x in product(range(period), repeat=n) if _solves(a, b, moduli, x)]
            if sol is None:
                assert box == [], (a, b, moduli)
                missing += 1
                continue
            found += 1
            assert all(sol.contains(x) for x in box), (a, b, moduli)
            assert _solves(a, b, moduli, sol.particular)
            for vec in sol.basis:
                assert _solves(a, [0] * rows, moduli, vec)
            if not exact_rows:
                assert box, (a, b, moduli)
            assert sol.basis == solve_integer_affine(a, [0] * rows, moduli).basis
    assert found >= 50 and missing >= 50


def test_vector_kernels_keep_exactness_and_raise_on_length_mismatch():
    # the map-based kernels against zip(strict=True) generator formulas: the
    # same values and types (int operands give int, a Fraction operand gives
    # a Fraction), and a length mismatch raises where map would truncate
    def ref_dot(a, b):
        return sum(x * y for x, y in zip(a, b, strict=True))

    rng = random.Random(2507181)
    for _ in range(200):
        n, m, k = rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4)
        entry = (lambda: rng.randint(-5, 5)) if rng.random() < 0.5 else (lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        a = tuple(tuple(entry() for _ in range(n)) for _ in range(m))
        b = tuple(tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(n))
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        expected = [ref_dot(row, v) for row in a]
        got = mat_vec(a, v)
        assert got == tuple(expected) and [type(x) for x in got] == [type(x) for x in expected]
        assert exact.dot(a[0], v) == expected[0] and type(exact.dot(a[0], v)) is type(expected[0])
        product = tuple(tuple(ref_dot(row, col) for col in zip(*b)) for row in a)
        got = mat_mul(a, b)
        assert got == product and [type(x) for r in got for x in r] == [type(x) for r in product for x in r]
    for call in (
        lambda: exact.dot((1, 2), (1, 2, 3)),
        lambda: exact.dot((1, 2, 3), (1, 2)),
        lambda: mat_vec(((1, 2),), (1, 2, 3)),
        lambda: mat_vec(((1, 2), (3,)), (1, 1)),
        lambda: mat_mul(((1, 2),), ((1,), (2,), (3,))),
        lambda: mat_mul(((1, 2), (1,)), ((1,), (2,))),
    ):
        with pytest.raises(exact.DimensionMismatch):
            call()
