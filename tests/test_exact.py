import importlib
import itertools
import math
import pathlib
import random
import re
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
    lattice_basis_from_generators,
    lattice_contains,
    rank,
    solve_linear,
    solve_integer_affine,
    transpose,
)


# ---------------------------------------------------------------------------
# reference: the Smith-form congruence solver the package used before it
# solved congruences on the Hermite form


def smith_normal_form(m):
    """Returns (u, d, v) with u @ m @ v = d, u and v unimodular, d1 | d2 | ..."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(map(int, row)) for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        entries = [(i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not entries:
            break
        # minimal |entry| to the pivot; reduce; repeat until the block splits
        i0, j0 = min(entries, key=lambda ij: abs(a[ij[0]][ij[1]]))
        swap_rows(t, i0)
        swap_cols(t, j0)
        dirty = False
        for i in range(t + 1, rows):
            q = a[i][t] // a[t][t]
            if q:
                addmul_row(i, t, -q)
            if a[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = a[t][j] // a[t][t]
            if q:
                addmul_col(j, t, -q)
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        bad = next(
            (i for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % a[t][t]),
            None,
        )
        if bad is not None:
            addmul_row(t, bad, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return tuple(map(tuple, u)), tuple(map(tuple, a)), tuple(map(tuple, v))


def smith_congruence_solver(a, moduli):
    """congruence_solver through the Smith form u [A | M] v = d: with
    (x, t) = v y the system reads d y = u b."""
    rows = len(a)
    n = len(a[0]) if rows else 0
    scaled = [exact._over_common_denominator(tuple(map(Fraction, row)), (Fraction(m),)) for row, m in zip(a, moduli)]
    scales, int_mod = [s for _, s in scaled], [m for (_, (m,)), _ in scaled]
    mod_cols = [i for i in range(rows) if int_mod[i] != 0]
    width = n + len(mod_cols)
    big = [list(row) + [int_mod[i] * (i == j) for j in mod_cols] for i, ((row, _), _) in enumerate(scaled)]
    u, d, v = smith_normal_form(big)
    r = min(rows, width)
    free = [i for i in range(width) if i >= r or d[i][i] == 0]
    gens = []
    for i in free:
        col = tuple(v[j][i] for j in range(width))[:n]
        if any(col):
            gens.append(col)
    lattice = lattice_basis_from_generators(gens)

    def solve(b, den=1):
        if any(type(x) is not int for x in b):
            (b,), e = exact._over_common_denominator(b)
            den *= e
        int_b = []
        for x, scale in zip(b, scales):
            x *= scale
            if x % den:
                return None
            int_b.append(x // den)
        c = mat_vec(u, int_b)
        y = [0] * width
        for i in range(r):
            dii = d[i][i]
            if dii == 0:
                if c[i] != 0:
                    return None
            else:
                if c[i] % dii != 0:
                    return None
                y[i] = c[i] // dii
        if any(c[r:]):
            return None
        return CosetZn(mat_vec(v[:n], y), lattice)

    return solve


def smith_lattice_contains(basis, v):
    """Membership as the Smith-form solution of sum c_i basis_i = v."""
    if not any(v):
        return True
    if not basis:
        return False
    return smith_congruence_solver(transpose(basis), [0] * len(v))(v) is not None


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


def test_input_checks_name_the_input():
    # a class needs a positive denominator; the solver needs one modulus per
    # row, nonnegative moduli, and one right-hand side per row
    for den in (0, -3):
        with pytest.raises(ValueError, match=re.escape(f"QmodZ(1, {den}) needs a positive denominator")):
            QmodZ(1, den)
    with pytest.raises(exact.DimensionMismatch, match=re.escape("2 rows of a and 1 moduli must agree")):
        congruence_solver([[1, 0], [0, 1]], [2])
    with pytest.raises(ValueError, match=re.escape("moduli [2, -3] must be nonnegative")):
        congruence_solver([[1, 0], [0, 1]], [2, -3])
    solve = congruence_solver([[1, 0], [0, 1]], [2, 3])
    assert solve((1, 2)) == CosetZn((1, 2), ((2, 0), (0, 3)))
    with pytest.raises(exact.DimensionMismatch, match=re.escape("3 right-hand sides for 2 rows of a and moduli")):
        solve((1, 2, 0))


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
    # row-echelon with positive pivots, entries above pivots reduced; zero
    # rows come last
    last = -1
    for k, row in enumerate(h):
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            assert not any(map(any, h[k:]))
            break
        assert nz > last
        last = nz
        assert row[nz] > 0
        assert all(0 <= above[nz] < row[nz] for above in h[:k])
    # another generating set of the same lattice: a random unimodular mix of
    # the rows, with integer combinations and a zero row appended, has the
    # same nonzero Hermite rows
    mixed = [list(row) for row in m]
    for _ in range(data.draw(st.integers(0, 6))):
        i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, rows - 1))
        if i != j:
            k = data.draw(st.integers(-3, 3))
            mixed[i] = [x + k * y for x, y in zip(mixed[i], mixed[j])]
    ks = [data.draw(st.integers(-2, 2)) for _ in m]
    mixed = mixed[::-1] + [[sum(k * row[c] for k, row in zip(ks, m)) for c in range(cols)], [0] * cols]
    nonzero = [row for row in h if any(row)]
    assert [row for row in hermite_normal_form(mixed)[0] if any(row)] == nonzero
    assert lattice_basis_from_generators(mixed) == tuple(nonzero)


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


# ---------------------------------------------------------------------------
# the Hermite-form solver against the Smith-form reference


def _compare_with_smith(a, moduli, rhs):
    """Solve each (b, den) of rhs with congruence_solver and the Smith
    reference: both None, or the same lattice basis and particulars that
    differ by a lattice vector.  Returns the reference solutions."""
    solve, ref_solve = congruence_solver(a, moduli), smith_congruence_solver(a, moduli)
    out = []
    for b, den in rhs:
        got, ref = solve(b, den), ref_solve(b, den)
        if ref is None:
            assert got is None, (a, moduli, b, den, got)
        else:
            assert got is not None and got.basis == ref.basis, (a, moduli, b, den, got, ref)
            assert smith_lattice_contains(ref.basis, exact.vec_sub(got.particular, ref.particular)), (a, moduli, b, den, got, ref)
        out.append(ref)
    return out


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_solver_matches_smith_reference_on_harness_systems(monkeypatch):
    # every congruence system the benchmark's blocks and levels passes of
    # seeds 1-3 solve (stabilizers, length-zero groups, endoscopic
    # lattices), recorded with each right-hand side, caches emptied first
    from weylkit import affine

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    systems = {}
    core = exact.congruence_solver

    def recording(a, moduli):
        rhs = systems.setdefault((tuple(map(tuple, a)), tuple(moduli)), [])
        solve = core(a, moduli)
        return lambda b, den=1: rhs.append((tuple(b), den)) or solve(b, den)

    monkeypatch.setattr(exact, "congruence_solver", recording)
    monkeypatch.setattr(affine, "congruence_solver", recording)
    for workload, seed in itertools.product(("blocks", "levels"), (1, 2, 3)):
        for name in ("rootdata", "affine", "integral", "duality", "metaplectic", "hecke"):
            for value in vars(importlib.import_module(f"weylkit.{name}")).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        for scenario in workloads.build(workload, seed):
            for op in scenario.ops:
                op.call()
    monkeypatch.undo()
    solved = missing = 0
    for (a, moduli), rhs in systems.items():
        refs = _compare_with_smith(a, moduli, rhs)
        solved += sum(ref is not None for ref in refs)
        missing += sum(ref is None for ref in refs)
    assert len(systems) >= 50 and solved >= 800 and missing >= 400, (len(systems), solved, missing)


def test_solver_matches_smith_reference_on_random_systems():
    # exact rows, zero moduli and rational moduli; b with denominators that
    # occur nowhere in a, and b = a x0 that surely solves; rank-deficient
    # rows, and systems whose lattice is {0} or all of Z^n
    rng = random.Random(2507190)
    seen = {"none": 0, "zero lattice": 0, "full lattice": 0, "other lattice": 0, "rank deficient": 0}
    for trial in range(400):
        n, rows = rng.randint(1, 4), rng.randint(1, 4)
        a = [[_random_entry(rng, True) for _ in range(n)] for _ in range(rows)]
        moduli = [rng.choice((0, 1, 2, 6, Fraction(1, 2), Fraction(3, 2))) for _ in range(rows)]
        shape = trial % 4
        if shape == 1 and rows > 1:  # a row that depends on the others
            k = rng.randint(-2, 2)
            a[-1] = [x + k * y for x, y in zip(a[0], a[1 % (rows - 1)])]
        elif shape == 2:  # exact rows of full rank: the lattice {0}
            a += [list(row) for row in identity(n)][: n - rows] if rows < n else []
            moduli = [0] * len(a)
        elif shape == 3:  # integral rows modulo 1 and a zero row: all of Z^n
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rows)] + [[0] * n]
            moduli = [1] * rows + [rng.choice((0, 1))]
        seen["rank deficient"] += rank(a) < len(a)
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        rhs = [([Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in a], 1) for _ in range(3)]
        rhs.append((mat_vec(a, x0), 1))
        (numerators,), den = exact._over_common_denominator(rhs[0][0])
        rhs.append((numerators, den))  # the integer path a rational b takes
        for ref in _compare_with_smith(a, moduli, rhs):
            if ref is None:
                seen["none"] += 1
            elif ref.basis == ():
                seen["zero lattice"] += 1
            elif ref.basis == identity(n):
                seen["full lattice"] += 1
            else:
                seen["other lattice"] += 1
    assert min(seen.values()) >= 100, seen
    # no rows: the one solution set is Z^0
    assert congruence_solver([], [])(()) == smith_congruence_solver([], [])(()) == CosetZn((), ())


def test_lattice_contains_matches_smith_reference():
    # generators with dependent and zero rows, and vectors in and out of
    # their lattice
    rng = random.Random(2507191)
    counts = [0, 0]
    for trial in range(300):
        n, k = rng.randint(1, 4), rng.randint(0, 4)
        basis = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        if trial % 3 == 0 and k > 1:
            basis[-1] = tuple(x - 2 * y for x, y in zip(basis[0], basis[1]))
        if trial % 5 == 0:
            basis.append((0,) * n)
        for _ in range(4):
            if basis and rng.random() < 0.5:
                ks = [rng.randint(-3, 3) for _ in basis]
                v = tuple(sum(c * b[j] for c, b in zip(ks, basis)) for j in range(n))
            else:
                v = tuple(rng.randint(-4, 4) for _ in range(n))
            got = lattice_contains(basis, v)
            assert got == smith_lattice_contains(basis, v), (basis, v)
            counts[got] += 1
    assert min(counts) >= 300, counts
    assert lattice_contains((), (0, 0)) and not lattice_contains((), (0, 1))
    assert lattice_contains(((2, 0), (0, 3)), (4, -3)) and not lattice_contains(((2, 0), (0, 3)), (1, 3))
