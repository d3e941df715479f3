"""Exact integer/rational linear algebra and residue arithmetic.

Conventions used across the package:

* vectors are tuples, matrices are tuples of row tuples;
* matrices act on column vectors, ``mat_vec(m, v)[i] = sum_j m[i][j] v[j]``;
* dot, mat_vec and mat_mul are ``sum(map(mul, ...))`` kernels: int operands
  give ints and any Fraction operand gives a Fraction, so nothing is rounded,
  and a length mismatch raises DimensionMismatch (map alone would truncate);
* det, mat_inv, solve_linear and rank over Q are wrappers over one sparse
  reduced-echelon routine, ``_rref``, the package's only elimination loop
  (``soergel`` and ``rootdata.simple_coordinates`` use it directly);
* over Z, ``hermite_normal_form`` is the one elimination loop: ``(h, u)`` with
  ``u @ m = h``, ``u`` unimodular and ``h`` in row echelon form with positive
  pivots and the entries above each pivot in ``[0, pivot)``, so the nonzero
  rows of ``h`` are determined by the row lattice of ``m``; lattice bases,
  lattice membership and the congruence solver all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Optional, Sequence, Tuple

Vec = Tuple[int, ...]
Mat = Tuple[Tuple[int, ...], ...]


class DimensionMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# Q/Z values


@dataclass(frozen=True)
class QmodZ:
    """A rational number modulo 1, stored reduced with 0 <= num < den."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        g = math.gcd(self.num, self.den)
        # num // g and den // g are coprime, so a zero class has den 1
        object.__setattr__(self, "num", (self.num // g) % (self.den // g))
        object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def from_fraction(x: Fraction) -> "QmodZ":
        x = Fraction(x)
        return QmodZ(x.numerator % x.denominator, x.denominator)

    @staticmethod
    def parse(s: str) -> "QmodZ":
        return QmodZ.from_fraction(Fraction(s))

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: "QmodZ") -> "QmodZ":
        return QmodZ.from_fraction(self.as_fraction() + other.as_fraction())

    def __sub__(self, other: "QmodZ") -> "QmodZ":
        return QmodZ.from_fraction(self.as_fraction() - other.as_fraction())

    def __neg__(self) -> "QmodZ":
        return QmodZ.from_fraction(-self.as_fraction())

    def scale(self, k) -> "QmodZ":
        return QmodZ.from_fraction(self.as_fraction() * Fraction(k))

    def is_zero(self) -> bool:
        return self.num == 0

    def order(self) -> int:
        """Exact order as an element of Q/Z (1 for the zero class)."""
        return self.den

    def __str__(self):
        return f"{self.num}/{self.den}"


QMODZ_ZERO = QmodZ(0, 1)


# ---------------------------------------------------------------------------
# matrix / vector helpers (entries: int or Fraction)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(a, k):
    return tuple(k * x for x in a)


def dot(a, b):
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of a length-{len(a)} and a length-{len(b)} vector")
    return sum(map(mul, a, b))


def _check_rows(m, n):
    for row in m:
        if len(row) != n:
            raise DimensionMismatch(f"a matrix row of length {len(row)} against length {n}")


def mat_vec(m, v):
    _check_rows(m, len(v))
    return tuple([sum(map(mul, row, v)) for row in m])


def mat_mul(a, b):
    _check_rows(a, len(b))
    bt = transpose(b)
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _over_common_denominator(*vecs):
    """Rational vectors (int or Fraction entries) as integer numerators over
    their least common denominator d: (the numerator vectors, d)."""
    d = math.lcm(*(v.denominator for vec in vecs for v in vec))
    return tuple(tuple(v.numerator * (d // v.denominator) for v in vec) for vec in vecs), d


def _exact(x):
    return x.numerator if x.denominator == 1 else x


def _subtract(v, f, row):
    """v -= f * row, in place, keeping v free of zeros."""
    for k, y in row.items():
        x = v.get(k, 0) - f * y
        if x:
            v[k] = x
        else:
            del v[k]


def _rref(rows):
    """Reduced row echelon form of sparse rows {column: coefficient}: (pivot
    columns in increasing order, the reduced rows in the same order, each with
    pivot entry 1, and {pivot column: the entry divided by} in the order the
    rows became pivots).  This is the package's one elimination loop.

    Each row is reduced by the pivot rows found so far; its leading column
    becomes a new pivot and is cleared from the earlier pivot rows.  Every
    pivot row then leads at its pivot and is zero at the other pivots, so
    the result is the reduced echelon form of the row space.  Integral
    entries stay int."""
    done, divided = {}, {}
    for row in rows:
        v = dict(row)
        for p in [c for c in v if c in done]:
            _subtract(v, v[p], done[p])
        if not v:
            continue
        c = min(v)
        divided[c] = v[c]
        if v[c] != 1:
            inv = Fraction(1, v[c]) if type(v[c]) is int else 1 / v[c]
            v = {k: _exact(y * inv) for k, y in v.items()}
        for prow in done.values():
            if c in prow:
                _subtract(prow, prow[c], v)
        done[c] = v
    pivots = sorted(done)
    return pivots, [done[c] for c in pivots], divided


def _sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def det(m) -> Fraction:
    """Determinant: the product of the entries _rref divides by, signed by the
    permutation taking each row to its pivot column; 0 below full rank."""
    divided = _rref(_sparse(m))[2]
    if len(divided) < len(m):
        return Fraction(0)
    cols = list(divided)
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :])
    return Fraction((-1) ** inversions * math.prod(divided.values()))


def mat_inv(m):
    """Exact inverse over Q, read off the reduced form [I | m^-1] of [m | I];
    raises ValueError if singular."""
    n = len(m)
    pivots, reduced, _ = _rref({**row, n + i: 1} for i, row in enumerate(_sparse(m)))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(row.get(n + j, 0)) for j in range(n)) for row in reduced)


def solve_linear(m, b):
    """One exact solution x of m x = b over Q, or None if inconsistent (the
    reduced form of [m | b] has a pivot in the b column).

    Underdetermined systems return the solution with free variables set to 0.
    """
    cols = len(m[0]) if m else 0
    pivots, reduced, _ = _rref(_sparse(tuple(row) + (y,) for row, y in zip(m, b, strict=True)))
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for c, row in zip(pivots, reduced):
        x[c] = Fraction(row.get(cols, 0))
    return tuple(x)


def rank(m) -> int:
    return len(_rref(_sparse(m))[0])


# ---------------------------------------------------------------------------
# Hermite normal form and lattices


def hermite_normal_form(m: Sequence[Sequence[int]]) -> Tuple[Mat, Mat]:
    """Row HNF with positive pivots and the entries above each pivot in
    [0, pivot). Returns (h, u) with u @ m = h, det u = ±1."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(map(int, row)) for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        u[r], u[piv] = u[piv], u[r]
        # clear below by gcd steps
        for i in range(r + 1, rows):
            while a[i][c] != 0:
                q = a[r][c] // a[i][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                a[r], a[i] = a[i], a[r]
                u[r], u[i] = u[i], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == rows:
            break
    return tuple(map(tuple, a)), tuple(map(tuple, u))


def lattice_basis_from_generators(gens: Sequence[Vec]) -> Tuple[Vec, ...]:
    """Basis (HNF rows, pivots positive) of the lattice generated by gens."""
    if not gens:
        return ()
    h, _ = hermite_normal_form(gens)
    return tuple(row for row in h if any(row))


def lattice_contains(basis: Sequence[Vec], v: Vec) -> bool:
    """Membership of an integer vector in the lattice spanned by basis rows:
    v is reduced along the pivots of the basis's Hermite form, whose rows
    vanish left of their pivots, so a remainder left at a pivot stays, and v
    is in the lattice iff nothing is left."""
    for row in lattice_basis_from_generators(basis):
        c = next(i for i, x in enumerate(row) if x)
        k = v[c] // row[c]
        v = [a - k * b for a, b in zip(v, row)]
    return not any(v)


# ---------------------------------------------------------------------------
# affine congruence systems


@dataclass(frozen=True)
class CosetZn:
    """Affine sublattice {particular + sum c_i basis_i : c_i in Z} of Z^n."""

    particular: Vec
    basis: Tuple[Vec, ...]

    def contains(self, x: Vec) -> bool:
        diff = vec_sub(x, self.particular)
        return lattice_contains(self.basis, diff)


def solve_integer_affine(a, b, moduli) -> Optional[CosetZn]:
    """Solve {x in Z^n : a x = b (mod moduli)} exactly.

    a has rational entries, b rational, moduli per-row rationals; modulus 0
    means an exact equation over Z.  Returns the full solution coset or None.
    """
    return congruence_solver(a, moduli)(b)


def congruence_solver(a, moduli) -> Callable[..., Optional[CosetZn]]:
    """The map (b, den) |-> {x in Z^n : a x = b / den (mod moduli)} (a
    CosetZn, or None) for fixed a and moduli, as in solve_integer_affine; b
    holds integer numerators over the denominator den (default 1).  A
    rational b is first put over one denominator, so every right-hand side
    takes the one integer path.

    Row i is scaled by the lcm s_i of the denominators of a[i] and moduli[i];
    if den does not divide b_i s_i, a[i] x lies in (1/s_i) Z + b_i / den for
    no integral x, so there is no solution.  Otherwise the solutions are the
    x parts of the integer (x, t) with B (x, t) = b, B = [A | M] and M the
    diagonal of the nonzero scaled moduli.  The Hermite form u B^T = h is
    computed once: with (x, t) = sum_k y_k u_k, the system reads h^T y = b,
    lower echelon.  The rows of u past the rank span ker B, so their x parts
    generate the solution lattice.  Per b, equation i gives y_k at the pivot
    column i of h row k (it must be integral) and is a consistency check at a
    non-pivot column; only this forward substitution depends on b.
    """
    rows = len(a)
    n = len(a[0]) if rows else 0
    if len(moduli) != rows:
        raise DimensionMismatch("rows of a and moduli must agree")
    scaled = [_over_common_denominator(tuple(map(Fraction, row)), (Fraction(m),)) for row, m in zip(a, moduli)]
    scales, int_mod = [s for _, s in scaled], [m for (_, (m,)), _ in scaled]
    if any(m < 0 for m in int_mod):
        raise ValueError("moduli must be nonnegative")
    # B = [A | M] with M = diag of moduli (drop zero-modulus columns)
    mod_cols = [i for i in range(rows) if int_mod[i] != 0]
    big = [list(row) + [int_mod[i] * (i == j) for j in mod_cols] for i, ((row, _), _) in enumerate(scaled)]
    h, u = hermite_normal_form(transpose(big))
    h = [row for row in h if any(row)]
    r = len(h)
    lattice = lattice_basis_from_generators([row[:n] for row in u[r:]])
    lead = {next(i for i, x in enumerate(row) if x): k for k, row in enumerate(h)}
    # per equation i: the terms (h[k][i], k) of the earlier unknowns, and
    # the pivot dividing y_k if i is the pivot column of row k, else 0
    equations = [
        ([(row[i], k) for k, row in enumerate(h) if row[i] and lead.get(i) != k], h[lead[i]][i] if i in lead else 0)
        for i in range(rows)
    ]
    cols = [tuple(row[j] for row in u[:r]) for j in range(n)]

    def solve(b, den=1) -> Optional[CosetZn]:
        if len(b) != rows:
            raise DimensionMismatch("rows of a, b, moduli must agree")
        if any(type(x) is not int for x in b):
            (b,), e = _over_common_denominator(b)
            den *= e
        y = []
        for x, scale, (terms, pivot) in zip(b, scales, equations):
            x *= scale
            if x % den:
                return None
            x = x // den - sum([c * y[k] for c, k in terms])
            if pivot:
                if x % pivot:
                    return None
                y.append(x // pivot)
            elif x:
                return None
        return CosetZn(mat_vec(cols, y), lattice)

    return solve
