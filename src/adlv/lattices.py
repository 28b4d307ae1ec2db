"""Exact integer linear algebra: matrix helpers, Smith normal form, quotients.

Matrices are tuples of row tuples with plain ``int`` entries, vectors are
tuples.  Everything here is exact; no floating point is used anywhere in the
package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul


def identity_matrix(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def vec_mat(v, a):
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0])))


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(x * y for x, y in zip(u, v))


def mat_det(a) -> Fraction:
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def mat_inverse(a):
    """Exact inverse of an integer matrix whose inverse is again integral."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = 1 / m[col][col]
        m[col] = [x * scale for x in m[col]]
        inv[col] = [x * scale for x in inv[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    out = []
    for row in inv:
        for x in row:
            if x.denominator != 1:
                raise ValueError("inverse is not integral")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def smith_normal_form(a):
    """Return ``(U, D, V)`` with ``U @ a @ V = D`` diagonal, U and V unimodular.

    The diagonal entries are nonnegative and form a divisibility chain
    d_1 | d_2 | ...
    """
    m = len(a)
    n = len(a[0]) if m else 0
    mat = [list(row) for row in a]
    u = [list(row) for row in identity_matrix(m)]
    v = [list(row) for row in identity_matrix(n)]

    def row_add(i, j, c):  # row_i += c * row_j
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_add(j, i, c):  # col_j += c * col_i
        for row in mat:
            row[j] += c * row[i]
        for row in v:
            row[j] += c * row[i]

    def row_swap(i, j):
        mat[i], mat[j] = mat[j], mat[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in mat:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        mat[i] = [-x for x in mat[i]]
        u[i] = [-x for x in u[i]]

    def diagonalize_from(t):
        while t < min(m, n):
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = abs(mat[i][j])
                    if x and (best is None or x < best):
                        best, pivot = x, (i, j)
            if pivot is None:
                break
            i, j = pivot
            if i != t:
                row_swap(t, i)
            if j != t:
                col_swap(t, j)
            if mat[t][t] < 0:
                row_neg(t)
            dirty = False
            for i in range(t + 1, m):
                if mat[i][t]:
                    q = mat[i][t] // mat[t][t]
                    row_add(i, t, -q)
                    if mat[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if mat[t][j]:
                    q = mat[t][j] // mat[t][t]
                    col_add(j, t, -q)
                    if mat[t][j]:
                        dirty = True
            if dirty:
                continue
            t += 1
        return t

    rank = diagonalize_from(0)
    # enforce the divisibility chain d_i | d_j for i < j
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            for j in range(i + 1, rank):
                if mat[j][j] % mat[i][i]:
                    col_add(i, j, 1)
                    diagonalize_from(i)
                    changed = True
                    break
            if changed:
                break
    return (
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in mat),
        tuple(tuple(row) for row in v),
    )


class LatticeQuotient:
    """The abelian group Z^n / L for L spanned by the given generator vectors.

    ``reduce`` maps a vector to canonical coordinates of its class; two
    vectors are congruent mod L exactly when their reductions are equal.
    ``orders`` gives the order of each canonical coordinate (0 = infinite).
    """

    def __init__(self, n: int, gens):
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != n:
                raise ValueError("generator has wrong dimension")
        if not gens:
            gens = [(0,) * n]
        cols = tuple(tuple(g[i] for g in gens) for i in range(n))
        self.n = n
        self._u, d, _ = smith_normal_form(cols)
        k = len(gens)
        self.orders = tuple(
            d[i][i] if i < min(n, k) else 0 for i in range(n)
        )

    def reduce(self, vec):
        if len(vec) != self.n:
            raise ValueError("vector has wrong dimension")
        y = mat_vec(self._u, vec)
        return tuple(
            (c % d) if d else c for c, d in zip(y, self.orders)
        )

    def contains(self, vec) -> bool:
        return all(c == 0 for c in self.reduce(vec))

    def order_of(self, vec) -> int:
        """Order of the class of ``vec`` in the quotient (0 = infinite)."""
        out = 1
        for c, d in zip(self.reduce(vec), self.orders):
            if c == 0:
                continue
            if d == 0:
                return 0
            step = d // gcd(d, c)
            out = out * step // gcd(out, step)
        return out

    def group_order(self) -> int:
        """Number of elements in the quotient (0 = infinite)."""
        out = 1
        for d in self.orders:
            if d == 0:
                return 0
            out *= d
        return out
