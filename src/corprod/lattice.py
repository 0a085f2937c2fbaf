"""Exact integer matrix and lattice arithmetic on Python ints.

Conventions used throughout the package:

* matrices are tuples of row tuples with Python int entries;
* row vectors of a matrix generate a lattice (sublattice of Z^n);
* homomorphism matrices act on column vectors, so composition is
  ordinary matrix multiplication.

Everything here is exact; no floating point is used anywhere.  The
elementary arithmetic and the factorizations serve the whole package,
but subgroups and quotients are computed by ``modular``.  The Hermite
and Smith normal forms serve the independent oracles of ``modular`` and
two small callers only:

* ``hnf``, ``hnf_pivots`` and ``solve_against_basis``: the numerator
  basis and the coordinates of ``modular.subquotient_int``;
* ``snf_transforms``: the invariant factors of ``subquotient_int``, of
  ``groups.abelian_structure_from_elements`` and, through
  ``smith_normal_form``, of the public ``abelian.smith_normal_form``;
* ``row_kernel``: ``modular.congruence_kernel_int``.
"""

from __future__ import annotations

from itertools import count
from math import gcd

from .errors import SizeCapExceeded

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(a, v) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vec_mat(v, a) -> Vector:
    cols = len(a[0]) if a else 0
    return tuple(sum(v[i] * a[i][j] for i in range(len(a))) for j in range(cols))


def vec_mod(v, moduli) -> Vector:
    return tuple(x % m if m else x for x, m in zip(v, moduli))


def is_zero_vector(v) -> bool:
    return all(x == 0 for x in v)


# ---------------------------------------------------------------------------
# Hermite normal form (row style)
# ---------------------------------------------------------------------------


def hnf(rows, ncols: int | None = None) -> Matrix:
    """Canonical row Hermite normal form of the lattice spanned by ``rows``.

    Returns the nonzero rows in staircase shape with positive pivots and
    entries above each pivot reduced into [0, pivot).  Two generating sets
    span the same lattice iff their HNFs are equal.

    At each column only the remaining rows with a nonzero entry there are
    reduced, and of those only a row that became zero is dropped; a row
    the column leaves untouched stays nonzero.
    """
    work = [list(r) for r in rows if not is_zero_vector(r)]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        live = [i for i in range(pivot_row, len(work)) if work[i][col] != 0]
        if not live:
            continue
        work[pivot_row], work[live[0]] = work[live[0]], work[pivot_row]
        for i in live[1:]:
            # rotating Euclid on the pair of column entries
            while work[i][col] != 0:
                q = work[pivot_row][col] // work[i][col]
                reduced = [x - q * y for x, y in zip(work[pivot_row], work[i])]
                work[pivot_row], work[i] = work[i], reduced
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-x for x in work[pivot_row]]
        p = work[pivot_row][col]
        for i in range(pivot_row):
            q = work[i][col] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[pivot_row])]
        pivot_row += 1
        for i in reversed(live[1:]):
            if is_zero_vector(work[i]):
                del work[i]
        if pivot_row == len(work):
            break
    return freeze(work[:pivot_row])


def hnf_pivots(h: Matrix) -> tuple[int, ...]:
    """Pivot column of each row of an HNF matrix."""
    out = []
    for row in h:
        for j, x in enumerate(row):
            if x != 0:
                out.append(j)
                break
    return tuple(out)


def solve_against_basis(basis: Matrix, vec) -> Vector | None:
    """Solve ``y . basis = vec`` in integers for a staircase basis.

    Returns None when no integer solution exists.
    """
    pivots = hnf_pivots(basis)
    v = list(vec)
    y = [0] * len(basis)
    for i, (row, p) in enumerate(zip(basis, pivots)):
        if v[p] % row[p] != 0:
            return None
        q = v[p] // row[p]
        y[i] = q
        if q:
            v = [x - q * r for x, r in zip(v, row)]
    if not is_zero_vector(v):
        return None
    return tuple(y)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(mat) -> tuple[tuple[int, ...], Matrix, Matrix]:
    """Smith normal form ``U . M . V = diag(s1, ..)`` with s1 | s2 | ...

    Returns ``(diagonal, U, V)`` where the diagonal is padded to
    ``min(m, n)`` entries (possibly zero) and U, V are unimodular.
    """
    d, u, v, _ = snf_transforms(mat)
    return d, u, v


def snf_transforms(mat) -> tuple[tuple[int, ...], Matrix, Matrix, Matrix]:
    """Like :func:`smith_normal_form` but also returns the inverse of V."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(row) for row in mat]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(j, i, q):  # col_j -= q * col_i
        for r in range(m):
            a[r][j] -= q * a[r][i]
        for r in range(n):
            v[r][j] -= q * v[r][i]
        vinv[i] = [x + q * y for x, y in zip(vinv[i], vinv[j])]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(len(a)):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    rank = min(m, n)
    t = 0
    while t < rank:
        # locate smallest nonzero entry in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        p = a[t][t]
        if p != 0:
            fixed = True
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % p != 0:
                        # fold row i into row t and restart the pivot
                        row_sub(t, i, -1)
                        fixed = False
                        break
                if not fixed:
                    break
            if not fixed:
                continue
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    diag = tuple(a[i][i] for i in range(rank))
    return diag, freeze(u), freeze(v), freeze(vinv)


def row_kernel(mat) -> Matrix:
    """Basis of the left kernel {x : x . M = 0} as rows."""
    m = len(mat)
    if m == 0:
        return ()
    d, u, _, _ = snf_transforms(mat)
    out = []
    for i in range(m):
        if i >= len(d) or d[i] == 0:
            out.append(u[i])
    return freeze(out)


_TRIAL_BOUND = 1000
# a cofactor at or beyond is_prime's exact limit is trial-divided on up to
# here, and refused if it is still that large
_TRIAL_BUDGET = 100_000


def factorint(n: int) -> dict[int, int]:
    """Prime factorization, in ascending prime order.

    Primes below ``_TRIAL_BOUND`` are divided out; each composite
    cofactor is split by Pollard's rho (Pollard, BIT 15 (1975)) with
    Brent's cycle finding (Brent, BIT 20 (1980)), primality decided by
    ``is_prime``.  While the cofactor is at or beyond ``is_prime``'s exact
    limit, trial division goes on up to ``_TRIAL_BUDGET``; a cofactor still
    that large is refused with ``SizeCapExceeded``, as trial division up to
    its square root would not finish in useful time.
    """
    if n <= 0:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    given, p = n, 2
    while p * p <= n and (p < _TRIAL_BOUND or (n >= _MR_LIMIT and p < _TRIAL_BUDGET)):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n >= _MR_LIMIT:
        raise SizeCapExceeded(
            f"cannot factor {given}: its cofactor {n} has no prime factor below "
            f"{_TRIAL_BUDGET} and is at least {_MR_LIMIT}, beyond exact primality testing"
        )
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < p * p or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            pending += [d, m // d]
    return dict(sorted(out.items()))


def _rho_divisor(n: int) -> int:
    """A proper divisor of an odd composite ``n`` with no prime factor
    below ``_TRIAL_BOUND``: Brent's variant of Pollard's rho on
    x -> x^2 + c from x = 2, batching 128 differences per gcd, with
    c = 1, 2, ... until one splits ``n``."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


# Miller-Rabin on the first 13 primes decides primality exactly below
# 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime, exactly, for n below 3.3 * 10^24."""
    if n >= _MR_LIMIT:
        raise ValueError("is_prime is exact only below 3.3 * 10^24")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def invariant_factors_of_diagonal(moduli) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of a direct sum of Z/m factors.

    Zeros are not allowed; entries equal to 1 are dropped.
    """
    per_prime: dict[int, list[int]] = {}
    for m in moduli:
        if m == 1:
            continue
        for p, e in factorint(m).items():
            per_prime.setdefault(p, []).append(e)
    if not per_prime:
        return ()
    length = max(len(v) for v in per_prime.values())
    factors = [1] * length
    for p, exps in per_prime.items():
        exps = [0] * (length - len(exps)) + sorted(exps)
        for i, e in enumerate(exps):
            factors[i] *= p**e
    return tuple(f for f in factors if f > 1)
