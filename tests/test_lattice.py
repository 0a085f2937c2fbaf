"""Smith/Hermite normal form properties, with exhaustive transform checks."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corprod import abelian, corpus, lattice
from corprod import formulas as fp
from corprod import groups as gr
from corprod.abelian import FiniteAbelianGroup
from corprod.cohomology import DEFAULT_COH_CAP
from corprod.errors import SizeCapExceeded
from corprod.families import family

matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def det(m):
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += (-1 if inv % 2 else 1) * prod
    return total


def mat_mul(a, b):
    """The exact product of integer matrices given as tuples of rows."""
    assert not (a and b) or len(a[0]) == len(b), "shape mismatch"
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def test_snf_examples():
    d, u, v = lattice.smith_normal_form(((2, 0), (0, 3)))
    assert d == (1, 6)
    assert mat_mul(mat_mul(u, ((2, 0), (0, 3))), v) == ((1, 0), (0, 6))
    assert lattice.smith_normal_form(((1, 0), (0, 1)))[0] == (1, 1)
    assert lattice.smith_normal_form(((0, 0), (0, 0)))[0] == (0, 0)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_transform_properties(rows):
    m = lattice.freeze(rows)
    d, u, v, vinv = lattice.snf_transforms(m)
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    product = mat_mul(mat_mul(u, m), v)
    for i in range(len(m)):
        for j in range(len(m[0])):
            want = d[i] if i == j and i < len(d) else 0
            assert product[i][j] == want
    nonzero = [x for x in d if x]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert mat_mul(v, vinv) == lattice.identity_matrix(len(m[0]))


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_row_kernel(rows):
    m = lattice.freeze(rows)
    for row in lattice.row_kernel(m):
        assert all(x == 0 for x in lattice.vec_mat(row, m))


@settings(max_examples=100, deadline=None)
@given(matrices, st.randoms(use_true_random=False))
def test_hnf_canonical(rows, rnd):
    m = [tuple(r) for r in rows]
    h1 = lattice.hnf(m, len(rows[0]))
    shuffled = m[:]
    rnd.shuffle(shuffled)
    extra = [tuple(a + b for a, b in zip(m[0], m[-1]))]
    h2 = lattice.hnf(shuffled + extra, len(rows[0]))
    assert h1 == h2
    for row in m:
        assert lattice.solve_against_basis(h1, row) is not None


def test_invariant_factors_of_diagonal():
    assert lattice.invariant_factors_of_diagonal([2, 3]) == (6,)
    assert lattice.invariant_factors_of_diagonal([2, 4, 3]) == (2, 12)
    assert lattice.invariant_factors_of_diagonal([1, 1]) == ()
    assert lattice.invariant_factors_of_diagonal([2, 2, 2]) == (2, 2, 2)
    assert lattice.invariant_factors_of_diagonal([4, 6]) == (2, 12)


def test_factorint():
    assert lattice.factorint(1) == {}
    assert lattice.factorint(12) == {2: 2, 3: 1}
    assert lattice.factorint(27) == {3: 3}


def test_factorint_splits_large_factors_quickly():
    # a few Pollard-rho splits at most; trial division alone takes up to
    # 2^30 steps on these
    cases = {
        2**61 - 1: {2**61 - 1: 1},
        (2**31 - 1) * (2**31 + 11): {2**31 - 1: 1, 2**31 + 11: 1},
        (2**31 - 1) ** 2: {2**31 - 1: 2},
        2**63 - 1: {7: 2, 73: 1, 127: 1, 337: 1, 92737: 1, 649657: 1},
    }
    for n, want in cases.items():
        start = time.perf_counter()
        got = lattice.factorint(n)
        assert time.perf_counter() - start < 1.0, n
        assert got == want and list(got) == sorted(got), n


def test_a_cofactor_beyond_exact_primality_is_refused_quickly():
    # each once trial-divided its cofactor up to its square root, some 10^13 steps
    for n in (2**89 - 1, (2**61 - 1) * (2**31 - 1)):
        for call in (
            lambda: abelian.group_from_moduli([n, 6]),
            lambda: abelian.hom_group(FiniteAbelianGroup((n,)), FiniteAbelianGroup((n,))),
        ):
            start = time.perf_counter()
            with pytest.raises(SizeCapExceeded, match=rf"cannot factor {n}: its cofactor {n} "):
                call()
            assert time.perf_counter() - start < 1.0, n
    # small primes are divided out first, and what they leave is named
    n = 2**89 - 1
    with pytest.raises(SizeCapExceeded, match=rf"cannot factor {6 * n}: its cofactor {n} "):
        lattice.factorint(6 * n)
    # a large power of small primes factors as before, and so does a
    # cofactor that trial division past 1000 brings below the limit
    for n, want in (
        (2**64, {2: 64}),
        (2**100, {2: 100}),
        (2**82 * 3, {2: 82, 3: 1}),
        (1009**9, {1009: 9}),
        (1009**4 * (2**61 - 1), {1009: 4, 2**61 - 1: 1}),
    ):
        start = time.perf_counter()
        assert lattice.factorint(n) == want
        assert time.perf_counter() - start < 0.1, n


def test_factorint_below_2_63_is_a_prime_factorization():
    rng = random.Random(61)
    for n in [rng.randrange(1, 2**bits) for bits in range(2, 64) for _ in range(4)]:
        got = lattice.factorint(n)
        assert list(got) == sorted(got) and all(lattice.is_prime(p) for p in got), n
        assert math.prod(p**e for p, e in got.items()) == n


def test_is_prime_agrees_with_factorint_and_rejects_strong_pseudoprimes():
    for n in range(3000):
        assert lattice.is_prime(n) == (n > 1 and lattice.factorint(n) == {n: 1}), n
    assert lattice.is_prime(2**61 - 1) and lattice.is_prime(2**63 - 25)
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not lattice.is_prime(n)


def reference_hnf(rows, ncols=None):
    """The Hermite form as first written, re-filtering every remaining row
    for zeros after each pivot; the reference for :func:`lattice.hnf`."""
    work = [list(r) for r in rows if not lattice.is_zero_vector(r)]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        idx = None
        for i in range(pivot_row, len(work)):
            if work[i][col] != 0:
                idx = i
                break
        if idx is None:
            continue
        work[pivot_row], work[idx] = work[idx], work[pivot_row]
        for i in range(pivot_row + 1, len(work)):
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
        work = work[:pivot_row] + [r for r in work[pivot_row:] if not lattice.is_zero_vector(r)]
        if pivot_row == len(work):
            break
    return lattice.freeze(work[:pivot_row])


@settings(max_examples=300, deadline=None)
@given(matrices, st.randoms(use_true_random=False))
def test_hnf_matches_the_reference(rows, rnd):
    # zero rows, duplicates, and combinations of other rows, which vanish
    # partway through the elimination
    n = len(rows[0])
    m = [tuple(r) for r in rows]
    for _ in range(rnd.randrange(4)):
        a, b = rnd.choice(m), rnd.choice(m)
        kind = rnd.randrange(3)
        if kind == 0:
            m.append((0,) * n)
        elif kind == 1:
            m.append(a)
        else:
            c, d = rnd.randint(-3, 3), rnd.randint(-3, 3)
            m.append(tuple(c * x + d * y for x, y in zip(a, b)))
    rnd.shuffle(m)
    for ncols in (None, n, rnd.randint(0, n)):
        assert lattice.hnf(m, ncols) == reference_hnf(m, ncols)


def test_the_hermite_form_serves_only_the_oracles(monkeypatch):
    """The corpus suite and a truncation colimit run with ``hnf`` disabled:
    subgroups are answered by ``modular``, not by a Hermite form."""

    def refuse(*args, **kwargs):
        raise AssertionError("lattice.hnf called outside the oracles")

    monkeypatch.setattr(lattice, "hnf", refuse)
    records = corpus.corpus_summary_records(0, 4, DEFAULT_COH_CAP, fp.DEFAULT_ENUM_CAP)
    assert [r.passed for r in records] == [True] * 4
    c4, c2 = gr.cyclic_group(4), gr.cyclic_group(2)
    spec = family(
        [("a", c4, gr.subgroup_from_generators(c4, [2]))], tail=(c2, gr.full_subgroup(c2))
    )
    system = fp.truncation_colimit(spec, fp.FamilyModule.build(FiniteAbelianGroup((2, 2))), 1, 3)
    assert system.passed and len(system.levels) == 4
