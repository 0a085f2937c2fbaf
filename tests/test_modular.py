"""The numpy mod-p^k engines against their pure-integer counterparts."""

import dataclasses
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corprod
from corprod import cohomology, corpus, lattice, modular
from corprod.abelian import FiniteAbelianGroup
from corprod.cohomology import DEFAULT_COH_CAP
from corprod.errors import PreconditionError, SizeCapExceeded, VerificationFailure
from corprod.formulas import DEFAULT_ENUM_CAP
from corprod.presentation import free_presentation


def subgroup_canon(gens, moduli):
    n = len(moduli)
    rel = [tuple(moduli[i] if j == i else 0 for j in range(n)) for i in range(n)]
    return lattice.hnf(list(gens) + rel, n)


def random_system(rng, max_n=4, max_m=4):
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    col = [rng.choice([2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(n)]
    row = [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(m)]
    rows = []
    for i in range(m):
        r = []
        for j in range(n):
            need = row[i] // math.gcd(row[i], col[j])
            r.append(need * rng.randint(0, 3))
        rows.append(tuple(r))
    return rows, row, col


def seed_local_diagonalize(mat, p, k):
    """The original table-driven kernel, kept as the reference for the
    pivot order and the transforms of :func:`modular.local_diagonalize`."""
    q = p**k
    m, n = mat.shape
    a = np.mod(mat.astype(np.int64), q)
    v = np.eye(n, dtype=np.int64)
    vinv = np.eye(n, dtype=np.int64)
    val = np.full(q, k, dtype=np.int64)
    for r in range(1, q):
        x, e = r, 0
        while x % p == 0 and e < k:
            x, e = x // p, e + 1
        val[r] = e
    exps = []
    t = 0
    while t < min(m, n):
        vals = val[a[t:, t:]]
        vmin = vals.min() if vals.size else k
        if vmin >= k:
            break
        bi, bj = np.unravel_index(int(vals.argmin()), vals.shape)
        bi, bj = bi + t, bj + t
        if bi != t:
            a[[t, bi], :] = a[[bi, t], :]
        if bj != t:
            a[:, [t, bj]] = a[:, [bj, t]]
            v[:, [t, bj]] = v[:, [bj, t]]
            vinv[[t, bj], :] = vinv[[bj, t], :]
        piv = p ** int(vmin)
        inv = pow(int(a[t, t]) // piv % q, -1, q)
        a[t, t:] = (a[t, t:] * inv) % q
        col = a[t:, t].copy()
        col[0] = 0
        w = col // piv
        if np.any(w):
            a[t:, t:] -= np.outer(w, a[t, t:])
            np.mod(a[t:, t:], q, out=a[t:, t:])
        row = a[t, t:].copy()
        row[0] = 0
        w = row // piv
        if np.any(w):
            a[t:, t:] -= np.outer(a[t:, t], w)
            np.mod(a[t:, t:], q, out=a[t:, t:])
            v[:, t:] -= np.outer(v[:, t], w)
            np.mod(v[:, t:], q, out=v[:, t:])
            vinv[t, :] = (vinv[t, :] + w @ vinv[t:, :]) % q
        exps.append(int(vmin))
        t += 1
    return exps, v % q, vinv % q


def int64_limit(q):
    """The longest product length the kernel accepts modulo q."""
    return (2**63 - 1) // (q - 1) ** 2


def test_local_diagonalize_matches_seed_kernel():
    rng = random.Random(7)
    for _ in range(240):
        p, k = rng.choice([(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3)])
        q = p**k
        m, n = rng.randint(0, 40), rng.randint(0, 30)
        # vary the density of units so that deep pivot levels and zero
        # blocks both occur
        dense = rng.random()
        mat = np.array(
            [
                [rng.randrange(q) if rng.random() < dense else p * rng.randrange(q) % q
                 for _ in range(n)]
                for _ in range(m)
            ],
            dtype=np.int64,
        ).reshape(m, n)
        got = modular.local_diagonalize(mat, p, k)
        want = seed_local_diagonalize(mat, p, k)
        assert got[0] == want[0]
        for x, y in zip(got[1:], want[1:]):
            assert x.dtype == np.int64 and np.array_equal(x, y)
        # skipping Vinv changes nothing else
        exps, v, vinv = modular.local_diagonalize(mat, p, k, False)
        assert exps == want[0] and vinv is None
        assert v.dtype == np.int64 and np.array_equal(v, want[1])


def rank_mod_p(rows, p):
    """The rank over F_p of a list of integer rows, by Gaussian elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def assert_diagonalizes(mat, p, k, exps, v, vinv):
    """mat.V = W.diag(p^exps) for some W invertible mod p^k: V.Vinv = I,
    column j of mat.V is p^a_j times a column c_j and zero past the rank,
    and the c_j are independent mod p, so they extend to a basis, whose
    matrix is W.  Checked on Python ints."""
    q = p**k
    m, n = mat.shape
    v, vinv = v.astype(object), vinv.astype(object)
    assert np.array_equal((v @ vinv) % q, np.eye(n, dtype=np.int64) % q)
    assert exps == sorted(exps) and len(exps) <= min(m, n) and all(0 <= a < k for a in exps)
    cols = ((mat.astype(object) @ v) % q).T.tolist()
    assert all(x == 0 for col in cols[len(exps):] for x in col)
    scaled = []
    for a, col in zip(exps, cols):
        assert all(x % p**a == 0 for x in col)
        scaled.append([x // p**a for x in col])
    assert rank_mod_p(scaled, p) == len(exps)


def test_local_diagonalize_properties():
    rng = random.Random(2)
    # small prime powers, then the largest q each shape is accepted at
    cases = [(rng.choice([2, 3, 5]), rng.randint(1, 3), 5) for _ in range(250)]
    cases += [(2, 31, 2), (2**31 - 1, 1, 2), (3, 19, int64_limit(3**19))] * 20
    for p, k, size in cases:
        q = p**k
        m, n = rng.randint(0, size), rng.randint(0, size)
        mat = np.array(
            [[rng.randrange(q) for _ in range(n)] for _ in range(m)], dtype=np.int64
        ).reshape(m, n)
        assert_diagonalizes(mat, p, k, *modular.local_diagonalize(mat, p, k))


def assert_same_transforms(got, want):
    assert got[0] == want[0]
    for x, y in zip(got[1:], want[1:]):
        if y is None:
            assert x is None
        else:
            assert x.dtype == y.dtype == np.int64 and x.shape == y.shape
            assert np.array_equal(x, y)


def random_bits(rng, m, n, density=0.5):
    return np.array(
        [[int(rng.random() < density) for _ in range(n)] for _ in range(m)], dtype=np.int64
    ).reshape(m, n)


def invertible_bits(rng, n):
    # lower times upper unitriangular is invertible mod 2
    low = np.tril(random_bits(rng, n, n), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(random_bits(rng, n, n), 1) + np.eye(n, dtype=np.int64)
    return (low @ up) % 2


@functools.cache
def gf2_cases():
    rng = random.Random(11)
    dup = random_bits(rng, 12, 9)
    dup[[3, 7, 10]] = dup[1]
    wide = np.hstack([np.eye(20, dtype=np.int64), random_bits(rng, 20, 30)])
    cases = {
        "0x5": np.zeros((0, 5), dtype=np.int64),
        "5x0": np.zeros((5, 0), dtype=np.int64),
        "0x0": np.zeros((0, 0), dtype=np.int64),
        "zero": np.zeros((7, 9), dtype=np.int64),
        "identity": np.eye(8, dtype=np.int64),
        "invertible": invertible_bits(rng, 40),
        "full-row-rank": wide[:, rng.sample(range(50), 50)],
        "duplicate-rows": dup,
        "odd-and-negative": random_bits(rng, 9, 7) * 3 - random_bits(rng, 9, 7) * 4,
        "300x150": random_bits(rng, 300, 150),
        "150x300": random_bits(rng, 150, 300, density=0.1),
    }
    for a, b in itertools.product((63, 64, 65, 127, 128, 129), repeat=2):
        if abs(a - b) <= 1 or {a, b} in ({63, 129}, {64, 128}):
            cases[f"{a}x{b}"] = random_bits(rng, a, b, density=rng.choice([0.05, 0.5]))
    return cases


@pytest.mark.parametrize("name", sorted(gf2_cases()))
def test_gf2_kernel_matches_numpy_kernel(name):
    mat = gf2_cases()[name]
    want = modular._zq_diagonalize(mat, 2, 1)
    assert_same_transforms(modular._gf2_diagonalize(mat), want)
    assert_same_transforms(modular.local_diagonalize(mat, 2, 1), want)
    # without Vinv both kernels return the same exps and V
    skip = want[:2] + (None,)
    assert_same_transforms(modular._zq_diagonalize(mat, 2, 1, False), skip)
    assert_same_transforms(modular._gf2_diagonalize(mat, False), skip)
    assert_same_transforms(modular.local_diagonalize(mat, 2, 1, False), skip)


def test_gf2_kernel_matches_numpy_kernel_on_random_bits(monkeypatch):
    rng = random.Random(12)
    cases = [random_bits(rng, rng.randint(0, 40), rng.randint(0, 40), rng.random()) for _ in range(300)]
    want = [modular._zq_diagonalize(mat, 2, 1) for mat in cases]
    # q = 2 never reaches the numpy kernel
    monkeypatch.setattr(modular, "_zq_diagonalize", None)
    for i, mat in enumerate(cases):
        assert_same_transforms(modular.local_diagonalize(mat, 2, 1), want[i])
        skip = want[i][:2] + (None,)
        assert_same_transforms(modular.local_diagonalize(mat, 2, 1, False), skip)


def prime_power(q):
    ((p, k),) = lattice.factorint(q).items()
    return p, k


def random_residues(rng, m, n, q, density=0.5, low=0, high=None):
    high = q if high is None else high
    return np.array(
        [[rng.randrange(low, high) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)],
        dtype=np.int64,
    ).reshape(m, n)


def invertible_mod(rng, n, q):
    # lower times upper unitriangular is invertible mod q
    low = np.tril(random_residues(rng, n, n, q), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(random_residues(rng, n, n, q), 1) + np.eye(n, dtype=np.int64)
    return (low @ up) % q


@functools.cache
def packed_cases(q):
    rng = random.Random(q)
    dup = random_residues(rng, 12, 9, q)
    dup[[3, 7, 10]] = dup[1]
    cases = {
        "0x5": np.zeros((0, 5), dtype=np.int64),
        "5x0": np.zeros((5, 0), dtype=np.int64),
        "0x0": np.zeros((0, 0), dtype=np.int64),
        "zero": np.zeros((7, 9), dtype=np.int64),
        "identity": np.eye(8, dtype=np.int64),
        "invertible": invertible_mod(rng, 40, q),
        "duplicate-rows": dup,
        "negative-and-out-of-range": random_residues(rng, 9, 7, q, 0.8, -5 * q, 5 * q),
        "120x60": random_residues(rng, 120, 60, q),
    }
    # each of 63, 64 and 65 bits as the width of the work matrix's columns
    # and of V's columns and Vinv's rows
    for a, b in ((63, 65), (64, 64), (65, 63)):
        cases[f"{a}x{b}"] = random_residues(rng, a, b, q, density=rng.choice([0.05, 0.5]))
    if q == 4:
        # no unit anywhere: every pivot sits at valuation 1
        cases["all-even"] = 2 * random_residues(rng, 20, 15, 2, 0.6)
        # rows of 2s above the first unit: the kernel swaps a nonzero row
        # into the pivot row's place, here and in the units block below
        twos = np.vstack([np.full((1, 12), 2), 2 * random_residues(rng, 4, 12, 2, 0.7)])
        cases["twos-above-a-unit"] = np.vstack([twos, random_residues(rng, 8, 12, 4, 0.3)])
        cases["twos-above-units-wide"] = np.vstack(
            [2 * random_residues(rng, 30, 70, 2, 0.5), random_residues(rng, 40, 70, 4, 0.05)]
        )
    return cases


@pytest.mark.parametrize(
    "q,name", [(q, name) for q in sorted(set(modular._PACKED) - {2}) for name in sorted(packed_cases(q))]
)
def test_packed_kernels_match_numpy_kernel(q, name):
    mat = packed_cases(q)[name]
    p, k = prime_power(q)
    for need_vinv in (True, False):
        want = modular._zq_diagonalize(mat, p, k, need_vinv)
        assert_same_transforms(modular._PACKED[q](mat, need_vinv), want)
        assert_same_transforms(modular.local_diagonalize(mat, p, k, need_vinv), want)
    if name == "all-even":
        assert set(want[0]) == {1}
    if name.startswith("twos-above"):
        # the first row holds 2s and no unit, and a unit lies below it
        assert mat[0].any() and not (mat[0] % 2).any() and (mat % 2).any()
        assert want[0][0] == 0


def test_packed_kernels_match_numpy_kernel_on_random_residues(monkeypatch):
    rng = random.Random(14)
    cases = []
    for q in sorted(modular._PACKED):
        p, k = prime_power(q)
        for i in range(60):
            # vary the density of units so that deep pivot levels occur
            m, n, dense = rng.randint(0, 30), rng.randint(0, 30), rng.random()
            mat = np.array(
                [[rng.randrange(-2 * q, 2 * q) if rng.random() < dense else p * rng.randrange(q)
                  for _ in range(n)] for _ in range(m)],
                dtype=np.int64,
            ).reshape(m, n)
            need_vinv = i % 2 == 0
            cases.append((mat, p, k, need_vinv, modular._zq_diagonalize(mat, p, k, need_vinv)))
    # no packed q reaches the numpy kernel
    monkeypatch.setattr(modular, "_zq_diagonalize", None)
    for mat, p, k, need_vinv, want in cases:
        assert_same_transforms(modular.local_diagonalize(mat, p, k, need_vinv), want)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_a_matrix_zero_mod_q_gets_identities_without_a_kernel(q, monkeypatch):
    p, k = prime_power(q)
    rng = random.Random(q)
    mats = [
        np.zeros((0, 5), dtype=np.int64),
        np.zeros((5, 0), dtype=np.int64),
        np.zeros((0, 0), dtype=np.int64),
        np.zeros((4, 6), dtype=np.int64),
        q * random_residues(rng, 6, 4, 7, 0.8, -7),
    ]
    flags = (True, False)
    # a first nonzero entry that q divides does not make the matrix zero
    for mat in (np.array([[0, q, 1]]), np.array([[0, -q], [0, 2 * q + 1]])):
        for f in flags:
            assert_same_transforms(modular.local_diagonalize(mat, p, k, f), modular._zq_diagonalize(mat, p, k, f))
    wants = [[modular._zq_diagonalize(mat, p, k, f) for f in flags] for mat in mats]
    monkeypatch.setattr(modular, "_zq_diagonalize", None)
    monkeypatch.setattr(modular, "_PACKED", {})
    for mat, want in zip(mats, wants):
        for f, w in zip(flags, want):
            assert_same_transforms(modular.local_diagonalize(mat, p, k, f), w)


def corprod_caches():
    # found as the benchmark's tracer finds them: callables with cache_info
    # bound by a corprod module
    for info in pkgutil.iter_modules(corprod.__path__):
        importlib.import_module(f"corprod.{info.name}")
    return {
        id(value): value
        for name, mod in sys.modules.items()
        if name == "corprod" or name.startswith("corprod.")
        for value in vars(mod).values()
        if callable(getattr(value, "cache_info", None))
    }.values()


def test_packed_kernels_match_numpy_kernel_on_corpus_traffic(monkeypatch):
    # every matrix that the full corpus at seeds 0 and 3 diagonalizes at a
    # packed q, recorded with the numpy kernel answering and the input-keyed
    # caches emptied first; a hit at seed 3 skips only matrices that seed 0
    # recorded
    packed = modular._PACKED
    recorded = []
    numpy_kernel = modular._zq_diagonalize

    def record(mat, p, k, need_vinv=True):
        out = numpy_kernel(mat, p, k, need_vinv)
        if p**k in packed:
            recorded.append((np.array(mat), p**k, need_vinv, out))
        return out

    monkeypatch.setattr(modular, "_PACKED", {})
    monkeypatch.setattr(modular, "_zq_diagonalize", record)
    for cache in corprod_caches():
        if inspect.signature(cache.__wrapped__).parameters:
            cache.cache_clear()
    for seed in (0, 3):
        corpus.corpus_summary_records(seed, 30, DEFAULT_COH_CAP, DEFAULT_ENUM_CAP)
    monkeypatch.undo()
    assert {q for _, q, *_ in recorded} == set(packed)
    for mat, q, need_vinv, want in recorded:
        assert_same_transforms(packed[q](mat, need_vinv), want)


def test_small_systems_leave_the_kernel_on_the_corpus(monkeypatch):
    # the subquotients and congruence kernels of at most four coordinates
    # run on Python ints: the first 4 seed-0 instances, caches emptied,
    # make 92 local_diagonalize calls, where routing every system to the
    # kernel makes 350
    calls = []
    kernel = modular.local_diagonalize

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(modular, "local_diagonalize", counted)
    for cache in corprod_caches():
        if inspect.signature(cache.__wrapped__).parameters:
            cache.cache_clear()
    corpus.corpus_summary_records(0, 4, DEFAULT_COH_CAP, DEFAULT_ENUM_CAP)
    assert 0 < len(calls) < 150


# moduli below 2^63 with their factorizations; the first three have
# p-parts whose lifts pass 2^63 when multiplied out in int64
LIFT_MODULI = {
    3 * (2**61 - 1): {3: 1, 2**61 - 1: 1},
    2**40 * 3**13: {2: 40, 3: 13},
    5**3 * 7 * (2**31 - 1) * 11 * 13 * 17 * 19: {5: 3, 7: 1, 2**31 - 1: 1, 11: 1, 13: 1, 17: 1, 19: 1},
    (2**31 - 1) ** 2: {2**31 - 1: 2},
    2**62: {2: 62},
    12: {2: 2, 3: 1},
    7: {7: 1},
}


def test_lifted_p_parts_match_crt_pair():
    rng = random.Random(13)
    moduli = list(LIFT_MODULI)
    primes = sorted({p for fac in LIFT_MODULI.values() for p in fac})
    stack = np.array(
        [[rng.randrange(2**63) for _ in moduli] for _ in range(6)] + [[0] * len(moduli)],
        dtype=np.int64,
    )
    total = [[0] * len(moduli) for _ in stack]
    for p in primes:
        exps = [LIFT_MODULI[m].get(p, 0) for m in moduli]
        lifted = modular._lift_p_parts(stack, p, exps, moduli)
        assert lifted.dtype == np.int64
        for row, out in zip(stack.tolist(), lifted.tolist()):
            for r, m, e, x in zip(row, moduli, exps, out):
                pe = p**e
                assert x == (modular._crt_pair(r % pe, pe, 0, m // pe) if e else 0)
        for row, out in zip(total, lifted.tolist()):
            row[:] = [(t + x) % m for t, x, m in zip(row, out, moduli)]
    # the p-parts of every prime add up to the residue itself
    assert total == [[r % m for r, m in zip(row, moduli)] for row in stack.tolist()]


def assert_kernel_matches_the_oracle(rows, row, col):
    fast = modular.congruence_kernel(rows, row, col)
    slow = modular.congruence_kernel_int(rows, row, col)
    assert subgroup_canon(fast, col) == subgroup_canon(slow, col)
    for g in fast:
        for r, mm in zip(rows, row):
            assert sum(a * b for a, b in zip(r, g)) % mm == 0


def test_congruence_kernel_matches_integer_oracle():
    rng = random.Random(3)
    for _ in range(250):
        assert_kernel_matches_the_oracle(*random_system(rng))


@st.composite
def corpus_module_systems(draw):
    """A congruence system of a module the corpus can draw: the fixed points
    of a few group elements, or the cocycle condition of H^1."""
    zoo = corpus._zoo()
    g = zoo[draw(st.sampled_from(sorted(zoo)))]
    a = FiniteAbelianGroup(draw(st.sampled_from(corpus._MODULES)))
    options = corpus._action_options(g, a)
    option = options[draw(st.sampled_from(sorted(options)))]
    m = corpus._action_module(g, a, option)
    r = a.rank
    if draw(st.booleans()):
        elems = draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=4))
        rows = (m.action[elems] - np.eye(r, dtype=np.int64)).reshape(len(elems) * r, r)
        return rows.tolist(), a.factors * len(elems), a.factors
    pres = free_presentation(g)
    k = len(pres.gens)
    rows = cohomology._derivation_sums(m, pres).transpose(0, 2, 1, 3).reshape(pres.rank * r, k * r)
    return rows.tolist(), a.factors * pres.rank, a.factors * k


@settings(max_examples=80, deadline=None)
@given(corpus_module_systems())
def test_congruence_kernel_matches_integer_oracle_on_corpus_modules(system):
    assert_kernel_matches_the_oracle(*system)


def test_subquotient_matches_integer_oracle():
    rng = random.Random(4)
    for _ in range(250):
        n = rng.randint(1, 4)
        moduli = [rng.choice([2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(n)]
        den = [
            tuple(rng.randrange(moduli[j]) for j in range(n))
            for _ in range(rng.randint(0, 3))
        ]
        num = [
            tuple(rng.randrange(moduli[j]) for j in range(n))
            for _ in range(rng.randint(0, 3))
        ] + den
        fast = modular.subquotient(moduli, num, den)
        slow = modular.subquotient_int(moduli, num, den)
        assert fast.factors == slow.factors
        for sq in (fast, slow):
            for i, rep in enumerate(sq.reps):
                want = tuple(1 if j == i else 0 for j in range(len(sq.factors)))
                assert sq.classify(rep) == want
            if num:
                x = num[rng.randrange(len(num))]
                y = num[rng.randrange(len(num))]
                s = tuple((a + b) % m for a, b, m in zip(x, y, moduli))
                cx, cy, cs = sq.classify(x), sq.classify(y), sq.classify(s)
                assert cs == tuple((a + b) % f for a, b, f in zip(cx, cy, sq.factors))


def test_subquotient_rejects_outsiders():
    sq = modular.subquotient([4, 4], [(2, 0)], [])
    with pytest.raises(modular.VerificationFailure):
        sq.classify((1, 0))


@st.composite
def subquotient_stacks(draw):
    """Moduli, numerator and denominator generators, and a stack of
    integer combinations of the numerator's generators and relations,
    with entries of either sign and beyond the moduli."""
    n = draw(st.integers(1, 4))
    moduli = draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 25]), min_size=n, max_size=n))
    vec = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    den = draw(st.lists(vec, max_size=3))
    num = draw(st.lists(vec, max_size=3)) + den
    spanning = num + [tuple(m if j == i else 0 for j in range(n)) for i, m in enumerate(moduli)]
    combos = st.lists(st.integers(-30, 30), min_size=len(spanning), max_size=len(spanning))
    stack = [
        tuple(sum(c * g[j] for c, g in zip(coeffs, spanning)) for j in range(n))
        for coeffs in draw(st.lists(combos, max_size=6))
    ]
    return moduli, num, den, stack


def assert_matches_the_oracle(fast, moduli, num, den, stack):
    slow = modular.subquotient_int(moduli, num, den)
    assert fast.factors == slow.factors
    coords = fast.classify_many(stack)
    assert len(coords) == len(stack)
    for vec, row in zip(stack, coords):
        assert all(type(c) is int and 0 <= c < f for c, f in zip(row, fast.factors))
        assert len(row) == len(fast.factors)
        assert fast.classify(vec) == row
        # the two engines choose different generators: lift the fast
        # coordinates through the fast generators and let the oracle compare
        lifted = tuple(
            sum(c * rep[j] for c, rep in zip(row, fast.reps)) % m for j, m in enumerate(moduli)
        )
        assert slow.classify(lifted) == slow.classify(vec)


@settings(max_examples=200, deadline=None)
@given(subquotient_stacks(), st.booleans())
def test_classify_many_matches_the_integer_oracle(case, again):
    moduli, num, den, stack = case
    if again:
        # the call below is then a memo hit
        modular.subquotient(moduli, num, den)
    assert_matches_the_oracle(modular.subquotient(moduli, num, den), moduli, num, den, stack)


def memo_info():
    return modular._subquotient_cached.cache_info()


def test_subquotient_memo_keys_on_the_int64_stacks():
    moduli, num, den = (4, 6, 9), ((2, 3, 3), (1, 0, 6), (0, 2, 0)), ((2, 5, 3),)
    stack = [(3, 2, 6), (0, 4, 0), (2, 5, 3)]
    modular._subquotient_cached.cache_clear()
    first = modular.subquotient(moduli, num, den)
    again = modular.subquotient(
        np.array(moduli), np.array(num, dtype=np.int64), np.array(den, dtype=np.int64)
    )
    # nested tuples and int64 arrays of the same entries are one cache entry
    info = memo_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert again is first
    assert again.factors == first.factors and again.reps == first.reps
    assert again.classify_many(stack) == first.classify_many(stack)
    assert_matches_the_oracle(again, moduli, num, den, stack)


def test_subquotient_memo_keeps_residues_apart():
    # equal mod the moduli, but not equal as given: two entries, both right
    moduli, stack = (4, 6), [(1, 2), (2, 4), (3, 0)]
    cases = [([(1, 2)], [(2, 4)]), ([(5, 2)], [(2, -2)])]
    modular._subquotient_cached.cache_clear()
    presented = [modular.subquotient(moduli, num, den) for num, den in cases]
    assert presented[0] is not presented[1]
    assert memo_info().currsize == 2
    assert modular.subquotient(moduli, *cases[1]) is presented[1]
    for sq, (num, den) in zip(presented, cases):
        assert_matches_the_oracle(sq, moduli, num, den, stack)


def test_subquotient_memo_caches_no_refusal():
    q = 2**31 - 1
    refusals = [
        # a denominator outside the numerator
        (VerificationFailure, "not in the numerator", ((4, 4), [(2, 0)], [(1, 0)])),
        # a modulus from 2^63, and a 3 x 2 system mod q past the int64 bound
        (SizeCapExceeded, r"2\^63", ((2**63, 3), [(1, 1)], [])),
        (SizeCapExceeded, r"2\^63", ((q, q), [(1, 2)], [])),
    ]
    for error, match, args in refusals:
        for _ in range(2):
            size = memo_info().currsize
            with pytest.raises(error, match=match):
                modular.subquotient(*args)
            assert memo_info().currsize == size


def test_a_shared_subquotient_is_immutable():
    sq = modular.subquotient((4, 6), [(1, 1), (2, 3)], [(0, 3)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        sq.factors = (2,)
    engines = [
        e for cell in sq._classify_many.__closure__ if isinstance(cell.cell_contents, list)
        for e in cell.cell_contents if isinstance(e, modular._PrimarySubquotient)
    ]
    assert len(engines) == 2
    for e in engines:
        for arr in (e.v_n, e.pa, e.v_kept):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


def test_every_corprod_cache_is_bounded():
    caches = corprod_caches()
    assert modular._subquotient_cached in caches
    assert cohomology.trivial_module in caches
    for cache in caches:
        # a cache of a function without arguments holds one entry at most
        if inspect.signature(cache.__wrapped__).parameters:
            assert cache.cache_parameters()["maxsize"] == modular.MEMO_SIZE, cache.__qualname__


def test_classify_many_refuses_a_stack_with_one_outsider():
    # 3 is outside <2> in Z/4 (the 2-part) and 2 is outside <3> in Z/6 (the 3-part)
    for moduli, num, members, outsider in (
        ((4, 6), [(2, 0), (0, 1)], [(0, 0), (2, 5), (2, 3)], (3, 1)),
        ((6,), [(3,)], [(3,), (0,)], (2,)),
    ):
        for sq in (modular.subquotient(moduli, num, []), modular.subquotient_int(moduli, num, [])):
            assert len(sq.classify_many(members)) == len(members)
            with pytest.raises(VerificationFailure):
                sq.classify_many(members[:1] + [outsider] + members[1:])


def test_classify_many_of_an_empty_stack_and_rank_zero():
    for build in (modular.subquotient, modular.subquotient_int):
        assert build((4, 6), [(1, 0), (0, 1)], []).classify_many([]) == ()
        # N = D: no factor is left, but membership is still checked
        sq = build((4, 6), [(2, 0), (0, 3)], [(2, 0), (0, 3)])
        assert sq.factors == ()
        assert sq.classify_many([(2, 3), (0, 0)]) == ((), ())
        assert sq.classify((2, 0)) == ()
        with pytest.raises(VerificationFailure):
            sq.classify_many([(0, 0), (0, 1)])
    # no components at all
    assert modular.subquotient((), [], []).classify_many([(), ()]) == ((), ())


def test_solver_roundtrip_and_inconsistency():
    rng = random.Random(5)
    for _ in range(250):
        rows, row, col = random_system(rng, max_m=4)
        x0 = tuple(rng.randrange(c) for c in col)
        rhs = tuple(
            sum(a * b for a, b in zip(r, x0)) % mm for r, mm in zip(rows, row)
        )
        x = modular.CongruenceSolver(rows, row, col).solve(rhs)
        assert x is not None
        for r, b, mm in zip(rows, rhs, row):
            assert (sum(a * c for a, c in zip(r, x)) - b) % mm == 0
        rhs2 = tuple(rng.randrange(mm) for mm in row)
        x2 = modular.CongruenceSolver(rows, row, col).solve(rhs2)
        total = math.prod(col)
        if x2 is None and total <= 400:
            for cand in itertools.product(*(range(c) for c in col)):
                assert not all(
                    (sum(a * c2 for a, c2 in zip(r, cand)) - b) % mm == 0
                    for r, b, mm in zip(rows, rhs2, row)
                )


def test_reusable_solver_agrees_with_one_shot():
    # one solver reused for every right-hand side, against a fresh one per side
    rng = random.Random(6)
    rows, row, col = random_system(rng, max_n=4, max_m=3)
    solver = modular.CongruenceSolver(rows, row, col)
    for _ in range(50):
        rhs = tuple(rng.randrange(mm) for mm in row)
        assert solver.solve(rhs) == modular.CongruenceSolver(rows, row, col).solve(rhs)


def test_int64_refusal_at_and_past_the_bound():
    q = 2**31 - 1
    assert int64_limit(q) == 2
    mat = np.array([[q - 1, q - 2], [q - 3, 5]], dtype=np.int64)
    exps, v, vinv = modular.local_diagonalize(mat, q, 1)
    assert exps == [0, 0]
    assert_diagonalizes(mat, q, 1, exps, v, vinv)
    for shape in ((3, 3), (3, 1), (1, 3)):
        with pytest.raises(SizeCapExceeded, match=r"q=2147483647.*length 3.*2\^63"):
            modular.local_diagonalize(np.ones(shape, dtype=np.int64), q, 1)
    # at q = 3 the bound is met exactly by 2^61 terms; a zero-stride view
    # carries that shape without allocating it
    modular.check_int64_products(2, 2**61 - 1, "q=3")
    huge = np.broadcast_to(np.int8(0), (2**61, 1))
    with pytest.raises(SizeCapExceeded, match=r"length 2305843009213693952"):
        modular.local_diagonalize(huge, 3, 1)
    # 3^19: exactly int64_limit rows are accepted, one more is refused
    q, size = 3**19, int64_limit(3**19)
    modular.local_diagonalize(np.full((size, size), q - 1, dtype=np.int64), 3, 19)
    with pytest.raises(SizeCapExceeded):
        modular.local_diagonalize(np.zeros((size + 1, 1), dtype=np.int64), 3, 19)


def test_solver_refuses_systems_beyond_int64():
    # 4x5 systems mod 2^31 - 1 once returned "no solution" for solvable
    # right-hand sides after an int64 product wrapped; they are refused now
    q = 2**31 - 1
    rng = random.Random(8)
    for _ in range(200):
        rows = [tuple(rng.randrange(q) for _ in range(5)) for _ in range(4)]
        x0 = [rng.randrange(q) for _ in range(5)]
        rhs = [sum(a * b for a, b in zip(r, x0)) % q for r in rows]
        with pytest.raises(SizeCapExceeded, match=r"2\^63"):
            modular.CongruenceSolver(rows, [q] * 4, [q] * 5).solve(rhs)
    with pytest.raises(SizeCapExceeded):
        modular.congruence_kernel(rows, [q] * 4, [q] * 5)


# each once answered [(1,)], [(3, 0)] or [], or raised ZeroDivisionError or ValueError
NON_POSITIVE_MODULI = {
    "zero-row-modulus": (lambda: modular.congruence_kernel([[1]], [0], [2]), 0),
    "negative-row-modulus": (lambda: modular.congruence_kernel([[1]], [-2], [2]), -2),
    "negative-column-modulus": (lambda: modular.congruence_kernel([[1, 1]], [4], [4, -4]), -4),
    "zero-column-modulus": (lambda: modular.congruence_kernel([[1]], [2], [0]), 0),
    "no-columns-zero-row-modulus": (lambda: modular.congruence_kernel([[]], [0], []), 0),
    "solver-zero-row-modulus": (lambda: modular.CongruenceSolver([[1]], [0], [2]).solve([1]), 0),
    "subquotient-zero-modulus": (lambda: modular.subquotient((0,), [(1,)], []), 0),
}


@pytest.mark.parametrize("name", sorted(NON_POSITIVE_MODULI))
def test_non_positive_moduli_are_refused(name):
    call, modulus = NON_POSITIVE_MODULI[name]
    with pytest.raises(PreconditionError, match=rf"modulus {modulus} is not positive"):
        call()


def test_moduli_from_2_63_are_refused():
    # each of these once raised a bare OverflowError
    from corprod.abelian import AbSubgroup, FiniteAbelianGroup

    big = 2**64
    calls = [
        lambda: modular.quotient_presentation((big,), []),
        lambda: modular.subquotient((big,), [(2,)], []),
        lambda: AbSubgroup(FiniteAbelianGroup((big,)), ((2,),)).structure,
        lambda: modular.congruence_kernel([], [], (big,)),
    ]
    for call in calls:
        with pytest.raises(SizeCapExceeded, match=rf"modulus {big} >= 2\^63"):
            call()
    # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657: every prime power is small
    assert modular.quotient_presentation((2**63 - 1,), []).factors == (2**63 - 1,)


def test_prime_parts_factor_each_distinct_modulus_once(monkeypatch):
    moduli = (12, 4, 12, 1, 9, 4, 25, 12)
    calls = []
    monkeypatch.setattr(modular, "factorint", lambda m: calls.append(m) or lattice.factorint(m))
    modular._factor.cache_clear()
    parts = modular._prime_parts(moduli)
    assert sorted(calls) == [1, 4, 9, 12, 25]
    assert parts == [
        modular._PrimePart(2, 2, (0, 1, 2, 5, 7), (2, 2, 2, 2, 2)),
        modular._PrimePart(3, 2, (0, 2, 4, 7), (1, 1, 2, 1)),
        modular._PrimePart(5, 2, (6,), (2,)),
    ]


def test_a_cold_corpus_call_factors_each_distinct_modulus_once(monkeypatch):
    # the first 4 seed-0 instances with every cache emptied, the modulus
    # memo among them: 6 factorizations for 6 distinct moduli, where
    # factoring on every call made 260
    calls = []
    monkeypatch.setattr(modular, "factorint", lambda m: calls.append(m) or lattice.factorint(m))
    for cache in corprod_caches():
        if inspect.signature(cache.__wrapped__).parameters:
            cache.cache_clear()
    corpus.corpus_summary_records(0, 4, DEFAULT_COH_CAP, DEFAULT_ENUM_CAP)
    assert sorted(calls) == [2, 3, 4, 6, 8, 9]


def test_reduction_by_one_modulus_matches_np_mod():
    rng = np.random.default_rng(28)
    wide = [
        np.array([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1], dtype=np.int64),
        rng.integers(-(2**63), 2**63 - 1, size=(40, 30), dtype=np.int64, endpoint=True),
        rng.integers(-300, 300, size=(7, 5)),
        np.zeros((0, 4), dtype=np.int64),
    ]
    narrow = np.concatenate([[-128, -1, 0, 127], rng.integers(-128, 128, size=60)]).astype(np.int8)
    for q in (1, 2, 4, 2**62, 3, 9, 2**31 - 1):
        for x in wide:
            got, want = modular._mod(x, q), np.mod(x, q)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if q - 1 <= 127:
            got, want = modular._mod(narrow, q), np.mod(narrow, q)
            assert got.dtype == want.dtype == np.int8 and np.array_equal(got, want)
        else:
            # a modulus the dtype cannot hold is refused alike
            for reduce_ in (modular._mod, np.mod):
                with pytest.raises(OverflowError):
                    reduce_(narrow, q)


# ---------------------------------------------------------------------------
# the layer's outputs on a seeded panel, pinned by digest
# ---------------------------------------------------------------------------


def panel_matrix(rng, m, n, q, p):
    # signed entries beyond q, with rows and entries of higher valuation so
    # that every pivot level of Z/p^k occurs
    mat = rng.integers(-2 * q, 2 * q, size=(m, n))
    mat *= p ** rng.integers(0, 3, size=(m, 1))
    mat[rng.random((m, n)) < 0.3] *= p
    return mat.astype(np.int64)


def panel_system(rng, col, row):
    # a system compatible with the column moduli, as a module's would be
    return [
        [row[i] // math.gcd(row[i], c) * int(rng.integers(-3, 4)) for c in col]
        for i in range(len(row))
    ]


def panel_combos(rng, count, gens, moduli):
    # signed integer combinations of gens and of the relations of prod Z/moduli
    n = len(moduli)
    spanning = np.array(list(gens) + [[m if j == i else 0 for j in range(n)] for i, m in enumerate(moduli)])
    return (rng.integers(-9, 10, size=(count, len(spanning))) @ spanning.reshape(-1, n)).tolist()


def layer_panel(name):
    """What ``local_diagonalize``, ``congruence_kernel``, the solver and
    ``subquotient`` answer on one seeded panel, as nested lists of ints."""
    kind, _, arg = name.partition(":")
    rng = np.random.default_rng([2028, sum(map(ord, name))])
    out = []
    if kind == "local_diagonalize":
        q = int(arg)
        p, k = prime_power(q)
        for m, n in ((0, 3), (4, 0), (6, 9), (9, 6), (17, 11), (40, 40), (70, 65)):
            mat = panel_matrix(rng, m, n, q, p)
            exps, v, vinv = modular.local_diagonalize(mat, p, k)
            _, v_only, none = modular.local_diagonalize(mat, p, k, need_vinv=False)
            assert none is None
            out.append([exps, v.tolist(), vinv.tolist(), v_only.tolist()])
        return out
    moduli = tuple(int(m) for m in arg.split(","))
    n = len(moduli)
    if kind == "congruence_kernel":
        for m in (0, 1, 3, 2 * n + 1):
            row = [int(x) for x in rng.choice(moduli, size=m)]
            rows = panel_system(rng, moduli, row)
            solver = modular.CongruenceSolver(rows, row, moduli)
            xs = rng.integers(-20, 20, size=(3, n)).tolist()
            rhs = [[sum(a * b for a, b in zip(r, x)) for r in rows] for x in xs]
            rhs.append([int(x) for x in rng.integers(0, 50, size=m)])
            out.append([modular.congruence_kernel(rows, row, moduli), [solver.solve(b) for b in rhs]])
        return out
    for n_num, n_den in ((0, 0), (1, 0), (3, 1), (5, 3), (2 * n, 2 * n)):
        num = (rng.integers(-40, 40, size=(n_num, n)) * rng.choice([1, 2, 3], size=(n_num, 1))).tolist()
        den = panel_combos(rng, n_den, num, moduli)
        stack = panel_combos(rng, 7, num, moduli)
        for sq in (modular.subquotient(moduli, num, den), modular.quotient_presentation(moduli, den)):
            out.append([sq.factors, sq.reps, sq.classify_many(stack)])
    return out


# sha256 of the JSON of layer_panel(name), recorded while every reduction
# was np.mod and the relation rows were multiplied by V: masks and rows
# read off V must change no integer of it
LAYER_DIGESTS = {
    "local_diagonalize:2": "dc7a80f1d983440857d39024c391371a81807da698b324f181d270a33dd67b69",
    "local_diagonalize:3": "7e7428e96293479b16626ec8a6202e77e2d04d3d03e2337bb28570b20f7bb707",
    "local_diagonalize:4": "e79d4108509ed221ab08dda0a5652e0649242f3bd5cbcf8584c02a0325407334",
    "local_diagonalize:8": "2b798970974dd51b55b754e1c217a74b20fc9ee823591acee272b07a92c05b89",
    "local_diagonalize:9": "ac41741a4fe5a5c20346729aa4f96e898c7a3e4c30c9550e22a1df8277071423",
    "local_diagonalize:25": "5d722d58abf1e60d86ba213ac6f24904aa70cb38a650f72cc9c382b8fb009afc",
    "congruence_kernel:2,4,8": "3e52601afc66eb7093ae818f5940f597d85b90239e74661470716d511ae05133",
    "congruence_kernel:3,9": "72c923a4cf94542e9502b6f322b43d3774e4ecc64669c2c83ed6713351d652c2",
    "congruence_kernel:4,12": "24fa044272a124a1a8be9e2e056292c9cccc6c5fdcb24ba975c71423243683a0",
    "congruence_kernel:8,2,4,8": "0b588ecb6bbb18c880cf9bc58f79a7aec2482568577c50561d342139cd7e4c5a",
    "congruence_kernel:25,5,10": "f10f14fc03372879256f994470e7c783bc3bfd2f7503e715eaf8934678113129",
    "congruence_kernel:6,4,9,8": "acaf286860bfb7bec463a240ad980952d556304dc2de20cd03e7c678c2a51e15",
    "congruence_kernel:9,27,3": "c13e30da1942c74481c1e3059c08e707babefcd704591e9dbcf76ec3e0e6bf1f",
    "subquotient:2,4,8": "4c8a6876a36f2703ce358d9ddcf489c9b471e528a3ebcedbb20ae8e1b25f90c6",
    "subquotient:3,9": "613ea97b790d7b60fc890e8cca3ea4cab8855e4937dc4f0616450ba586ee9c77",
    "subquotient:4,12": "0c14be7506389933c81ae3ce8134c4e13b94a019218999fb01c6e233432326d5",
    "subquotient:8,2,4,8": "8565abdaf94a7f2da47b7d4d26efecc8437c462659415e2c4169d76078f74d9b",
    "subquotient:25,5,10": "6050abffe555805d79d8d6c0266f8591f5f788598595c749ea7f2582c9f8b7e2",
    "subquotient:6,4,9,8": "0d1475a1f9e80c68d3cf1c28b72a450beb43fad12df44396ba87d775b51bf3ea",
    "subquotient:9,27,3": "6b39b2fa45cb9a3db20b97b9535b53231be44897e9d7a015573a9086a3cb77db",
}


@pytest.mark.parametrize("name", sorted(LAYER_DIGESTS))
def test_layer_outputs_match_their_digests(name):
    modular._subquotient_cached.cache_clear()
    got = json.dumps(layer_panel(name), separators=(",", ":"))
    assert hashlib.sha256(got.encode()).hexdigest() == LAYER_DIGESTS[name]


# ---------------------------------------------------------------------------
# systems of at most four coordinates, refusals included, pinned by digest
# ---------------------------------------------------------------------------


def outcome(call, *args):
    # what a call returns, or the type and message of the refusal it raises
    try:
        return call(*args)
    except corprod.errors.CorprodError as exc:
        return [type(exc).__name__, str(exc)]


def small_subquotient(moduli, num, den, stack):
    sq = modular.subquotient(moduli, num, den)
    return [sq.factors, sq.reps, outcome(sq.classify_many, stack)]


def small_panel(name):
    """``congruence_kernel``, or ``subquotient`` with ``classify_many``, on
    seeded systems of 0-4 coordinates and 0-12 rows whose moduli are drawn
    from one mix, as nested lists of ints and of refusals."""
    kind, _, arg = name.partition(":")
    mix = tuple(int(m) for m in arg.split(","))
    rng = np.random.default_rng([2030, sum(map(ord, name))])
    out = []
    for n, m in itertools.product(range(5), range(13)):
        col = [int(x) for x in rng.choice(mix, size=n)]
        if kind == "congruence_kernel":
            row = [int(x) for x in rng.choice(mix, size=m)]
            out.append(outcome(modular.congruence_kernel, panel_system(rng, col, row), row, col))
            continue
        num = (rng.integers(-40, 40, size=(m, n)) * rng.choice([1, 2, 3], size=(m, 1))).tolist()
        if n == 0:
            out.append(outcome(small_subquotient, col, num, [], [[]] * 3))
            continue
        den = panel_combos(rng, int(rng.integers(0, 4)), num, col)
        stack = panel_combos(rng, 3, num, col)
        # now and then a vector that may lie outside the numerator
        if rng.random() < 0.25:
            den.append(rng.integers(-40, 40, size=n).tolist())
        if rng.random() < 0.25:
            stack.append(rng.integers(-40, 40, size=n).tolist())
        out.append(outcome(small_subquotient, col, num, den, stack))
    return out


def small_refusals():
    # each entry point at the boundaries it checks: a modulus of 0 and of
    # 2^63, and the int64 product bound, met at three rows mod 2^31 - 1
    q = 2**31 - 1
    calls = []
    for bad in (0, 2**63):
        calls += [
            (modular.congruence_kernel, [[1, 1]], [2], [2, bad]),
            (modular.congruence_kernel, [[1]], [bad], [2]),
            (small_subquotient, (3, bad), [[1, 1]], [], [[1, 1]]),
        ]
    calls += [
        (modular.congruence_kernel, [[1, 2]] * 3, [q] * 3, [q, q]),
        (modular.congruence_kernel, [[1, 2, 3]], [q], [q] * 3),
        (modular.congruence_kernel, [[1, 2]] * 2, [q] * 2, [q, q]),
        (small_subquotient, (q, q), [[1, 2]], [], [[2, 4]]),
        (small_subquotient, (q,), [[1]], [[2]], [[3]]),
        (small_subquotient, (q,), [[3]], [], [[6]]),
        (small_subquotient, (q,), [], [[1]], [[0]]),
    ]
    return [outcome(*call) for call in calls]


def test_the_small_path_builds_the_array_path_engines(monkeypatch):
    rng = np.random.default_rng(30)
    for moduli in ((2, 4, 8), (3, 9), (4, 12), (6,), (5, 25), (8, 2, 4, 8), (6, 10, 15)):
        n = len(moduli)
        for m in range(8):
            num = rng.integers(-40, 40, size=(m, n)) * rng.choice([1, 2, 3], size=(m, 1))
            den = np.array(panel_combos(rng, m % 3, num.tolist(), moduli), dtype=np.int64)
            den = den.reshape(len(den), n)
            for part in modular._prime_parts(moduli):
                small, small_reps = modular._present_prime_small(part, num.tolist(), den.tolist())
                array, array_reps = modular._present_prime(part, num, den)
                assert small.factors == array.factors
                for name in ("v_n", "pa", "v_kept"):
                    got, want = getattr(small, name), getattr(array, name)
                    assert got.dtype == want.dtype == np.int64 and not got.flags.writeable
                    assert got.shape == want.shape and np.array_equal(got, want)
                assert small_reps == array_reps.tolist()
            row = [int(x) for x in rng.choice(moduli, size=m)]
            rows = panel_system(rng, moduli, row)
            small = modular.congruence_kernel(rows, row, moduli)
            monkeypatch.setattr(modular, "_SMALL", 0)
            assert modular.congruence_kernel(rows, row, moduli) == small
            monkeypatch.undo()


# sha256 of the JSON of small_panel(name), and of small_refusals() under
# "refusals", recorded while every system ran the array path
SMALL_DIGESTS = {
    "congruence_kernel:2,4,8": "73fc7223f2a295bea9ac1e6cfe2d457e5103c2cccdcdbdcb0937f40d895ca444",
    "congruence_kernel:3,9": "1f6818ce6467b10316e43f788ccc6aad91add4503c5b9c91b290d65ab92bc303",
    "congruence_kernel:4,12": "76c1441c7949e0e45b177554193dfac3ae8a52c901b77b0b804f9d1bbc72739f",
    "congruence_kernel:6": "1404015055d45d5e4f0599fe308024be1eb73b0397ccff0f724114dd936341a1",
    "congruence_kernel:5,25": "50df187e691ec28771fc69c15d3b354da278698c9c98fe3c7dd189d761aa8f5a",
    "congruence_kernel:2147483647": "93fbd585c94cf87cf15129e74de6518761e0fe78f59a89e4e7d09e57bea7682d",
    "subquotient:2,4,8": "f0d78c383022492d70c1faa048421b4d175a593f0689ed8287a095edc4be889b",
    "subquotient:3,9": "bc6431a36a78a62e3c843e7822116d1e87cf723912ffa4609222c0e08b94c1c9",
    "subquotient:4,12": "d52ad7caa53a76d9c0c134e0b959412e9c2fd8305c5194fcc786c70494c4b6c4",
    "subquotient:6": "48af9986e0525a45bdb0381beed4dc4fca0ca0c2683075b5d40856f1651f3877",
    "subquotient:5,25": "57acde8809f6ffed7dc544386ab3557c6f5bb9744f0bf368586f5ca912a5e602",
    "subquotient:2147483647": "50413d69b394470f2c749d6a034b88c1c2bd2dda8accdb91e04eeb0a53cff8c6",
    "refusals": "2ed5e733f8107ef83baec9d30fc85416cc9461391a24f796bea187b22e723fe3",
}


@pytest.mark.parametrize("name", sorted(SMALL_DIGESTS))
def test_small_systems_match_their_digests(name):
    modular._subquotient_cached.cache_clear()
    panel = small_refusals() if name == "refusals" else small_panel(name)
    got = json.dumps(panel, separators=(",", ":"))
    assert hashlib.sha256(got.encode()).hexdigest() == SMALL_DIGESTS[name]
