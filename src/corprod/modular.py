"""Linear algebra over Z/p^k and finite abelian subquotients.

The heavy computations of the package (cocycle solution spaces, fixed
submodules, quotient presentations) all reduce to two primitives:

* ``congruence_kernel``     -- solve C.x = 0 with per-row and per-column
                               moduli, returning subgroup generators;
* ``subquotient``           -- present N/D for subgroups D <= N of a
                               finite coordinate group, with invariant
                               factors, representatives and a coordinate
                               map for arbitrary members of N.

Coordinates are batched: ``Subquotient.classify_many`` takes a stack of
vectors and answers it with one projection and two matrix products per
prime, and ``classify`` is ``classify_many`` of one vector.

Both work prime by prime, over one decomposition: ``_prime_parts``
splits moduli into p-primary parts, for ``subquotient`` over its moduli
and for ``congruence_kernel`` and ``CongruenceSolver`` over the column
and row moduli together (``_split_by_prime``).  Each distinct modulus is
factored once per process, by an int-keyed memo of ``MEMO_SIZE``
entries.  Modulo q = p^k every matrix is diagonalized exactly by
``local_diagonalize``, and the results are glued with the Chinese
remainder theorem; the p-part of a residue is lifted to the other primes
by one idempotent per component (``_lift_p_parts``).  The kernel returns
the column transform V and its inverse, never the row transform, since
every caller reads columns: kernels, images and coordinates.  Its paths
share one pivot rule and return the same int64 V and Vinv; each fork is
paid for by a workload (times on a 2-vCPU host):

* a matrix that is zero mod q gets the identity transforms at once.  On
  the colimit-tail benchmark 32 of 79 calls are zero, and the kernels
  take 6.1 ms with this shortcut and 6.7 ms without;
* ``_PACKED`` maps q = 2, 3, 4 to a kernel on bit-packed Python ints,
  one per column at q = 2 and two at q = 3 and 4 (see each kernel).  On
  the matrices of corpus seeds 0-8 they take 57, 197 and 97 ms at q = 2,
  3 and 4, where the numpy kernel takes 373, 545 and 365;
* every other q runs the numpy kernel, which finds pivot valuations
  arithmetically, so nothing is allocated in proportion to q;
* a system of at most ``_SMALL`` = 4 coordinates reaches no kernel:
  ``congruence_kernel`` with at most four columns, and each prime part
  of ``subquotient`` with at most four components, eliminate on lists of
  Python ints (``_diagonalize_small``) with the same pivot rule, and
  return the same integers with the same refusals in the same order.  At
  that size numpy's fixed cost per call is the time: through
  ``local_diagonalize`` the cold call of the first 4 seed-0 corpus
  instances is 15% slower.  Choosing the representation by problem size
  follows Dumas, Giorgi and Pernet (ACM TOMS 35, 2008).

A whole array is reduced mod one q by ``_mod``: ``x & (q - 1)`` when q
is a power of two, exact in two's complement for negative entries too,
and ``np.mod`` otherwise; reductions by per-column factors stay ``%``.
A congruence system whose rows all hold mod q is reduced once, not
scaled and reduced again.  The relation rows p^e_i.e_i of a prime part
of ``subquotient`` are never multiplied by the numerator's V: their
images are the rows of V scaled by p^e_i, read off V.
The longest dot product the kernel and its consumers form has
max(m, n) terms below q, so an m x n system is refused with
``SizeCapExceeded`` before any allocation when max(m, n, 1).(q-1)^2
reaches 2^63; every entry point refuses a modulus below 1, or of 2^63 or
more, before factoring it.  A pure integer fallback
(``subquotient_int``) built on the Smith normal form is kept as an
independent oracle for the tests.

``subquotient`` is memoized: the same subgroups are presented many times
over (rebuilt but equal ``AbSubgroup``s, the quotients of the oracle and
the direct sums over the fibers), so once the moduli are checked and the
generators stacked, the presentation is looked up in an
``lru_cache`` of ``MEMO_SIZE`` entries keyed by the moduli and the
int64 stacks exactly as given, not reduced.  A hit is therefore exactly
what a miss would compute, and the shared ``Subquotient`` is frozen with
read-only arrays.  A refusal or a failed membership check raises again
on every call, as ``lru_cache`` keeps no exception.  The oracles
``subquotient_int`` and ``congruence_kernel_int`` are not memoized, nor
is ``congruence_kernel``.  Its systems do repeat (55 of the 118 in a cold
call of the first 4 seed-0 corpus instances, 0.8 ms of solves on a
2-vCPU host), but a memo would keep every distinct system alive as a key
for the life of the process (63 systems, 120 KiB of rows, there).
``MEMO_SIZE`` comes from ``errors`` and bounds every other input-keyed
cache of the package too.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import or_
from typing import Callable

import numpy as np

from . import lattice
from .errors import MEMO_SIZE, PreconditionError, SizeCapExceeded, VerificationFailure
from .lattice import Vector, factorint
from .records import field, record

def check_int64_products(bound: int, length: int, what: str, other: int | None = None) -> None:
    """Refuse when a dot product of ``length`` terms, each the product of
    an integer of absolute value at most ``bound`` and one at most ``other``
    (default ``bound``), could reach 2^63."""
    other = bound if other is None else other
    worst = max(length, 1) * bound * other
    if worst >= 2**63:
        times = "" if other == bound else f" times entries up to {other}"
        raise SizeCapExceeded(
            f"{what}: dot products of length {length} over entries up to {bound}{times} "
            f"reach {worst} >= 2^63, beyond exact int64 arithmetic"
        )


def check_moduli(moduli, what: str = "modulus") -> None:
    """Refuse a modulus below 1, and one of 2^63 or more before it is
    factored or cast to int64."""
    for m in moduli:
        if m < 1:
            raise PreconditionError(f"{what} {m} is not positive")
        if m >= 2**63:
            raise SizeCapExceeded(f"{what} {m} >= 2^63, beyond exact int64 arithmetic")


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """``np.mod(x, q)`` for an integer array and one modulus q >= 1, with
    the same values and dtype: ``x & (q - 1)`` when q is a power of two,
    which is exact in two's complement, negative entries included."""
    return x & (q - 1) if q & (q - 1) == 0 else np.mod(x, q)


def local_diagonalize(mat: np.ndarray, p: int, k: int, need_vinv: bool = True):
    """Diagonalize ``mat`` over Z/p^k by its column transform.

    Returns ``(exps, V, Vinv)``: V is invertible mod p^k, and column j of
    M.V is p^exps[j] times column j of some invertible matrix, and zero
    past ``len(exps)`` (k encodes a zero block), so M is equivalent to
    diag(p^exps).  The row transform is never formed: every caller reads
    columns.  With ``need_vinv=False`` Vinv is not tracked and None is
    returned in its place; exps and V do not depend on the flag.  The pivot
    at each step is the first entry of least valuation, in row-major order,
    of the remaining block.
    """
    q = p**k
    m, n = mat.shape
    check_int64_products(q - 1, max(m, n), f"modulus q={q}")
    # no pivot: the identities every kernel returns, without a kernel's fixed
    # cost.  The first nonzero entry, found without dividing, rules out most
    # other matrices: dividing every entry costs more than the kernels save
    if (mat.size == 0 or mat.item((mat != 0).argmax()) % q == 0) and not _mod(mat, q).any():
        return [], np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64) if need_vinv else None
    packed = _PACKED.get(q)
    if packed is not None:
        return packed(mat, need_vinv)
    return _zq_diagonalize(mat, p, k, need_vinv)


def _zq_diagonalize(mat: np.ndarray, p: int, k: int, need_vinv: bool = True):
    """The numpy kernel of :func:`local_diagonalize`, for any q = p^k."""
    q = p**k
    m, n = mat.shape
    a = _mod(np.asarray(mat, dtype=np.int64), q)
    v = np.eye(n, dtype=np.int64)
    vinv = np.eye(n, dtype=np.int64) if need_vinv else None
    exps: list[int] = []
    for t in range(min(m, n)):
        block = a[t:, t:]
        # least valuation j: the first level at which some entry is nonzero mod p^(j+1)
        for j in range(k):
            mask = block != 0 if j == k - 1 else block % p ** (j + 1) != 0
            bi, bj = divmod(int(mask.argmax()), n - t)
            if mask[bi, bj]:
                break
        else:
            break
        bi, bj = bi + t, bj + t
        if bi != t:
            a[[t, bi], t:] = a[[bi, t], t:]
        if bj != t:
            a[t:, [t, bj]] = a[t:, [bj, t]]
            v[:, [t, bj]] = v[:, [bj, t]]
            if need_vinv:
                vinv[[t, bj], :] = vinv[[bj, t], :]
        pj = p**j
        inv = pow(int(a[t, t]) // pj, -1, q)
        if inv != 1:
            a[t, t:] = (a[t, t:] * inv) % q
        # pivot is now exactly p^j; clear the rows with a nonzero entry in
        # column t, then the columns with a nonzero entry in row t.  Only
        # the block a[t+1:, t+1:] is read again, so clearing row t needs no
        # update of a.
        rows = np.flatnonzero(a[t + 1:, t]) + (t + 1)
        if rows.size:
            w = a[rows, t] // pj
            a[rows, t:] = (a[rows, t:] - w[:, None] * a[t, t:]) % q
        cols = np.flatnonzero(a[t, t + 1:]) + (t + 1)
        if cols.size:
            # col_j -= w_j * col_t;  inverse acts on Vinv as row_t += w . rows
            w = a[t, cols] // pj
            v[:, cols] = (v[:, cols] - v[:, t, None] * w) % q
            if need_vinv:
                vinv[t, :] = (vinv[t, :] + w @ vinv[cols, :]) % q
        exps.append(j)
    return exps, v, vinv


def _pack(bits: np.ndarray) -> list[int]:
    # each row of a 0/1 array as one int, bit j = column j
    nb = (bits.shape[1] + 7) // 8
    data = np.packbits(bits, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(data[i * nb:(i + 1) * nb], "little") for i in range(len(bits))]


def _unpack(words: list[int], width: int) -> np.ndarray:
    # the inverse of _pack: one row of ``width`` bits per int, as uint8
    nb = (width + 7) // 8
    data = b"".join(w.to_bytes(nb, "little") for w in words)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(words), nb)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def _gf2_diagonalize(mat: np.ndarray, need_vinv: bool = True):
    """:func:`local_diagonalize` at q = 2 on bit-packed Python ints: the
    same pivot rule, so the same ``(exps, V, Vinv)`` as the numpy kernel.

    Column c of the work matrix is one int, bit i being row i; V is kept
    by columns and Vinv by rows, with column swaps as list swaps.  Rows of
    the work matrix are never swapped.  A row that is zero on the remaining
    block stays zero, and the kernel only ever swaps such a row with its
    pivot row, so the rows still nonzero on the block keep their order:
    the kernel's first nonzero row in row-major order is the lowest row,
    not yet a pivot, that is nonzero on the block.
    """
    m, n = mat.shape
    cols = _pack(_mod(np.asarray(mat, dtype=np.int64), 2).astype(np.uint8).T)
    v = [1 << c for c in range(n)]       # columns of V
    vinv = [1 << c for c in range(n)] if need_vinv else None  # rows of Vinv
    live = (1 << m) - 1                  # rows not yet a pivot
    rank = 0
    for t in range(min(m, n)):
        acc = reduce(or_, cols[t:], 0) & live
        if not acc:
            break
        low = acc & -acc                 # the pivot row's bit
        bj = t
        while not cols[bj] & low:
            bj += 1
        if bj != t:
            cols[t], cols[bj] = cols[bj], cols[t]
            v[t], v[bj] = v[bj], v[t]
            if need_vinv:
                vinv[t], vinv[bj] = vinv[bj], vinv[t]
        live ^= low
        rows = cols[t] & live            # the rows the pivot clears
        vt, row_t = v[t], (vinv[t] if need_vinv else 0)
        for c in range(t + 1, n):
            if cols[c] & low:
                cols[c] ^= rows
                v[c] ^= vt
                if need_vinv:
                    row_t ^= vinv[c]
        if need_vinv:
            vinv[t] = row_t
        rank += 1
    return (
        [0] * rank,
        _unpack(v, n).T.astype(np.int64, order="C"),
        _unpack(vinv, n).astype(np.int64) if need_vinv else None,
    )


def _pack_planes(mat: np.ndarray, q: int) -> tuple[list[int], list[int]]:
    # the columns of mat mod q (3 or 4) as two planes of ints, bit i = row i:
    # the low digit (set on 1 and 3) and the high digit (set on 2 and 3)
    a = _mod(np.asarray(mat, dtype=np.int64), q).astype(np.uint8).T
    words = _pack(np.concatenate((a & 1, a >> 1)))
    return words[: len(a)], words[len(a):]


def _unpack_planes(lo: list[int], hi: list[int], width: int) -> np.ndarray:
    # the inverse of _pack_planes, one int64 row of lo + 2.hi per pair of ints
    bits = _unpack(lo + hi, width).astype(np.int64)
    return bits[: len(lo)] + 2 * bits[len(lo):]


def _swap(i: int, j: int, *lists: list) -> None:
    for x in lists:
        x[i], x[j] = x[j], x[i]


def _planes_result(exps, v, vinv, n: int):
    # (exps, V, Vinv) from the (lo, hi) planes of V's columns and Vinv's
    # rows (Vinv None when not tracked), which share one unpack
    vl, vh = v
    if vinv is not None:
        vl, vh = vl + vinv[0], vh + vinv[1]
    both = _unpack_planes(vl, vh, n)
    return exps, np.ascontiguousarray(both[:n].T), both[n:] if vinv is not None else None


def _gf3_diagonalize(mat: np.ndarray, need_vinv: bool = True):
    """:func:`local_diagonalize` at q = 3 on two bit-planes, the bitsliced
    form of Boothby and Bradshaw (arXiv:0901.1413): the same pivot rule,
    so the same ``(exps, V, Vinv)`` as the numpy kernel.

    Each column of the work matrix and of V, and each row of Vinv, is a
    pair of ints: ``lo`` marks the entries equal to 1 and ``hi`` those
    equal to 2.  Negation swaps the pair, and x + y is
    ``t = (x.lo | y.hi) ^ (x.hi | y.lo)``, ``((x.hi | y.hi) ^ t,
    (x.lo | y.lo) ^ t)``.  As over GF(2), rows of the work matrix are never
    swapped: the kernel's first nonzero row in row-major order is the lowest
    row, not yet a pivot, that is nonzero on the block.
    """
    m, n = mat.shape
    lo, hi = _pack_planes(mat, 3)                   # columns of the work matrix
    vl, vh = [1 << c for c in range(n)], [0] * n    # columns of V
    if need_vinv:
        il, ih = [1 << c for c in range(n)], [0] * n   # rows of Vinv
    live = (1 << m) - 1                              # rows not yet a pivot
    rank = 0
    for t in range(min(m, n)):
        acc = (reduce(or_, lo[t:], 0) | reduce(or_, hi[t:], 0)) & live
        if not acc:
            break
        low = acc & -acc                             # the pivot row's bit
        bj = t
        while not (lo[bj] | hi[bj]) & low:
            bj += 1
        if bj != t:
            _swap(t, bj, lo, hi, vl, vh, *((il, ih) if need_vinv else ()))
        live ^= low
        neg = hi[t] & low                            # a pivot of 2 scales its row by 2 = -1
        wl, wh = lo[t] & live, hi[t] & live          # the rows the pivot clears, by multiplier
        # -s.w and -s.v_t for a pivot-row entry s = 1, 2 (after scaling)
        minus_w = (None, (wh, wl), (wl, wh))
        minus_v = (None, (vh[t], vl[t]), (vl[t], vh[t]))
        al, ah = (il[t], ih[t]) if need_vinv else (0, 0)
        for c in range(t + 1, n):
            x, y = lo[c], hi[c]
            if x & low:
                s = 2 if neg else 1
            elif y & low:
                s = 1 if neg else 2
            else:
                continue
            zl, zh = minus_w[s]
            z = (x | zh) ^ (y | zl)
            lo[c], hi[c] = (y | zh) ^ z, (x | zl) ^ z
            x, y = vl[c], vh[c]
            zl, zh = minus_v[s]
            z = (x | zh) ^ (y | zl)
            vl[c], vh[c] = (y | zh) ^ z, (x | zl) ^ z
            if need_vinv:
                zl, zh = (il[c], ih[c]) if s == 1 else (ih[c], il[c])
                z = (al | zh) ^ (ah | zl)
                al, ah = (ah | zh) ^ z, (al | zl) ^ z
        if need_vinv:
            il[t], ih[t] = al, ah
        rank += 1
    return _planes_result([0] * rank, (vl, vh), (il, ih) if need_vinv else None, n)


def _z4_diagonalize(mat: np.ndarray, need_vinv: bool = True):
    """:func:`local_diagonalize` at q = 4 on two digit planes: the same
    pivot rule, so the same ``(exps, V, Vinv)`` as the numpy kernel.

    Each column of the work matrix and of V, and each row of Vinv, is a
    pair of ints, the low and the high binary digit of its entries;
    x + y is ``(x.lo ^ y.lo, x.hi ^ y.hi ^ (x.lo & y.lo))`` and -x is
    ``(x.lo, x.hi ^ x.lo)``.  An entry is a unit exactly when its low digit
    is set, so the pivot search reads the low planes, and the high planes
    only once no unit is left.  Unlike over a field, rows are really
    swapped: rows above the first unit can still hold 2s, so the kernel's
    row swap moves a nonzero row, and bits t and bi change places in every
    column still read.
    """
    m, n = mat.shape
    lo, hi = _pack_planes(mat, 4)                   # columns of the work matrix
    vl, vh = [1 << c for c in range(n)], [0] * n    # columns of V
    if need_vinv:
        il, ih = [1 << c for c in range(n)], [0] * n   # rows of Vinv
    exps: list[int] = []
    for t in range(min(m, n)):
        bit = 1 << t
        acc = reduce(or_, lo[t:], 0) >> t << t
        j, plane = 0, lo
        if not acc:
            acc = reduce(or_, hi[t:], 0) >> t << t
            if not acc:
                break
            j, plane = 1, hi
        low = acc & -acc                             # the pivot row's bit
        bj = t
        while not plane[bj] & low:
            bj += 1
        if bj != t:
            _swap(t, bj, lo, hi, vl, vh, *((il, ih) if need_vinv else ()))
        if low != bit:
            both = bit | low
            for c in range(t, n):
                if (not lo[c] & bit) != (not lo[c] & low):
                    lo[c] ^= both
                if (not hi[c] & bit) != (not hi[c] & low):
                    hi[c] ^= both
        neg = not j and hi[t] & bit                  # a pivot of 3 scales its row by 3 = -1
        scale = (0, 3, 2, 1) if neg else (0, 1, 2, 3)
        below = -(bit << 1)                          # rows t+1 and down
        if j == 0:
            wl, wh = lo[t] & below, hi[t] & below   # the multipliers a[r, t]
        else:
            wl, wh = hi[t] & below, 0                # a[r, t] = 2 is cleared once
        # -s.w and -s.v_t for a pivot-row entry s = 1, 2, 3 (after scaling)
        minus_w = (None, (wl, wh ^ wl), (0, wl), (wl, wh))
        minus_v = (None, (vl[t], vh[t] ^ vl[t]), (0, vl[t]), (vl[t], vh[t]))
        al, ah = (il[t], ih[t]) if need_vinv else (0, 0)
        for c in range(t + 1, n):
            x, y = lo[c], hi[c]
            s = scale[(1 if x & bit else 0) | (2 if y & bit else 0)]
            if not s:
                continue
            zl, zh = minus_w[s]
            lo[c], hi[c] = x ^ zl, y ^ zh ^ (x & zl)
            s >>= j                                  # the column multiplier s / p^j
            zl, zh = minus_v[s]
            x = vl[c]
            vl[c], vh[c] = x ^ zl, vh[c] ^ zh ^ (x & zl)
            if need_vinv:
                x, y = il[c], ih[c]
                zl, zh = (x, y) if s == 1 else (0, x) if s == 2 else (x, y ^ x)
                al, ah = al ^ zl, ah ^ zh ^ (al & zl)
        if need_vinv:
            il[t], ih[t] = al, ah
        exps.append(j)
    return _planes_result(exps, (vl, vh), (il, ih) if need_vinv else None, n)


# the packed kernels of local_diagonalize, by q; every other q runs _zq_diagonalize
_PACKED = {2: _gf2_diagonalize, 3: _gf3_diagonalize, 4: _z4_diagonalize}


# a system of at most this many coordinates is solved on Python ints by
# _diagonalize_small, where numpy's fixed cost per call outweighs the arithmetic
_SMALL = 4


def _diagonalize_small(a: list[list[int]], n: int, p: int, k: int, need_vinv: bool = True):
    """:func:`local_diagonalize` on Python ints, for the few columns of a
    small system: the same pivot rule, so the same ``(exps, V, Vinv)``, with
    V and Vinv as lists of rows.  ``a`` is a list of rows of ``n`` entries
    reduced mod p^k, eliminated in place.  Nothing here can wrap, so the
    caller makes the refusal ``local_diagonalize`` would make.
    """
    q = p**k
    m = len(a)
    v = [[int(i == j) for i in range(n)] for j in range(n)]  # columns of V
    vinv = [[int(i == j) for i in range(n)] for j in range(n)] if need_vinv else None
    exps: list[int] = []
    for t in range(min(m, n)):
        j, bi, bj = _small_pivot(a, t, n, p, k)
        if j == k:
            break
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a[t:]:
                row[t], row[bj] = row[bj], row[t]
            _swap(t, bj, v, *((vinv,) if need_vinv else ()))
        pj = p**j
        top = a[t]
        inv = pow(top[t] // pj, -1, q)
        if inv != 1:
            top[t:] = [x * inv % q for x in top[t:]]
        # pivot is now exactly p^j; as in the numpy kernel, clear the rows
        # below it, then the columns right of it in V and Vinv only
        for row in a[t + 1:]:
            if row[t]:
                w = row[t] // pj
                row[t:] = [(x - w * y) % q for x, y in zip(row[t:], top[t:])]
        vt = v[t]
        for c in range(t + 1, n):
            if top[c]:
                w = top[c] // pj
                v[c] = [(x - w * y) % q for x, y in zip(v[c], vt)]
                if need_vinv:
                    vinv[t] = [(x + w * y) % q for x, y in zip(vinv[t], vinv[c])]
        exps.append(j)
    return exps, [list(row) for row in zip(*v)], vinv


def _small_pivot(a: list[list[int]], t: int, n: int, p: int, k: int) -> tuple[int, int, int]:
    # (valuation, row, column) of the first entry of least valuation, in
    # row-major order, of the block a[t:, t:]; valuation k when it is zero
    best = (k, t, t)
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, n):
            x = row[j]
            if x:
                e = 0
                while x % p == 0:
                    x //= p
                    e += 1
                if e < best[0]:
                    best = (e, i, j)
                    if not e:
                        return best
    return best


def _kernel_gens_mod(mat: np.ndarray, p: int, k: int) -> tuple[np.ndarray, list[int]]:
    """Generators of {x in (Z/p^k)^n : mat.x = 0 mod p^k} (column kernel),
    one row each: column j of V scaled by p^(k - a_j), for a_j > 0.  Some
    rows may be zero.  Also returns the valuations a_j of the n diagonal
    entries (k for a zero), so the image has order p^sum(k - a_j)."""
    m, n = mat.shape
    if m == 0:
        return np.eye(n, dtype=np.int64), [k] * n
    exps, v, _ = local_diagonalize(mat, p, k, need_vinv=False)
    a = exps + [k] * (n - len(exps))
    keep = [j for j in range(n) if a[j] > 0]
    # entries below q times p^(k-1): within the kernel's own refusal bound
    scale = np.array([p ** (k - a[j]) for j in keep], dtype=np.int64)
    return _mod(v[:, keep] * scale, p**k).T, a


# ---------------------------------------------------------------------------
# prime decomposition of a coordinate group
# ---------------------------------------------------------------------------


@record(frozen=True)
class _PrimePart:
    prime: int
    k: int                       # exponent precision: p^k kills the part
    comps: tuple[int, ...]       # ambient components with p | modulus
    exps: tuple[int, ...]        # p-adic exponent of each such component

    def project(self, stack: np.ndarray) -> np.ndarray:
        # rows of an int64 stack, restricted to this prime's components mod p^k
        return _mod(stack[:, list(self.comps)], self.prime**self.k)


@lru_cache(maxsize=MEMO_SIZE)
def _factor(m: int) -> tuple[tuple[int, int], ...]:
    # one modulus factored once per process, as immutable (prime, exponent)
    # pairs, since every caller shares the result
    return tuple(factorint(m).items())


def _prime_parts(moduli) -> list[_PrimePart]:
    """The p-primary parts of prod Z/moduli, by ascending prime: the
    layer's one prime decomposition.  The caller has checked the moduli."""
    exp_of: dict[int, dict[int, int]] = {}  # p -> {modulus: exponent of p}
    for m in set(moduli):
        for p, e in _factor(m):
            exp_of.setdefault(p, {})[m] = e
    parts = []
    for p in sorted(exp_of):
        # the exponent of p in each component, 0 where p does not divide
        exps = list(map(exp_of[p].get, moduli, repeat(0)))
        comps = tuple(compress(range(len(exps)), exps))
        parts.append(_PrimePart(p, max(exps), comps, tuple(filter(None, exps))))
    return parts


def _as_stack(vecs, moduli) -> np.ndarray:
    """A sequence of vectors as an int64 array of shape (len, len(moduli)).
    Entries beyond int64 are first reduced mod their component's modulus,
    which the entry points have refused at 2^63 or more."""
    n = len(moduli)
    try:
        arr = np.asarray(vecs, dtype=np.int64)
    except OverflowError:
        arr = np.mod(np.asarray(vecs, dtype=object).reshape(-1, n), moduli).astype(np.int64)
    return arr.reshape(len(arr), n)


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    # residue mod m1*m2 agreeing with r1 mod m1 and r2 mod m2 (coprime)
    g = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * g % m2)) % (m1 * m2)


def _lift_p_parts(stack, p: int, exps, moduli) -> np.ndarray:
    """Entry (i, j) of an integer stack, read mod p^exps[j], lifted to the
    residue mod moduli[j] that is 0 at every other prime (0 where exps[j]
    is 0), as an int64 array of the stack's shape.

    The lift is multiplication by the idempotent that is 1 mod p^e and 0
    mod the cofactor.  When that product could reach 2^63 in some column,
    the stack is multiplied on Python ints.
    """
    pe = [p**e for e in exps]
    r = np.asarray(stack, dtype=np.int64).reshape(len(stack), len(pe))
    r = r % np.array(pe, dtype=np.int64)
    if pe == list(moduli):
        return r  # every idempotent is 1
    idem = [(m // q) * pow(m // q, -1, q) % m for m, q in zip(moduli, pe)]
    dt = object if any((q - 1) * e >= 2**63 for q, e in zip(pe, idem)) else np.int64
    lifted = r.astype(dt, copy=False) * np.array(idem, dtype=dt) % np.array(moduli, dtype=dt)
    return lifted.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# subquotients
# ---------------------------------------------------------------------------


@record(frozen=True)
class Subquotient:
    """Presentation of N/D for subgroups D <= N of prod Z/moduli.

    ``factors`` are the invariant factors (ascending divisibility chain),
    ``reps`` lifts one generator per factor back into the ambient group,
    and ``classify_many`` maps a stack of elements of N, any integer
    array-like of shape (count, len(ambient)), to their coordinate
    vectors in ``prod Z/factors``, a tuple of tuples of Python ints.
    ``classify`` is ``classify_many`` of one vector.  A row outside N
    raises ``VerificationFailure``.
    """

    ambient: tuple[int, ...]
    factors: tuple[int, ...]
    reps: tuple[Vector, ...]
    _classify_many: Callable[[object], tuple[Vector, ...]] = field(repr=False)

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    def classify_many(self, vecs) -> tuple[Vector, ...]:
        return self._classify_many(vecs)

    def classify(self, vec) -> Vector:
        return self.classify_many([vec])[0]


class _PrimarySubquotient:
    """The p-primary engine behind :class:`Subquotient`: what ``classify``
    reads, and nothing else.  Its arrays are read-only, since one engine
    may serve many callers (see ``subquotient``)."""

    def __init__(self, part: _PrimePart, v_n, pa, v_kept, factors: tuple[int, ...]):
        self.part, self.q = part, part.prime**part.k
        self.v_n, self.pa, self.v_kept, self.factors = v_n, pa, v_kept, factors
        for arr in (v_n, pa, v_kept):
            arr.flags.writeable = False

    def classify(self, stack: np.ndarray) -> np.ndarray:
        # coordinates of every row of an ambient int64 stack, one row each
        y = _coords_in_basis(self.part.project(stack) @ self.v_n, self.pa, self.q)
        z = _mod(y @ self.v_kept, self.q)
        return z % np.array(self.factors, dtype=np.int64)


def _coords_in_basis(dv: np.ndarray, pa: np.ndarray, q: int) -> np.ndarray:
    # coordinates in the basis p^{a_i} * Vinv_n[i] of the rows of d, given
    # as dv = d @ V_n, or for a relation row p^e * e_i as p^e * V_n[i].
    # The kernel's refusal of the numerator covers both: d @ V_n has
    # length-n dot products of entries below q, and p^e * V_n[i] single
    # products of entries up to q
    y = _mod(dv, q)
    if np.any(y % pa):
        raise VerificationFailure("vector is not in the numerator subgroup")
    return y // pa


def _present_prime(part: _PrimePart, num: np.ndarray, den: np.ndarray):
    """The p-primary engine of <num>/<den>, and the ambient vectors of the
    generators of its factors, one row each.  The vectors are read once,
    while the primes are glued, so the engine does not keep them."""
    p, k = part.prime, part.k
    q = p**k
    n = len(part.comps)
    pe = np.array([p**e for e in part.exps], dtype=np.int64)
    num_mat = np.vstack([part.project(num), np.diag(pe)])
    exps, v_n, vinv_n = local_diagonalize(num_mat, p, k)
    # pad the diagonal to full width; missing columns are zero mod q
    a = [exps[i] if i < len(exps) else k for i in range(n)]
    pa = np.array([p**ai for ai in a], dtype=np.int64)
    # the denominator's rows, then the relation rows p^e_i * e_i, whose
    # product with V_n is row i of V_n scaled by p^e_i
    dv = np.vstack([part.project(den) @ v_n, v_n * pe[:, None]])
    c_mat = np.vstack([_coords_in_basis(dv, pa, q), np.diag(q // pa)])
    b_exps, v_c, vinv_c = local_diagonalize(c_mat, p, k)
    b = [b_exps[i] if i < len(b_exps) else k for i in range(n)]
    kept = [i for i in range(n) if b[i] > 0]
    engine = _PrimarySubquotient(part, v_n, pa, v_c[:, kept], tuple(p ** b[i] for i in kept))
    y = _mod(vinv_c[kept, :] * pa, q)
    return engine, _mod(y @ vinv_n, q)


def _present_prime_small(part: _PrimePart, num: list[list[int]], den: list[list[int]]):
    """:func:`_present_prime` on Python ints, for a part of at most
    ``_SMALL`` components: the same engine and the same generators, and the
    same refusals in the same order.  ``num`` and ``den`` are the ambient
    rows as lists."""
    p, k = part.prime, part.k
    q = p**k
    n = len(part.comps)
    pe = [p**e for e in part.exps]
    num_mat = [[row[c] % q for c in part.comps] for row in num]
    num_mat += [[pe[i] % q if j == i else 0 for j in range(n)] for i in range(n)]
    check_int64_products(q - 1, max(len(num_mat), n), f"modulus q={q}")
    exps, v_n, vinv_n = _diagonalize_small(num_mat, n, p, k)
    pa = [p**ai for ai in exps + [k] * (n - len(exps))]
    # the denominator's rows times V_n, then the relation rows read off V_n
    dv = [[sum(row[c] * v[j] for c, v in zip(part.comps, v_n)) for j in range(n)] for row in den]
    dv += [[x * e for x in v] for v, e in zip(v_n, pe)]
    c_mat = []
    for row in dv:
        y = [x % q for x in row]
        if any(x % a for x, a in zip(y, pa)):
            raise VerificationFailure("vector is not in the numerator subgroup")
        c_mat.append([x // a for x, a in zip(y, pa)])
    c_mat += [[q // pa[i] % q if j == i else 0 for j in range(n)] for i in range(n)]
    check_int64_products(q - 1, max(len(c_mat), n), f"modulus q={q}")
    b_exps, v_c, vinv_c = _diagonalize_small(c_mat, n, p, k)
    b = b_exps + [k] * (n - len(b_exps))
    kept = [i for i in range(n) if b[i] > 0]
    engine = _PrimarySubquotient(
        part,
        np.array(v_n, dtype=np.int64).reshape(n, n),
        np.array(pa, dtype=np.int64),
        np.array([[row[i] for i in kept] for row in v_c], dtype=np.int64).reshape(n, len(kept)),
        tuple(p ** b[i] for i in kept),
    )
    # row i of Vinv_c scaled by pa, then taken back through Vinv_n
    ys = [[x * a % q for x, a in zip(vinv_c[i], pa)] for i in kept]
    reps = [[sum(y * w[c] for y, w in zip(row, vinv_n)) % q for c in range(n)] for row in ys]
    return engine, reps


def subquotient(moduli, num_gens, den_gens) -> Subquotient:
    """Present the quotient of subgroups <num_gens> / <den_gens> of
    prod Z/moduli.  The denominator must be contained in the numerator.

    The presentation is memoized on the int64 stacks of the generators
    exactly as given, so equal inputs share one immutable result.
    """
    moduli = tuple(int(m) for m in moduli)
    check_moduli(moduli)
    num, den = _as_stack(num_gens, moduli), _as_stack(den_gens, moduli)
    return _subquotient_cached(moduli, len(num), num.tobytes(), len(den), den.tobytes())


@lru_cache(maxsize=MEMO_SIZE)
def _subquotient_cached(moduli, n_num: int, num_bytes: bytes, n_den: int, den_bytes: bytes):
    n = len(moduli)
    num = np.frombuffer(num_bytes, dtype=np.int64).reshape(n_num, n)
    den = np.frombuffer(den_bytes, dtype=np.int64).reshape(n_den, n)
    lists = None  # the stacks as lists of rows, made for the first small part
    presented = []
    for part in _prime_parts(moduli):
        if len(part.comps) > _SMALL:
            presented.append(_present_prime(part, num, den))
            continue
        lists = lists or (num.tolist(), den.tolist())
        presented.append(_present_prime_small(part, *lists))
    engines = [e for e, _ in presented]

    # align the per-prime factor lists so that the largest factors pair up
    length = max((len(e.factors) for e in engines), default=0)
    aligned: list[list[tuple[_PrimarySubquotient, int] | None]] = []
    factors = [1] * length
    reps = [[0] * len(moduli) for _ in range(length)]
    for e, e_reps in presented:
        start = length - len(e.factors)
        aligned.append([None] * start + [(e, i) for i in range(len(e.factors))])
        if not e.factors:
            continue
        # lift the p-parts without touching the other primes, then add
        # them up on Python ints
        comps = e.part.comps
        lifted = _lift_p_parts(e_reps, e.part.prime, e.part.exps, [moduli[c] for c in comps])
        for i, (f, row) in enumerate(zip(e.factors, lifted.tolist())):
            factors[start + i] *= f
            rep = reps[start + i]
            for c, x in zip(comps, row):
                rep[c] = (rep[c] + x) % moduli[c]

    def classify_many(vecs) -> tuple[Vector, ...]:
        stack = _as_stack(vecs, moduli)
        # every engine checks membership, even one that keeps no factor
        per_engine = [e.classify(stack).tolist() for e in engines]
        if len(engines) == 1:
            return tuple(map(tuple, per_engine[0]))
        # glue each position on Python ints: a glued factor can pass 2^63
        out = []
        for row in range(len(stack)):
            coords = []
            for pos in range(length):
                residue, modulus = 0, 1
                for col, coords_e in zip(aligned, per_engine):
                    slot = col[pos]
                    if slot is None:
                        continue
                    engine, i = slot
                    residue = _crt_pair(residue, modulus, coords_e[row][i], engine.factors[i])
                    modulus *= engine.factors[i]
                coords.append(residue)
            out.append(tuple(coords))
        return tuple(out)

    return Subquotient(moduli, tuple(factors), tuple(map(tuple, reps)), classify_many)


def subgroup_presentation(moduli, gens) -> Subquotient:
    """Structure of the subgroup generated by ``gens`` (quotient by 0)."""
    return subquotient(moduli, list(gens), [])


def quotient_presentation(moduli, den_gens) -> Subquotient:
    """Structure of (prod Z/moduli) / <den_gens>, with coordinate map."""
    # the identity as an array: a memo hit then costs no Python loop over it
    return subquotient(moduli, np.eye(len(moduli), dtype=np.int64), list(den_gens))


# ---------------------------------------------------------------------------
# congruence kernels
# ---------------------------------------------------------------------------


def _split_by_prime(rows, row_moduli, col_moduli):
    """Split rows . x = b (mod row_moduli) into one system mod q = p^k per
    prime part of the column and row moduli together.  Returns a list of
    ``(p, k, col_exps, keep, scales, mat)``: the p-adic exponent of each
    column modulus, the rows whose modulus p divides, the factor p^(k-e)
    that makes each of them hold mod q, and those rows scaled and reduced
    mod q as an int64 array.  Every refusal is made here, the kernel's own
    included."""
    n = len(col_moduli)
    check_moduli((*col_moduli, *row_moduli))
    full = np.asarray(rows, dtype=np.int64).reshape(len(rows), n)
    split = []
    for part in _prime_parts((*col_moduli, *row_moduli)):
        p, k = part.prime, part.k
        q = p**k
        cut = bisect_left(part.comps, n)  # the column components come first
        col_exps = [0] * n
        for c, e in zip(part.comps[:cut], part.exps):
            col_exps[c] = e
        keep = [c - n for c in part.comps[cut:]]
        row_exps = part.exps[cut:]
        scales = [p ** (k - e) for e in row_exps]
        if keep:
            # made before any scaling can wrap
            check_int64_products(q - 1, max(len(keep), n), f"modulus q={q}")
        mat = _mod(full[keep], q)
        if min(row_exps, default=k) < k:
            mat = _mod(mat * np.array(scales, dtype=np.int64)[:, None], q)
        split.append((p, k, col_exps, keep, scales, mat))
    return split


def congruence_kernel(rows, row_moduli, col_moduli) -> list[Vector]:
    """Generators of {x in prod Z/col_moduli : rows . x = 0 mod row_moduli}.

    ``rows`` acts on column vectors; equation i must hold modulo
    ``row_moduli[i]``.  The system must be compatible with the column
    moduli (rows[i][j] * col_moduli[j] = 0 mod row_moduli[i]), which
    holds for every system assembled from valid module matrices.
    """
    split = _split_by_prime(rows, row_moduli, col_moduli)
    n = len(col_moduli)
    if not n:
        return []  # checked moduli, and nothing to diagonalize
    out: list[Vector] = []
    for p, k, col_exps, _, _, mat in split:
        if n <= _SMALL:
            # the generators of _kernel_gens_mod, on Python ints
            q = p**k
            d, v, _ = _diagonalize_small(mat.tolist(), n, p, k, need_vinv=False)
            a = d + [k] * (n - len(d))
            gens = [[row[j] * p ** (k - a[j]) % q for row in v] for j in range(n) if a[j] > 0]
        else:
            gens = _kernel_gens_mod(mat, p, k)[0]
        # keep the p-part of each component, zero at the other primes
        out.extend(tuple(g) for g in _lift_p_parts(gens, p, col_exps, col_moduli).tolist() if any(g))
    return out


# ---------------------------------------------------------------------------
# pure integer oracle
# ---------------------------------------------------------------------------


def subquotient_int(moduli, num_gens, den_gens) -> Subquotient:
    """Pure-integer reference implementation of :func:`subquotient`."""
    n = len(moduli)
    relations = [tuple(moduli[i] if j == i else 0 for j in range(n)) for i in range(n)]
    num_basis = lattice.hnf(list(num_gens) + relations, n)
    den_rows = list(den_gens) + relations
    coords = []
    for d in den_rows:
        y = lattice.solve_against_basis(num_basis, d)
        if y is None:
            raise VerificationFailure("denominator is not inside the numerator")
        coords.append(y)
    k = len(num_basis)
    diag, _, v, vinv = lattice.snf_transforms(
        coords if coords else [tuple(0 for _ in range(k))]
    )
    factors, reps = [], []
    for i in range(k):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            raise VerificationFailure("subquotient is not finite")
        if d == 1:
            continue
        factors.append(d)
        y = vinv[i]
        reps.append(lattice.vec_mod(lattice.vec_mat(y, num_basis), moduli))

    kept = [i for i in range(k) if (diag[i] if i < len(diag) else 0) != 1]

    def classify(vec: Vector) -> Vector:
        y = lattice.solve_against_basis(num_basis, vec)
        if y is None:
            raise VerificationFailure("vector is not in the numerator subgroup")
        z = lattice.vec_mat(y, v)
        return tuple(z[i] % diag[i] for i in kept)

    def classify_many(vecs) -> tuple[Vector, ...]:
        # row by row, on Python ints
        return tuple(classify(tuple(int(x) for x in vec)) for vec in vecs)

    return Subquotient(tuple(moduli), tuple(factors), tuple(reps), classify_many)


class CongruenceSolver:
    """Solver for rows . x = rhs (mod row_moduli) with x in prod
    Z/col_moduli.

    The system is split by prime once.  ``solve`` reads each prime's
    solution off the kernel of [M | -b] mod p^k: x solves M.x = b exactly
    when (x, 1) lies in that kernel, so a solution exists exactly when some
    kernel generator has a last entry prime to p, and that generator,
    scaled to make the entry 1, is one.  Same compatibility requirement as
    :func:`congruence_kernel`.
    """

    def __init__(self, rows, row_moduli, col_moduli):
        self.rows = [tuple(int(x) for x in r) for r in rows]
        self.row_moduli = [int(m) for m in row_moduli]
        self.col_moduli = [int(m) for m in col_moduli]
        self.systems = _split_by_prime(self.rows, self.row_moduli, self.col_moduli)

    def solve(self, rhs) -> Vector | None:
        """One solution x of rows . x = rhs (mod row_moduli), or None when
        the system is inconsistent."""
        rhs = [int(b) for b in rhs]
        solution = [0] * len(self.col_moduli)
        for p, k, col_exps, keep, scales, mat in self.systems:
            q = p**k
            minus_b = np.array([-rhs[i] * c % q for i, c in zip(keep, scales)], dtype=np.int64)
            gens = _kernel_gens_mod(np.column_stack([mat, minus_b]), p, k)[0].tolist()
            g = next((g for g in gens if g[-1] % p), None)
            if g is None:
                return None
            inv = pow(g[-1], -1, q)
            lifted = _lift_p_parts([[x * inv % q for x in g[:-1]]], p, col_exps, self.col_moduli)
            solution = [(s + x) % m for s, x, m in zip(solution, lifted[0].tolist(), self.col_moduli)]
        solution = tuple(solution)
        # verify (cheap, and guards the p-free corner cases)
        for row, b, mm in zip(self.rows, rhs, self.row_moduli):
            if (sum(c * x for c, x in zip(row, solution)) - b) % mm != 0:
                return None
        return solution


def congruence_kernel_int(rows, row_moduli, col_moduli) -> list[Vector]:
    """Pure-integer reference implementation of :func:`congruence_kernel`."""
    n = len(col_moduli)
    m = len(rows)
    # x solves  rows.x = diag(row_moduli).y  for some integer y
    # <=>  (x, y) in the left kernel of [rows^T ; -diag]
    stacked = [tuple(rows[i][j] for i in range(m)) for j in range(n)]
    for i in range(m):
        stacked.append(tuple(-row_moduli[i] if r == i else 0 for r in range(m)))
    kern = lattice.row_kernel(stacked)
    gens = [lattice.vec_mod(row[:n], col_moduli) for row in kern]
    return [g for g in gens if any(g)]
