"""H^i from a free resolution: against dimension shifting, the direct
engines, known answers, and shifting's cap refusals."""

import json
from math import comb, gcd

import numpy as np
import pytest

from corprod import cli, corpus, modular
from corprod import cohomology as coh
from corprod import groups as gr
from corprod.abelian import FiniteAbelianGroup as FAG
from corprod.errors import PreconditionError, SizeCapExceeded, VerificationFailure
from corprod.lattice import factorint

BIG_CAP = 10**12


def zoo_modules():
    """Every corpus group, module and named action, as (id, module)."""
    out = []
    for gname, g in corpus._zoo().items():
        for factors in corpus._MODULES:
            a = FAG(factors)
            for action, option in corpus._action_options(g, a).items():
                m = corpus._action_module(g, a, option)
                out.append((f"{gname}-{factors}-{action}", m))
    return out


ZOO = zoo_modules()


def shift_weights(m, degree):
    """The weights ``shifted_cohomology`` checks, in its order: H^2 of the
    j-th shifted module, of rank r.(|G|-1)^j."""
    n, r = m.group.order, m.coeff.rank
    return [n**2 * max(r * (n - 1) ** j, 1) for j in range(degree - 1)]


def disagreements(cases, degree):
    return [
        (name, shifted, engine)
        for name, m in cases
        if (shifted := coh.shifted_cohomology(m, degree).value.factors)
        != (engine := coh.resolution_cohomology(m, degree).factors)
    ]


WIDE = {"D6-(2,)-trivial", "D6-(6,)-negation", "A4-(2,)-trivial", "A4-(9,)-scalar3"}


def test_degree_3_matches_shifting_over_the_zoo():
    # every module of the groups up to order 9, and a few of the order-12
    # groups (all 31 take 2 s by shifting); Heis27 (7 s) is checked
    # against the direct engines and its known H^3 below
    cases = [(name, m) for name, m in ZOO if max(shift_weights(m, 3)) <= 1_300 or name in WIDE]
    assert len(cases) == 218
    assert {name.split("-")[0] for name, _ in cases} == set(corpus._zoo()) - {"Heis27"}
    assert disagreements(cases, 3) == []


DEEP = {"C6-(2,)-trivial", "C6-(3,)-negation", "S3-(2,)-trivial", "S3-(3,)-negation", "Q8-(2,)-trivial"}


def test_degree_4_matches_shifting_where_its_weight_is_small():
    # every module of order at most 4, and one per prime of C6, S3 and Q8
    cases = [(name, m) for name, m in ZOO if max(shift_weights(m, 4)) <= 300 or name in DEEP]
    assert len(cases) == 76
    assert disagreements(cases, 4) == []


def test_degrees_1_and_2_match_the_direct_engines_over_the_zoo():
    # the first two steps of every resolution, Heis27's included
    for name, m in ZOO:
        for degree in (1, 2):
            want = coh.cohomology(m, degree).value.factors
            assert coh.resolution_cohomology(m, degree).factors == want, (name, degree)


def test_cyclic_groups_have_h_n_equal_to_z_m():
    for m_ in (2, 3, 4, 6, 8, 9):
        m = coh.trivial_module(gr.cyclic_group(m_), FAG((m_,)))
        for degree in range(3, 7):
            assert coh.resolution_cohomology(m, degree, BIG_CAP).factors == (m_,)


def test_elementary_abelian_2_groups_have_binomial_dimensions():
    for k in (1, 2, 3, 4):
        m = coh.trivial_module(gr.abelian_group_from_factors((2,) * k), FAG((2,)))
        for degree in range(3, 6 if k < 4 else 4):
            value = coh.resolution_cohomology(m, degree, BIG_CAP)
            assert value.factors == (2,) * comb(degree + k - 1, k - 1), (k, degree)


def test_quaternion_group_has_period_4():
    m = coh.trivial_module(gr.quaternion_group(), FAG((2,)))
    dims = [len(coh.resolution_cohomology(m, d, BIG_CAP).factors) for d in range(3, 9)]
    assert dims == [1, 1, 2, 2, 1, 1]
    assert coh.resolution_cohomology(m, 5, cap=10**6).factors == (2, 2)


def test_heisenberg_group_h3():
    # H^3(Heis27, F3) = (Z/3)^6, as shifting computes it in 0.9 s
    m = coh.trivial_module(gr.heisenberg_group(3), FAG((3,)))
    assert coh.resolution_cohomology(m, 3).factors == (3,) * 6


def permutation_module(h, m):
    """Z/m[G/H]: G permuting the left cosets of h."""
    g = h.parent
    cosets = sorted({tuple(sorted(int(g.array[x, y]) for y in h.elements)) for x in range(g.order)})
    where = {x: i for i, c in enumerate(cosets) for x in c}
    acts = np.zeros((g.order, len(cosets), len(cosets)), dtype=np.int64)
    for x in range(g.order):
        for i, c in enumerate(cosets):
            acts[x, where[int(g.array[x, c[0]])], i] = 1
    return coh.GModule(g, FAG((m,) * len(cosets)), acts)


def test_shapiro_lemma_on_permutation_modules():
    # H^n(G, Z/m[G/C]) = H^n(C, Z/m) = Z/gcd(|C|, m) for every cyclic C
    nonabelian = 0
    for g in (gr.symmetric_group(3), gr.dihedral_group(4), gr.quaternion_group(), corpus._zoo()["A4"]):
        subgroups = {gr.subgroup_from_generators(g, [x]).elements for x in range(g.order)}
        for elements in sorted(subgroups):
            c = gr.Subgroup(g, elements)
            nonabelian += not c.is_normal()  # G/C then acts through a nonabelian image
            for m_ in (2, 3, 4):
                want = (gcd(c.order, m_),) if gcd(c.order, m_) > 1 else ()
                module = permutation_module(c, m_)
                assert coh.resolution_cohomology(module, 4, BIG_CAP).factors == want
    assert nonabelian >= 6


def test_coefficients_of_exponent_prime_to_the_order_give_zero():
    for g, factors in (
        (gr.cyclic_group(3), (2,)),
        (gr.symmetric_group(3), (5,)),
        (gr.quaternion_group(), (3, 9)),
        (gr.heisenberg_group(3), (4,)),
    ):
        m = coh.trivial_module(g, FAG(factors))
        for degree in (3, 4, 5):
            assert coh.resolution_cohomology(m, degree, BIG_CAP).factors == ()


def test_degree_0_is_refused():
    m = coh.trivial_module(gr.cyclic_group(2), FAG((2,)))
    with pytest.raises(PreconditionError):
        coh.resolution_cohomology(m, 0)


def refusal(fn, *args):
    try:
        fn(*args)
    except SizeCapExceeded as exc:
        return str(exc)
    return None


def test_refusals_match_shifting_at_the_cap_boundary():
    # one module per group, and the trivial group over a rank-3 module;
    # every weight shifting checks, as a cap one below it and as the cap
    picks = {}
    for name, m in ZOO:
        picks.setdefault(name.split("-")[0], m)
    modules = list(picks.values()) + [coh.trivial_module(gr.trivial_group(), FAG((2, 2, 2)))]
    boundaries = 0
    for m in modules:
        for degree in (3, 4, 5):
            weights = shift_weights(m, degree)
            for j, w in enumerate(weights):
                # before refusing at weight j, shifting builds the coinduced
                # module of the (j-1)-th shifted module as dense matrices:
                # seconds past weight 1000, gigabytes past 10^4
                if j and weights[j - 1] > 1_000:
                    break
                want = refusal(coh.shifted_cohomology, m, degree, w - 1)
                assert want is not None
                assert refusal(coh.resolution_cohomology, m, degree, w - 1) == want
                boundaries += 1
            # just under the cap: the largest weight is the cap, and it computes
            assert refusal(coh.resolution_cohomology, m, degree, max(weights)) is None
    assert boundaries > 30


def test_h5_of_q8_is_refused_at_the_default_cap(tmp_path):
    m = coh.trivial_module(gr.quaternion_group(), FAG((2,)))
    # shifting's message, which it reaches after building a rank-392 module
    with pytest.raises(SizeCapExceeded) as exc:
        coh.resolution_cohomology(m, 5)
    assert str(exc.value) == "|G|^2 * rank = 21952 exceeds the cohomology cap 20000"
    spec = tmp_path / "q8.json"
    q8 = {"kind": "table", "table": [list(row) for row in gr.quaternion_group().table]}
    spec.write_text(json.dumps({
        "prime_set": [2],
        "exceptional": {"q8": {"group": q8, "subgroup_elements": list(range(8))}},
        "tail": None,
    }))
    mod = tmp_path / "f2.json"
    mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [2]}, "actions": {}}))
    args = ["cohomology", "--spec", str(spec), "--module", str(mod), "--degree"]
    assert cli.main(args + ["4"]) == 0
    assert cli.main(args + ["5"]) == 2


P_GROUPS = [(name, g) for name, g in corpus._zoo().items() if len(factorint(g.order)) == 1]


@pytest.mark.parametrize("name, g", P_GROUPS, ids=[name for name, _ in P_GROUPS])
def test_p_group_covers_are_minimal_and_need_no_completion(name, g, monkeypatch):
    # over F_p a minimal resolution has zero coboundaries, so dim H^n is
    # rank P_n; one subquotient per cover means the completion never ran
    (p,) = factorint(g.order)
    m = coh.trivial_module(g, FAG((p,)))
    calls = []
    real = modular.subquotient
    monkeypatch.setattr(modular, "subquotient", lambda *args: calls.append(1) or real(*args))
    for n in range(1, 6):
        calls.clear()
        last, _ = coh._free_resolution(g, p, p, n)
        assert len(calls) == n - 1, (name, n)
        assert len(coh.resolution_cohomology(m, n, BIG_CAP).factors) == len(last), (name, n)


def test_deep_answers_outside_p_groups():
    zoo = corpus._zoo()
    s3c3 = gr.direct_product(gr.symmetric_group(3), gr.cyclic_group(3))
    for g, p, degree, want in (
        (zoo["D6"], 2, 10, (2,) * 11),  # D12 = S3 x C2, by Kunneth
        (s3c3, 3, 8, (3,) * 5),  # S3 contributes in degrees 0, 3 mod 4
        (gr.symmetric_group(4), 3, 10, ()),  # through the Sylow normalizer S3
    ):
        m = coh.trivial_module(g, FAG((p,)))
        assert coh.resolution_cohomology(m, degree, 10**15).factors == want


@pytest.mark.parametrize("g", [gr.quaternion_group(), gr.symmetric_group(3)], ids=["Q8", "S3"])
def test_a_cover_row_outside_the_kernel_is_refused(g, monkeypatch):
    real = coh._cover

    def planted(kernel, *args):
        # e_0 itself: d sends it to a nonzero row, so it is not a cycle
        extra = np.zeros((1,) + kernel.shape[1:], dtype=np.int64)
        extra[0, 0, g.identity] = 1
        return np.concatenate([real(kernel, *args), extra])

    monkeypatch.setattr(coh, "_cover", planted)
    coh.resolution_cohomology.cache_clear()
    with pytest.raises(VerificationFailure, match="is not 0 in the free resolution"):
        coh.resolution_cohomology(coh.trivial_module(g, FAG((2,))), 4, BIG_CAP)


@pytest.mark.parametrize("g", [gr.quaternion_group(), gr.dihedral_group(4)], ids=["Q8", "D4"])
def test_a_cover_that_spans_less_is_completed_by_the_count(g, monkeypatch):
    m = coh.trivial_module(g, FAG((2,)))
    want = [coh.resolution_cohomology(m, n, BIG_CAP).factors for n in (3, 4)]
    real = coh._cover
    monkeypatch.setattr(coh, "_cover", lambda kernel, *args: real(kernel, *args)[:-1])
    coh.resolution_cohomology.cache_clear()
    assert [coh.resolution_cohomology(m, n, BIG_CAP).factors for n in (3, 4)] == want
