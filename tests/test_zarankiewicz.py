"""Exponent arithmetic, KST bound, K_{s,t} search, certificates."""

import dataclasses
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from expd import (
    BoundCertificate,
    BudgetError,
    FiniteRelation2,
    KstWitness,
    NotKstFreeError,
    ParameterError,
    Subset,
    box_grid_cutting,
    build_relation2,
    certified_count,
    count_grid2,
    distal_delta_bound,
    epsilon_sup,
    exponent_params,
    exponent_triple,
    find_kst,
    greedy_cutting,
    interval_cutting,
    kst_bound,
    verify_cutting,
)
from expd.instances import (
    identity_matching,
    pg_incidence,
    random_bipartite,
    random_interval_incidence,
    random_rectangle_incidence,
)
from expd import zarankiewicz
from expd.relations import Universe, _iter_bits
from expd.zarankiewicz import CASE_LEAF, CASE_RECURSE, CASE_SMALL, CASE_UNBALANCED


class TestExponentParams:
    def test_d2_t2_small_epsilon(self):
        eps = Fraction(1, 10**6)
        p = exponent_params(2, 2, 2, eps)
        assert p.alpha == Fraction(2, 3) - eps
        assert p.beta == Fraction(2, 3) + 2 * eps
        assert p.delta == Fraction(1, 6) - eps

    def test_d2_t2_eps_1_12(self):
        p = exponent_params(2, 2, 2, Fraction(1, 12))
        assert (p.alpha, p.beta, p.delta) == (Fraction(7, 12), Fraction(5, 6), Fraction(1, 12))

    def test_d1_t2_eps_1_6_accepted(self):
        # admissible interval for D=1, t=2 is (0, 1/2)
        assert epsilon_sup(1, 2) == Fraction(1, 2)
        p = exponent_params(1, 2, 2, Fraction(1, 6))
        assert p.alpha == Fraction(5, 6)
        assert p.beta == Fraction(1, 3)
        assert p.delta == Fraction(1, 3)
        assert p.alpha + p.beta + p.delta == Fraction(3, 2)

    def test_epsilon_out_of_range_message_states_interval(self):
        with pytest.raises(ParameterError, match=r"\(0, 1/6\)"):
            exponent_params(2, 2, 2, Fraction(1, 2))
        with pytest.raises(ParameterError):
            exponent_params(2, 2, 2, 0)

    def test_identity_alpha_beta_delta(self):
        for D in range(1, 6):
            for eps in (Fraction(1, 24), Fraction(1, 12), Fraction(1, 1000)):
                alpha, beta, delta = exponent_triple(D, 2, eps)
                assert alpha + beta + delta == Fraction(3, 2)

    def test_beta_closed_forms_agree(self):
        # t(1-alpha) and t(D-1)/(Dt-1) + t*eps agree
        for D in (1, 2, 3):
            for t in (2, 3):
                eps = epsilon_sup(D, t) / 3
                alpha, beta, _ = exponent_triple(D, t, eps)
                assert beta == t * (1 - alpha)
                assert beta == Fraction(t * (D - 1), D * t - 1) + t * eps

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            exponent_params(0, 2, 2, Fraction(1, 100))
        with pytest.raises(ParameterError):
            exponent_params(2, 1, 2, Fraction(1, 100))
        with pytest.raises(ParameterError):
            exponent_params(2, 2, 0, Fraction(1, 100))


class TestKstBound:
    def test_pg7_value(self):
        expected = math.sqrt(2) * 57**0.5 * 57 + 2 * 57
        assert abs(kst_bound(2, 2, 57, 57) - expected) < 1e-9
        assert abs(expected - 722.5934603657848) < 1e-9

    def test_degenerate_exponents(self):
        assert kst_bound(1, 1, 4, 7) == 11

    def test_empty_side(self):
        assert kst_bound(2, 2, 0, 9) == 0.0
        assert kst_bound(1, 1, 0, 9) == 0.0

    def test_domain(self):
        with pytest.raises(ParameterError):
            kst_bound(0, 2, 3, 3)
        with pytest.raises(ParameterError):
            kst_bound(2, 2, -1, 3)

    def test_t_times_m_past_the_float_range(self):
        t = 10**307
        assert kst_bound(2, t, 17, 3) == float(17 * t)  # the s·m·n term is below one ulp
        with pytest.raises(ParameterError, match="t \\* m is past the largest float"):
            kst_bound(2, t, 18, 3)


def brute_force_kst_free(rel, s, t):
    """Oracle: enumerate all s-subsets of the left side."""
    rows = rel.rows
    for combo in itertools.combinations(range(rel.u.size), s):
        common = (1 << rel.v.size) - 1
        for i in combo:
            common &= rows[i]
        if common.bit_count() >= t:
            return False
    return True


def loop_only_find_kst(rel, s, t):
    """The row-loop search alone, kept as the reference: (witness or None,
    nodes charged, and which sides of the column-count guard the last level
    took)."""
    m, rows = rel.u.size, rel.rows
    if s > m:
        return None, 0, set()
    nodes = 0
    guarded = set()

    def search(start, chosen, common):
        nonlocal nodes
        if len(chosen) == s:
            return KstWitness(tuple(chosen), tuple(itertools.islice(_iter_bits(common), t)))
        stop = m - (s - len(chosen)) + 1
        nodes += stop - start
        if len(chosen) == s - 1:
            guarded.add(common.bit_count() * t < stop - start)
        for i in range(start, stop):
            narrowed = common & rows[i]
            if narrowed.bit_count() >= t:
                chosen.append(i)
                found = search(i + 1, chosen, narrowed)
                if found is not None:
                    return found
                chosen.pop()
        return None

    return search(0, [], (1 << rel.v.size) - 1), nodes, guarded


class TestFindKst:
    def test_k22_itself(self):
        rel = build_relation2(Universe("U", 2), Universe("V", 2), [(0, 0), (0, 1), (1, 0), (1, 1)])
        w = find_kst(rel, 2, 2)
        assert w.s_side == (0, 1) and w.t_side == (0, 1)

    def test_path_absent(self):
        rel = build_relation2(Universe("U", 2), Universe("V", 2), [(0, 0), (1, 0)])
        assert find_kst(rel, 2, 2) is None

    def test_pg7_k22_free_vs_brute_force(self):
        pg = pg_incidence(7)
        assert find_kst(pg, 2, 2) is None
        assert brute_force_kst_free(pg, 2, 2)

    def test_matches_brute_force_fuzz(self):
        rng = random.Random(23)
        for trial in range(40):
            m, n = rng.randint(2, 10), rng.randint(2, 10)
            pairs = {(rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, m * n))}
            rel = build_relation2(Universe("U", m), Universe("V", n), sorted(pairs))
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            witness = find_kst(rel, s, t)
            assert (witness is None) == brute_force_kst_free(rel, s, t)
            if witness is not None:
                common = (1 << n) - 1
                for i in witness.s_side:
                    common &= rel.rows[i]
                assert len(witness.s_side) == s and len(witness.t_side) == t
                assert all(common >> j & 1 for j in witness.t_side)

    def test_bound_valid_on_free_instances_various_st(self):
        rng = random.Random(97)
        checked = 0
        for trial in range(60):
            m, n = rng.randint(2, 12), rng.randint(2, 12)
            pairs = {(rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, m + n))}
            rel = build_relation2(Universe("U", m), Universe("V", n), sorted(pairs))
            for s, t in ((1, 1), (2, 2), (2, 3), (3, 2)):
                if brute_force_kst_free(rel, s, t):
                    checked += 1
                    count = count_grid2(rel, Subset.full(rel.u), Subset.full(rel.v))
                    assert count <= kst_bound(s, t, m, n) + 1e-9
        assert checked > 50

    def test_node_budget(self, monkeypatch):
        # pg(7): the root loop charges 56 nodes, row i's loop 56 - i: 1652 in all
        pg = pg_incidence(7)
        monkeypatch.setattr(zarankiewicz, "MAX_KST_NODES", 1652)
        assert find_kst(pg, 2, 2) is None
        monkeypatch.setattr(zarankiewicz, "MAX_KST_NODES", 1651)
        with pytest.raises(BudgetError, match="more than 1651 nodes"):
            find_kst(pg, 2, 2)

    @pytest.mark.parametrize("s, t", [(0, 1), (1, 0)])
    def test_s_and_t_below_one_refused(self, s, t):
        with pytest.raises(ParameterError, match=rf"^find_kst needs s, t >= 1, got s={s}, t={t}$"):
            find_kst(identity_matching(3), s, t)

    def test_t_beyond_right_universe(self, monkeypatch):
        # no K_{s,t} fits when t > |V|: the search answers before charging a node
        assert find_kst(FiniteRelation2(Universe("U", 5), Universe("V", 0), [0] * 5), 1, 10**9) is None
        monkeypatch.setattr(zarankiewicz, "MAX_KST_NODES", 0)
        assert find_kst(FiniteRelation2(Universe("U", 10), Universe("V", 1), [1] * 10), 2, 2) is None

    def test_matches_loop_only_search_fuzz(self, monkeypatch):
        # sparse rows over many left elements take the column-counted last
        # level, dense rows the row loop; the witness and the node charge
        # must be those of the row loop alone on both sides
        rng = random.Random(31)
        cases = [(pg_incidence(q), s, t) for q in (7, 11) for s in (1, 2, 3) for t in (1, 2, 3, 4)]
        for trial in range(60):
            if trial % 2:
                m, n = rng.randint(30, 80), rng.randint(8, 40)
                rows = [sum(1 << j for j in {rng.randrange(n) for _ in range(rng.randint(0, 3))}) for _ in range(m)]
            else:
                m, n = rng.randint(4, 20), rng.randint(10, 30)
                rows = [rng.getrandbits(n) for _ in range(m)]
            rel = FiniteRelation2(Universe("U", m), Universe("V", n), rows)
            cases.append((rel, rng.randint(1, 3), rng.randint(1, 4)))
        sides = set()
        for rel, s, t in cases:
            expected, nodes, guarded = loop_only_find_kst(rel, s, t)
            sides |= guarded
            assert find_kst(rel, s, t) == expected
            if nodes:
                monkeypatch.setattr(zarankiewicz, "MAX_KST_NODES", nodes)
                assert find_kst(rel, s, t) == expected
                monkeypatch.setattr(zarankiewicz, "MAX_KST_NODES", nodes - 1)
                with pytest.raises(BudgetError):
                    find_kst(rel, s, t)
                monkeypatch.undo()
        assert sides == {True, False}

    def test_lexicographically_least(self):
        rel = build_relation2(
            Universe("U", 4),
            Universe("V", 4),
            [(1, 2), (1, 3), (2, 2), (2, 3), (3, 0), (3, 1), (0, 0), (0, 1)],
        )
        w = find_kst(rel, 2, 2)
        assert w.s_side == (0, 3)
        assert w.t_side == (0, 1)


def max_pairwise_intersection(rel):
    out = 0
    for i in range(rel.u.size - 1):
        for j in range(i + 1, rel.u.size):
            out = max(out, (rel.rows[i] & rel.rows[j]).bit_count())
    return out


def free_params_for(rel, D):
    """(s=2, t) honest parameters: t = 1 + max pairwise fiber intersection."""
    t = max(2, max_pairwise_intersection(rel) + 1)
    assert find_kst(rel, 2, t) is None
    return exponent_params(D, t, 2, epsilon_sup(D, t) / 2)


def fresh_count_certified_count(rel, a, b, params, cutter, r, leaf_size):
    """The recursion with a fresh exact count at every node, kept as the
    reference: leaves walk A, and a Case-3 node's local block is
    sum_i exact(A minus A_i, B_i)."""
    rows = rel.rows

    def exact(a_bits, b_bits):
        return sum((rows[i] & b_bits).bit_count() for i in _iter_bits(a_bits))

    def node(a_bits, b_bits):
        m, n = a_bits.bit_count(), b_bits.bit_count()
        if m <= max(r, leaf_size) or n == 0:
            value = exact(a_bits, b_bits)
            return BoundCertificate(CASE_SMALL, m, n, r, value, (), value)
        if zarankiewicz._case2_applies(params, r, m, n):
            value = math.ceil(kst_bound(params.s, params.t, m, n))
            return BoundCertificate(CASE_UNBALANCED, m, n, r, value, (), value)
        a_subset = Subset(rel.u, a_bits)
        cover = cutter(rel, a_subset, r) if cutter is not None else None
        report = verify_cutting(rel, a_subset, r, cover) if cover is not None else None
        if report is None or not report.valid:
            value = exact(a_bits, b_bits)
            return BoundCertificate(CASE_LEAF, m, n, r, value, (), value, degraded=True)
        children, local, assigned = [], 0, 0
        for cell, a_i in zip(cover.cells, report.crossing_sets):
            b_i = cell & b_bits & ~assigned
            assigned |= b_i
            if b_i:
                children.append(node(a_i, b_i))
                local += exact(a_bits & ~a_i, b_i)
        total = local + sum(child.total for child in children)
        return BoundCertificate(CASE_RECURSE, m, n, r, local, tuple(children), total)

    return node(a.bits, b.bits)


def case_counts(obj, counts=None):
    counts = Counter() if counts is None else counts
    counts[obj["case"]] += 1
    for child in obj["children"]:
        case_counts(child, counts)
    return counts


class TestCertifiedCount:
    def test_matches_fresh_count_recursion(self):
        rng = random.Random(53)
        cases = Counter()
        for trial in range(6):
            instances = [
                (random_interval_incidence(300 + trial, rng.randint(40, 120), rng.randint(100, 300)),
                 interval_cutting, 1),
                (random_rectangle_incidence(400 + trial, rng.randint(40, 120), rng.randint(8, 16)),
                 box_grid_cutting, 2),
                (random_interval_incidence(500 + trial, rng.randint(40, 120), rng.randint(100, 300)),
                 greedy_cutting, 1),
                (random_bipartite(600 + trial, 60, 60, rng.randint(60, 240)), greedy_cutting, 1),
                (random_bipartite(700 + trial, 60, 60, rng.randint(60, 240)), None, 1),
            ]
            for rel, cutter, D in instances:
                a, b = Subset.full(rel.u), Subset.full(rel.v)
                params = free_params_for(rel, D)
                for r, leaf_size in ((2, 2), (4, 8), (8, 4), (3, 32)):
                    cert = certified_count(rel, a, b, params, cutter, r, leaf_size).to_obj()
                    assert cert == fresh_count_certified_count(rel, a, b, params, cutter, r, leaf_size).to_obj()
                    case_counts(cert, cases)
        assert cases[CASE_RECURSE] > 50 and cases[CASE_SMALL] > 50 and cases[CASE_LEAF] > 0


    def test_small_instance_single_case1_node(self):
        rel = random_bipartite(5, 8, 8, 30)
        a, b = Subset.full(rel.u), Subset.full(rel.v)
        params = free_params_for(rel, 1)
        cert = certified_count(rel, a, b, params, None, r=4, leaf_size=16)
        assert cert.case == "Case1_small_m"
        assert cert.children == ()
        assert cert.total == count_grid2(rel, a, b)

    def test_pg7_case2_at_root(self):
        pg = pg_incidence(7)
        a, b = Subset.full(pg.u), Subset.full(pg.v)
        params = exponent_params(2, 2, 2, Fraction(1, 12))
        cert = certified_count(pg, a, b, params, None, r=4, leaf_size=8)
        assert cert.case == CASE_UNBALANCED
        assert cert.total >= 456
        assert cert.total <= kst_bound(2, 2, 57, 57) * 1.01

    def test_identity_matching_sound(self):
        rel = identity_matching(64)
        a, b = Subset.full(rel.u), Subset.full(rel.v)
        params = exponent_params(2, 2, 2, Fraction(1, 12))
        assert find_kst(rel, 2, 2) is None
        cert = certified_count(
            rel, a, b, params, lambda r_, a_, rr: greedy_cutting(r_, a_, rr), r=4, leaf_size=4
        )
        assert cert.total >= 64

    def test_degraded_when_cutter_fails(self):
        rel = random_interval_incidence(5, 40, 120)
        a, b = Subset.full(rel.u), Subset.full(rel.v)
        params = free_params_for(rel, 1)
        # epsilon near the sup keeps Case 2 from firing at the root
        params = exponent_params(1, params.t, 2, epsilon_sup(1, params.t) * 99 / 100)
        cert = certified_count(rel, a, b, params, lambda *_: None, r=4, leaf_size=4)
        assert cert.case == CASE_LEAF
        assert cert.degraded
        assert cert.total == count_grid2(rel, a, b)

    def test_recursion_soundness_fuzz(self):
        rng = random.Random(47)
        for trial in range(12):
            rel = random_interval_incidence(100 + trial, rng.randint(20, 60), rng.randint(60, 200))
            a, b = Subset.full(rel.u), Subset.full(rel.v)
            params = free_params_for(rel, 1)
            cert = certified_count(rel, a, b, params, interval_cutting, r=4, leaf_size=8)
            exact = count_grid2(rel, a, b)
            assert cert.total >= exact

    def test_certificate_totals_roll_up(self):
        rel = random_interval_incidence(7, 64, 256)
        a, b = Subset.full(rel.u), Subset.full(rel.v)
        params = free_params_for(rel, 1)
        cert = certified_count(rel, a, b, params, interval_cutting, r=4, leaf_size=8)

        def check(node):
            assert node.total == node.contribution + sum(c.total for c in node.children)
            assert node.contribution >= 0
            for child in node.children:
                check(child)

        check(cert)

    def test_serialization_roundtrip(self):
        rel = random_interval_incidence(9, 48, 160)
        a, b = Subset.full(rel.u), Subset.full(rel.v)
        params = free_params_for(rel, 1)
        cert = certified_count(rel, a, b, params, interval_cutting, r=4, leaf_size=8)

        def fields(node):  # every dataclass field, recursively; to_obj writes degraded only when set
            obj = {f.name: getattr(node, f.name) for f in dataclasses.fields(node)}
            obj["children"] = [fields(c) for c in node.children]
            if not node.degraded:
                del obj["degraded"]
            return obj

        blob = json.dumps(cert.to_obj(), sort_keys=True)
        assert json.loads(blob) == fields(cert)
        assert set(cert.to_obj()) >= {"case", "m", "n", "r", "contribution", "children", "total"}

    def test_relation_with_kst_rejected_with_witness(self):
        # without the check this returned 23,683 against an exact count of 43,996
        rel = random_interval_incidence(7, 256, 1024)
        a, b = Subset.full(rel.u), Subset.full(rel.v)
        params = exponent_params(1, 2, 2, Fraction(1, 8))
        with pytest.raises(NotKstFreeError) as raised:
            certified_count(rel, a, b, params, interval_cutting, 8)
        assert isinstance(raised.value, ParameterError)
        assert raised.value.witness == KstWitness((0, 3), (154, 155))
        # the check sees only A x B: dropping row 3 moves the witness, and a
        # single row cannot hold a K_{2,2}
        a_no3 = Subset(rel.u, a.bits & ~(1 << 3))
        with pytest.raises(NotKstFreeError) as raised:
            certified_count(rel, a_no3, b, params, interval_cutting, 8)
        assert 3 not in raised.value.witness.s_side
        b_odd = Subset(rel.v, sum(1 << j for j in range(1, rel.v.size, 2)))
        with pytest.raises(NotKstFreeError) as raised:
            certified_count(rel, a, b_odd, params, interval_cutting, 8)
        assert all(j % 2 for j in raised.value.witness.t_side)
        one_row = Subset(rel.u, 1 << 0)
        cert = certified_count(rel, one_row, b, params, interval_cutting, 8)
        assert cert.total >= count_grid2(rel, one_row, b)

    def test_parameter_validation(self):
        rel = identity_matching(4)
        a, b = Subset.full(rel.u), Subset.full(rel.v)
        params = exponent_params(1, 2, 2, Fraction(1, 6))
        with pytest.raises(ParameterError):
            certified_count(rel, a, b, params, None, r=1)
        with pytest.raises(ParameterError):
            certified_count(rel, a, b, params, None, r=4, leaf_size=0)


class TestSmallestArguments:
    """The least values the parameter checks admit: leaf_size 1 and n = 0."""

    def test_leaf_size_one_certifies(self):
        rel = random_interval_incidence(11, 60, 200)
        a, b = Subset.full(rel.u), Subset.full(rel.v)
        params = free_params_for(rel, 1)
        cert = certified_count(rel, a, b, params, interval_cutting, r=2, leaf_size=1)
        assert cert.total >= count_grid2(rel, a, b)
        with pytest.raises(ParameterError):
            certified_count(rel, a, b, params, interval_cutting, r=2, leaf_size=0)

    def test_distal_delta_bound_at_zero(self):
        params = exponent_params(2, 2, 2, Fraction(1, 12))
        assert distal_delta_bound(params, 0) == 0.0
        with pytest.raises(ParameterError):
            distal_delta_bound(params, -1)


class TestDistalDeltaBound:
    def test_d2_eps_1_12(self):
        params = exponent_params(2, 2, 2, Fraction(1, 12))
        assert params.delta == Fraction(1, 12)
        assert abs(distal_delta_bound(params, 4096) - 4096 ** (17 / 12)) < 1e-6

    def test_n_one(self):
        params = exponent_params(2, 2, 2, Fraction(1, 12))
        assert distal_delta_bound(params, 1) == 1.0

    def test_d1_small_epsilon_near_linear(self):
        eps = Fraction(1, 10**9)
        params = exponent_params(1, 2, 2, eps)
        # delta -> 1/2, exponent -> 1
        assert abs(distal_delta_bound(params, 10000) - 10000.0) < 0.25

    def test_requires_t2(self):
        p = exponent_params(1, 3, 2, Fraction(1, 100))
        with pytest.raises(ParameterError):
            distal_delta_bound(p, 10)
