"""Acceptance suite: one test per exit criterion, one PASS line each.

Every expected value here is either computed by an independent brute-force
oracle inside the test or is exact arithmetic; runtime budgets are asserted.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from expd import (
    FamilySpec,
    ParameterError,
    Subset,
    build_relation3,
    certified_count,
    count_grid2,
    count_grid3,
    derive_g,
    epsilon_sup,
    exponent_params,
    exponent_triple,
    box_grid_cutting,
    find_kst,
    interval_cutting,
    kst_bound,
    make_family,
    run_scaling,
    verify_cutting,
)
from expd.instances import (
    pg_incidence,
    random_bipartite,
    random_interval_incidence,
    random_rectangle_incidence,
)
from expd.relations import Universe


def report(name, elapsed, budget, detail=""):
    print(f"PASS {name}: {detail} ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.2f}s"


def brute_force_k22_free(rel):
    """Oracle: every pair of left fibers shares at most one right vertex."""
    rows = rel.rows
    for i in range(rel.u.size - 1):
        ri = rows[i]
        for j in range(i + 1, rel.u.size):
            if (ri & rows[j]).bit_count() >= 2:
                return False
    return True


def test_criterion_kst_validity():
    """200 seeded K_{2,2}-free random graphs: count <= kst_bound (1e-9)."""
    start = time.time()
    accepted = 0
    seed = 0
    while accepted < 200:
        seed += 1
        assert seed < 3000, "generator failed to reach 200 K22-free graphs"
        rng = random.Random(seed)
        m, n = rng.randint(8, 64), rng.randint(8, 64)
        edges = rng.randint(max(m, n) // 2, (3 * max(m, n)) // 2)
        rel = random_bipartite(seed, m, n, edges)
        if not brute_force_k22_free(rel):
            continue
        accepted += 1
        count = count_grid2(rel, Subset.full(rel.u), Subset.full(rel.v))
        bound = kst_bound(2, 2, m, n)
        assert count <= bound + 1e-9, (seed, count, bound)
    report("kst-validity", time.time() - start, 30, f"{accepted} graphs, {seed} candidates")


def test_criterion_kst_near_tightness():
    """PG(2,7): K_{2,2}-free with 456 edges >= 0.6 * kst_bound(2,2,57,57)."""
    start = time.time()
    pg = pg_incidence(7)
    assert pg.u.size == 57 and pg.v.size == 57
    count = count_grid2(pg, Subset.full(pg.u), Subset.full(pg.v))
    assert count == 456
    assert brute_force_k22_free(pg)
    bound = kst_bound(2, 2, 57, 57)
    assert abs(bound - 722.5934603657848) < 1e-6
    assert count >= 0.6 * bound
    report(
        "kst-near-tightness",
        time.time() - start,
        5,
        f"456/{bound:.1f} = {456 / bound:.3f} >= 0.6",
    )


def test_criterion_exponent_arithmetic():
    """alpha + beta + delta = 3/2 exactly for D in 1..5, t=2, eps in {1/24, 1/12}."""
    start = time.time()
    three_halves = Fraction(3, 2)
    for D in range(1, 6):
        for eps in (Fraction(1, 24), Fraction(1, 12)):
            alpha, beta, delta = exponent_triple(D, 2, eps)
            assert alpha + beta + delta == three_halves, (D, eps)
            if 0 < eps < epsilon_sup(D, 2):
                p = exponent_params(D, 2, 2, eps)
                assert p.alpha + p.beta + p.delta == three_halves
            else:
                with pytest.raises(ParameterError):
                    exponent_params(D, 2, 2, eps)
    report("exponent-arithmetic", time.time() - start, 5, "10 (D, eps) combinations")


def _max_pairwise_intersection(rel):
    worst = 0
    for i in range(rel.u.size - 1):
        ri = rel.rows[i]
        for j in range(i + 1, rel.u.size):
            worst = max(worst, (ri & rel.rows[j]).bit_count())
    return worst


def test_criterion_certificate_soundness():
    """50 interval/rectangle instances: total >= exact always, <= 20x exact."""
    start = time.time()
    checked = 0
    worst_ratio = 0.0
    for seed in range(25):
        rng = random.Random(1000 + seed)
        rel = random_interval_incidence(
            1000 + seed, rng.randint(40, 120), rng.randint(128, 400)
        )
        worst_ratio = max(worst_ratio, _certify_and_check(rel, D=1, cutter=interval_cutting))
        checked += 1
    for seed in range(25):
        rng = random.Random(2000 + seed)
        rel = random_rectangle_incidence(2000 + seed, rng.randint(32, 96), 20)
        worst_ratio = max(worst_ratio, _certify_and_check(rel, D=2, cutter=box_grid_cutting))
        checked += 1
    assert checked == 50
    report(
        "certificate-soundness",
        time.time() - start,
        120,
        f"50 instances, worst total/exact = {worst_ratio:.2f} <= 20",
    )


def _certify_and_check(rel, D, cutter):
    a, b = Subset.full(rel.u), Subset.full(rel.v)
    t = max(2, _max_pairwise_intersection(rel) + 1)
    assert find_kst(rel, 2, t) is None  # certified_count raises otherwise
    params = exponent_params(D, t, 2, epsilon_sup(D, t) / 2)
    cert = certified_count(rel, a, b, params, cutter, r=4, leaf_size=8)
    exact = count_grid2(rel, a, b)
    assert cert.total >= exact, (rel, cert.total, exact)
    ratio = cert.total / exact
    assert ratio <= 20.0, (rel, ratio)
    return ratio


def test_criterion_cutting_caps():
    """interval: valid with <= 2r cells (D=1); box: valid with fitted_c <= 8 (D=2)."""
    start = time.time()
    for seed in range(100):
        rng = random.Random(3000 + seed)
        rel = random_interval_incidence(
            3000 + seed, rng.randint(16, 128), rng.randint(64, 400)
        )
        a = Subset.full(rel.u)
        for r in (2, 4, 8, 16):
            cover = interval_cutting(rel, a, r)
            rep = verify_cutting(rel, a, r, cover)
            assert rep.valid, (seed, r, rep.failure)
            assert rep.cell_count <= 2 * r, (seed, r, rep.cell_count)
    worst_fitted = 0.0
    for seed in range(100):
        rng = random.Random(4000 + seed)
        rel = random_rectangle_incidence(4000 + seed, rng.randint(32, 96), 24)
        a = Subset.full(rel.u)
        for r in (2, 4, 8):
            cover = box_grid_cutting(rel, a, r)
            rep = verify_cutting(rel, a, r, cover)
            assert rep.valid, (seed, r, rep.failure)
            assert rep.fitted_c <= 8.0, (seed, r, rep.fitted_c)
            worst_fitted = max(worst_fitted, rep.fitted_c)
    report(
        "cutting-caps",
        time.time() - start,
        60,
        f"100 interval + 100 box families, worst box fitted_c = {worst_fitted:.2f}",
    )


def _random_delta_algebraic(rng, sizes, d_cap, attempts):
    by = [dict(), dict(), dict()]
    triples = set()
    for _ in range(attempts):
        t = tuple(rng.randrange(s) for s in sizes)
        if t in triples:
            continue
        i, j, k = t
        keys = [(i, j), (i, k), (j, k)]
        if any(len(by[a].get(keys[a], ())) >= d_cap for a in range(3)):
            continue
        triples.add(t)
        for a, key in enumerate(keys):
            by[a].setdefault(key, []).append(t)
    return build_relation3(
        Universe("X", sizes[0]), Universe("Y", sizes[1]), Universe("Z", sizes[2]), sorted(triples)
    )


def test_criterion_d2_fiber_law_and_cauchy_schwarz():
    """100 bounded-degree relations, G and W brute-forced: d² law and the
    transfer inequality hold everywhere; mod-5 sum achieves equality at 25."""
    start = time.time()
    for seed in range(100):
        rng = random.Random(5000 + seed)
        sizes = tuple(rng.randint(3, 12) for _ in range(3))
        rel = _random_delta_algebraic(rng, sizes, rng.randint(1, 3), attempts=140)
        tr = set(rel.triples)
        nx, ny, nz = sizes
        # d by brute force over all three pairings
        d = 0
        for x in range(nx):
            for y in range(ny):
                d = max(d, sum((x, y, z) in tr for z in range(nz)))
        for x in range(nx):
            for z in range(nz):
                d = max(d, sum((x, y, z) in tr for y in range(ny)))
        for y in range(ny):
            for z in range(nz):
                d = max(d, sum((x, y, z) in tr for x in range(nx)))
        assert d <= 3
        if d == 0:
            continue
        # brute-force G as quadruples, then the fiber law
        g_quads = set()
        for t1 in tr:
            for t2 in tr:
                if t1[0] == t2[0]:
                    g_quads.add((t1[1], t2[1], t1[2], t2[2]))
        fibers_z = {}
        fibers_y = {}
        for y1, y2, z1, z2 in g_quads:
            fibers_z.setdefault((y1, y2, z1), set()).add(z2)
            fibers_y.setdefault((y1, z1, z2), set()).add(y2)
        assert all(len(v) <= d * d for v in fibers_z.values()), seed
        assert all(len(v) <= d * d for v in fibers_y.values()), seed
        # random grids; F', W', G' by brute force; the transfer inequality
        a_idx = [i for i in range(nx) if rng.random() < 0.75]
        b_idx = [i for i in range(ny) if rng.random() < 0.75]
        c_idx = [i for i in range(nz) if rng.random() < 0.75]
        kept = [t for t in tr if t[1] in b_idx and t[2] in c_idx]
        f_prime = [t for t in kept if t[0] in a_idx]
        w_prime = sum(1 for t1 in f_prime for t2 in f_prime if t1[0] == t2[0])
        g_prime = {(t1[1], t2[1], t1[2], t2[2]) for t1 in kept for t2 in kept if t1[0] == t2[0]}
        assert len(f_prime) ** 2 <= len(a_idx) * w_prime
        assert w_prime <= d * len(g_prime)
        assert len(f_prime) ** 2 <= d * d * len(a_idx) * len(g_prime), seed
    # equality instance: x + y = z (mod 5) on full grids
    rel5 = build_relation3(
        Universe("X", 5),
        Universe("Y", 5),
        Universe("Z", 5),
        [(x, y, (x + y) % 5) for x in range(5) for y in range(5)],
    )
    tr5 = set(rel5.triples)
    g5 = {(t1[1], t2[1], t1[2], t2[2]) for t1 in tr5 for t2 in tr5 if t1[0] == t2[0]}
    assert len(tr5) == 25 and len(g5) == 125
    assert 25 * 25 == 1 * 5 * 125  # |F'|² = d² |A| |G'| exactly
    report("d2-fiber-law-and-cs", time.time() - start, 60, "100 relations + equality case")


def test_criterion_group_like_counting():
    """Cyclic families, identity and twisted: count = n² exactly; slope = 2.0."""
    start = time.time()
    identity_fam = make_family(FamilySpec(kind="group_like", group=("cyclic", None)))
    twisted_fam = make_family(
        FamilySpec(
            kind="group_like",
            group=("cyclic", None),
            twists=(("seeded", 11), ("seeded", 12), ("seeded", 13)),
        )
    )
    for n in (5, 64, 101):
        for fam in (identity_fam, twisted_fam):
            rel = fam.build(n)
            assert count_grid3(rel, *map(Subset.full, (rel.x, rel.y, rel.z))) == n * n, (fam.name, n)
    for fam in (identity_fam, twisted_fam):
        fit = run_scaling(fam, (8, 16, 32, 64))
        assert abs(fit.slope - 2.0) <= 1e-9, fam.name
    report("group-like-counting", time.time() - start, 60, "n in {5,64,101}, slope 2.000")


def test_criterion_expansion_separation():
    """Fixed test vector: x+y=z slope >= 1.9; x^2+y^3=z with top-n C <= 1.6."""
    start = time.time()
    sizes = (16, 32, 64, 128, 256)
    additive = run_scaling(make_family(FamilySpec(kind="dsl", expr="x + y = z")), sizes)
    assert additive.counts == tuple(n * (n + 1) // 2 for n in sizes)
    assert additive.slope >= 1.9, additive.slope
    expanding = run_scaling(make_family(FamilySpec(kind="topz", expr="x^2 + y^3 = z")), sizes)
    assert expanding.slope <= 1.6, expanding.slope
    report(
        "expansion-separation",
        time.time() - start,
        60,
        f"slopes {additive.slope:.3f} >= 1.9 vs {expanding.slope:.3f} <= 1.6",
    )


def test_criterion_derive_g_oracle_equivalence():
    """50 seeded small relations: derived G equals quadruple enumeration."""
    start = time.time()
    for seed in range(50):
        rng = random.Random(6000 + seed)
        sizes = tuple(rng.randint(1, 8) for _ in range(3))
        triples = {
            tuple(rng.randrange(s) for s in sizes) for _ in range(rng.randint(0, 40))
        }
        rel = build_relation3(
            Universe("X", sizes[0]),
            Universe("Y", sizes[1]),
            Universe("Z", sizes[2]),
            sorted(triples),
        )
        tr = set(rel.triples)
        nx, ny, nz = sizes
        oracle = set()
        for y1, y2, z1, z2 in itertools.product(range(ny), range(ny), range(nz), range(nz)):
            if any((x, y1, z1) in tr and (x, y2, z2) in tr for x in range(nx)):
                oracle.add((y1, y2, z1, z2))
        g = derive_g(rel)
        got = set()
        for ypair, row in enumerate(g.rows):
            y1, y2 = divmod(ypair, ny)
            bits = row
            while bits:
                low = bits & -bits
                z1, z2 = divmod(low.bit_length() - 1, nz)
                got.add((y1, y2, z1, z2))
                bits ^= low
        assert got == oracle, seed
    report("derive-g-oracle-equivalence", time.time() - start, 60, "50 relations, exact match")
