"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
expected value is pinned exactly (integer equality, no tolerances).
"""

import itertools
import random
import time

import numpy as np
import pytest

import oracles
from crcodes import bip
from crcodes import constructions as con
from crcodes import orbits as ob
from crcodes import subspaces as sp
from crcodes import verify as vf
from crcodes.graphs import GraphSpec, theta_ladder, vertex_index
from crcodes.search import search_parameter_point

S63 = GraphSpec("grassmann", 2, 6, 3)
S84 = GraphSpec("grassmann", 2, 8, 4)
S166 = GraphSpec("johnson", 1, 16, 6)


def report(criterion, t0, detail):
    print(f"ACCEPTANCE {criterion} PASS ({time.monotonic() - t0:.1f}s): {detail}")


def test_criterion_1_eigenvalue_tables():
    t0 = time.monotonic()
    assert theta_ladder(S63) == [98, 35, 5, -7]
    assert theta_ladder(S84)[0] == 450
    assert theta_ladder(S166)[0] == 60
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, t0, "theta(J2(6,3)) = (98,35,5,-7); valencies 450 and 60")


def test_criterion_2_sqs_pipeline():
    t0 = time.monotonic()
    q4 = con.extended_hamming_sqs(4)
    assert len(q4) == 140
    strength, lambdas = vf.design_strength(q4.spec, q4.ids)
    assert strength == 3 and lambdas[2] == 1
    code = con.avoid_code(S166, q4)
    assert len(code) == 448
    res = vf.check_completely_regular(S166, code)
    assert res.ok and res.partition.rho == 2
    assert res.partition.sizes() == (448, 6720, 840)
    assert res.numbers.beta == (60, 6) and res.numbers.gamma == (4, 48)
    eigs = vf.code_eigenvalues(res.numbers.quotient, S166)
    assert eigs == [60, 8, -6]
    assert vf.eigenvalue_indices(S166, eigs) == [0, 4, 6]
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(2, t0, "J(16,6) SQS avoid-code {60,6;4,48}, cells (448,6720,840), "
                  "eigenvalues {60,8,-6}")


def test_criterion_3_desarguesian_pipeline():
    t0 = time.monotonic()
    spread = con.desarguesian_2spread(2, 8)
    assert len(spread) == 85
    idx = vertex_index(spread.spec)
    for a, b in itertools.combinations(spread.ids, 2):
        assert oracles.intersection_dim(idx[a], idx[b]) == 0
    code = con.avoid_code(S84, spread)
    res = vf.check_completely_regular(S84, code)
    assert res.ok and res.partition.rho == 2
    assert res.partition.sizes() == (146880, 53550, 357)
    assert res.numbers.beta == (105, 3) and res.numbers.gamma == (288, 450)
    eigs = vf.code_eigenvalues(res.numbers.quotient, S84)
    assert eigs == [450, 69, -15]
    # local property: every 3-subspace of a cell-2 vertex holds one block
    from crcodes.graphs import containment_table
    t43 = containment_table(S84, 3)
    blocks_in_3space = con.blocks_contained_counts(S84.level(3), spread)
    c2 = res.partition.cells[2]
    assert (blocks_in_3space[t43.ids[c2]] == 1).all()
    # local property: every cell-1 vertex has exactly q + 1 = 3 cell-2 neighbors
    c1 = res.partition.cells[1]
    assert (res.counts[c1, 2] == 3).all()
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    report(3, t0, "J2(8,4) avoid-code {105,3;288,450}, cells "
                  "(146880,53550,357), eigenvalues {450,69,-15}, local "
                  "properties exhaustive")


def test_criterion_4_degenerate_boundary():
    t0 = time.monotonic()
    s64 = GraphSpec("grassmann", 2, 6, 4, allow_unbalanced=True)
    code = con.avoid_code(s64, con.desarguesian_2spread(2, 6))
    assert len(code) == 0
    rep = vf.verify_report(s64, code)
    assert rep["code_size"] == 0 and rep["completely_regular"] is False
    assert "empty" in rep["error"]
    report(4, t0, "J2(6,4) spread avoid-code is empty and reported cleanly")


def test_criterion_5_avoid_code_j263():
    t0 = time.monotonic()
    code = con.avoid_code(S63, con.desarguesian_2spread(2, 6))
    assert len(code) == 1080
    rep = vf.verify_report(S63, code)
    assert rep["completely_regular"] and rep["rho"] == 1
    pair = (rep["beta"][0], rep["gamma"][0])
    assert pair in ((21, 72), (72, 21))
    assert rep["complement_pair"] in ({"beta0": 72, "gamma1": 21},
                                      {"beta0": 21, "gamma1": 72})
    assert rep["eigenvalues"] == [98, 5]
    assert rep["strength"] == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(5, t0, "1080-vertex avoid-code verifies with pair {21;72}, "
                  "eigenvalue 5, strength 1")


def test_criterion_6_known_table_codes():
    t0 = time.monotonic()
    expected = [
        (con.hyperplane_code(S63), 7, 155, 0),
        (con.hyperplane_point_code(S63), 14, 310, 0),
        (con.symplectic_code(), 9, 135, 1),
    ]
    for code, gamma1, size, strength in expected:
        rep = vf.verify_report(S63, code)
        assert rep["completely_regular"] and rep["rho"] == 1
        assert rep["code_size"] == size
        assert rep["gamma"] == [gamma1]
        assert rep["strength"] == strength
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(6, t0, "hyperplane (7,155,0), hyperplane-point (14,310,0), "
                  "symplectic (9,135,1) all verify")


def test_criterion_7_orbit_system():
    t0 = time.monotonic()
    action = ob.singer_action(S63, 21)
    osys = ob.orbit_system(action)
    assert osys.count == 465
    assert set(osys.sizes().tolist()) == {3}
    B = ob.quotient_matrix(S63, osys)  # checks row sums and edge symmetry
    assert (B.sum(axis=1) == 98).all()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(7, t0, "Singer power 21: 465 orbits of size 3, quotient row "
                  "sums 98, edge-count symmetry holds")


def test_criterion_8_search_reproduction():
    t0 = time.monotonic()
    osys = ob.orbit_system(ob.singer_action(S63, 21))
    B = ob.quotient_matrix(S63, osys)
    stages = {}
    for gamma1 in (9, 12, 15, 18, 21, 24, 27, 30):
        outcome = search_parameter_point(
            S63, osys, 93 - gamma1, gamma1, B=B,
            max_seconds=3600.0, singer_exponent=21)
        assert outcome.status == bip.SAT, \
            f"gamma1={gamma1}: {outcome.status} (budget exceeded fails this)"
        rep = vf.verify_report(S63, outcome.code)
        assert rep["completely_regular"]
        assert rep["beta"] == [93 - gamma1]
        assert rep["gamma"] == [gamma1]
        stages[gamma1] = outcome.stage
    report(8, t0, "SAT with verified lifts for gamma1 in {9..30}; stages "
                  + str(stages))


def test_criterion_9_property_suite():
    t0 = time.monotonic()
    # complementation duality on every rho=1 code produced above
    rho1_codes = [
        con.hyperplane_code(S63),
        con.hyperplane_point_code(S63),
        con.symplectic_code(),
        con.avoid_code(S63, con.desarguesian_2spread(2, 6)),
    ]
    for code in rho1_codes:
        res = vf.check_completely_regular(S63, code)
        comp = vf.check_completely_regular(S63, code.complement())
        assert res.ok and comp.ok
        assert comp.numbers.beta[0] == res.numbers.gamma[0]
        assert comp.numbers.gamma[0] == res.numbers.beta[0]

    # solver equals the 2^r oracle on every instance with r <= 20
    s42 = GraphSpec("grassmann", 2, 4, 2)
    osys = ob.orbit_system(ob.singer_action(s42, 5))
    B42 = ob.quotient_matrix(s42, osys)
    X = ((np.arange(1 << 15)[:, None] >> np.arange(15)) & 1).astype(np.int64)
    for theta_row in (3, -3):
        s = 18 - theta_row
        for gamma1 in range(1, s // 2 + 1):
            if not vf.size_and_integrality_report(
                    s42, s - gamma1, gamma1)["feasible"]:
                continue
            inst = bip.build_instance(s42, osys, s - gamma1, gamma1, B=B42)
            res = bip.solve(inst, mode="all")
            A_ext, rhs = inst.rows()
            brute = (X @ A_ext.T == rhs).all(axis=1).sum()
            assert res.count == int(brute)
            got = sorted(tuple(int(v) for v in sol) for sol in res.solutions)
            want = sorted(tuple(row) for row in
                          X[(X @ A_ext.T == rhs).all(axis=1)])
            assert got == want

    # push-forward: linearity, and the value-count laws of the avoid codes
    rng = np.random.default_rng(2024)
    s62 = GraphSpec("grassmann", 2, 6, 2)
    V2 = sp.gaussian(6, 2, 2)
    u = rng.integers(-9, 10, V2)
    v = rng.integers(-9, 10, V2)
    pu = np.asarray(con.pushforward(con.ValueVector(s62, u), 4).values)
    pv = np.asarray(con.pushforward(con.ValueVector(s62, v), 4).values)
    puv = np.asarray(con.pushforward(con.ValueVector(s62, 5 * u - v), 4).values)
    assert np.array_equal(puv, 5 * pu - pv)
    for q, n in ((2, 6), (2, 8)):
        spread = con.desarguesian_2spread(q, n)
        lvl = GraphSpec("grassmann", q, n, 2)
        chi = np.zeros(sp.gaussian(n, 2, q), dtype=np.int64)
        chi[spread.ids] = 1
        out3 = con.pushforward(con.ValueVector(lvl, chi), 3)
        assert len(set(np.asarray(out3.values).tolist())) == 2
    spread8 = con.desarguesian_2spread(2, 8)
    s82 = GraphSpec("grassmann", 2, 8, 2)
    V82 = sp.gaussian(8, 2, 2)
    chi8 = np.zeros(V82, dtype=np.int64)
    chi8[spread8.ids] = 1
    shifted = V82 * chi8 - len(spread8)
    out4 = con.pushforward(con.ValueVector(s82, shifted), 4)
    assert len(set(np.asarray(out4.values).tolist())) == 3
    q4 = con.extended_hamming_sqs(4)
    s164 = GraphSpec("johnson", 1, 16, 4)
    V164 = sp.gaussian(16, 4, 1)
    chi_q = np.zeros(V164, dtype=np.int64)
    chi_q[q4.ids] = 1
    shifted_q = V164 * chi_q - len(q4)
    out6 = con.pushforward(con.ValueVector(s164, shifted_q), 6)
    assert len(set(np.asarray(out6.values).tolist())) == 3

    # canonical-form and field-axiom fuzzing
    rnd = random.Random(0xACCE)
    for _ in range(300):
        vecs = [[rnd.randrange(2) for _ in range(8)] for _ in range(4)]
        base = sp.rref(vecs, 8, 2)
        rnd.shuffle(vecs)
        assert sp.rref(vecs, 8, 2) == base
    from crcodes.galois import field_tables
    for p, m in ((2, 6), (3, 2), (2, 8)):
        add, mul = field_tables(p ** m)
        for _ in range(150):
            a, b, c = (rnd.randrange(p ** m) for _ in range(3))
            assert mul[a, mul[b, c]] == mul[mul[a, b], c]
            assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
            assert mul[a, b] == oracles.gf_mul(a, b, p ** m)

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report(9, t0, "duality, solver-vs-oracle (r=15), push-forward laws, "
                  "canonicalization and field fuzzing")


def test_sqs_avoid_code_j326():
    # the SQS theorem at the next size: 472192 of J(32,6)'s 906192 vertices
    t0 = time.monotonic()
    s326 = GraphSpec("johnson", 1, 32, 6)
    code = con.avoid_code(s326, con.extended_hamming_sqs(5))
    assert len(code) == 472192
    rep = vf.verify_report(s326, code)
    assert rep["completely_regular"] and rep["rho"] == 2
    assert rep["cells"] == [472192, 416640, 17360]
    assert rep["beta"] == [60, 6] and rep["gamma"] == [68, 144]
    assert rep["eigenvalues"] == [156, 40, -6]
    assert rep["strength"] == 3
    assert rep["lambdas"] == [88536, 14280, 1904]
    report("J(32,6)", t0, "SQS(32) avoid-code {60,6;68,144}, cells "
                          "(472192,416640,17360), eigenvalues {156,40,-6}, "
                          "strength 3")
