import hashlib
import time

import numpy as np
import pytest

from crcodes import bip
from crcodes import orbits as ob
from crcodes import search
from crcodes import verify as vf
from crcodes.graphs import GraphSpec
from crcodes.search import search_parameter_point

S42 = GraphSpec("grassmann", 2, 4, 2)
S63 = GraphSpec("grassmann", 2, 6, 3)
S73 = GraphSpec("grassmann", 2, 7, 3)


@pytest.fixture(scope="module")
def singer42():
    osys = ob.orbit_system(ob.singer_action(S42, 5))
    return osys, ob.quotient_matrix(S42, osys)


def test_first_mode_finds_and_lift_verifies(singer42):
    osys, B = singer42
    out = search_parameter_point(S42, osys, 18, 3, B=B, max_seconds=60,
                                 singer_exponent=5)
    assert out.status == bip.SAT and out.lift_verified
    rep = vf.verify_report(S42, out.code)
    assert rep["completely_regular"]
    assert rep["beta"] == [18] and rep["gamma"] == [3]


def test_count_mode_bypasses_probes(singer42):
    osys, B = singer42
    out = search_parameter_point(S42, osys, 15, 6, B=B, mode="count")
    assert out.stage == "dfs"
    assert out.status == bip.SAT and out.count == 45
    with pytest.raises(ValueError, match="unknown search mode"):
        search_parameter_point(S42, osys, 15, 6, B=B, mode="all")


@pytest.mark.parametrize("beta0,gamma1,mode", [(18, 3, "first")])
def test_failed_lift_raises(singer42, monkeypatch, beta0, gamma1, mode):
    osys, B = singer42
    monkeypatch.setattr(search, "verify_report",
                        lambda spec, code: {"completely_regular": False})
    with pytest.raises(vf.VerificationError, match="solver is inconsistent"):
        search_parameter_point(S42, osys, beta0, gamma1, B=B, mode=mode,
                               max_seconds=60, singer_exponent=5)


def test_sweep_stops_at_exhausted_unsat(singer42, monkeypatch):
    # (12, 3) passes the integrality screen but has no singer:5-invariant
    # code: the one exhaustive DFS run is the proof, nothing is re-solved
    osys, B = singer42
    own_solves = []
    solve = bip.solve

    def counting_solve(inst, **kwargs):
        if inst.B is B:
            own_solves.append(kwargs)
        return solve(inst, **kwargs)

    monkeypatch.setattr(bip, "solve", counting_solve)
    out = search_parameter_point(S42, osys, 12, 3, B=B, max_seconds=5,
                                 singer_exponent=5)
    assert (out.status, out.stage) == (bip.UNSAT, "dfs")
    assert not out.lift_verified
    assert len(own_solves) == 1


def test_two_passes_run_every_capped_solve_before_any_milp(singer42,
                                                           monkeypatch):
    # every capped solve is left open: pass 1 visits the rungs in ladder
    # order and then the own system, pass 2 runs milp on each in the same
    # order, and only then does the exhaustive solve run
    osys, B = singer42
    events = []
    solve = bip.solve

    def capped_left_open(inst, **kwargs):
        events.append(("solve", inst.description))
        if kwargs["max_nodes"] is not None:
            return bip.SolveResult(status=bip.BUDGET_EXCEEDED)
        return solve(inst, **kwargs)

    def no_witness(inst, budget):
        events.append(("milp", inst.description))
        return None

    monkeypatch.setattr(bip, "solve", capped_left_open)
    monkeypatch.setattr(search, "_milp_witness", no_witness)
    out = search_parameter_point(S42, osys, 18, 3, B=B, max_seconds=60,
                                 singer_exponent=5)
    assert (out.status, out.stage) == (bip.SAT, "dfs")
    rungs = []
    for sup, _, _ in search._refinement_ladder(S42, 5):
        try:
            bip.build_instance(S42, sup, 18, 3)
        except vf.VerificationError:
            continue
        rungs.append(sup)
    assert len(rungs) >= 3
    assert [sup.count for sup in rungs] == sorted(sup.count for sup in rungs)
    systems = [sup.description for sup in rungs] + [osys.description]
    n = len(systems)
    assert events[:n] == [("solve", name) for name in systems]
    assert events[n:2 * n] == [("milp", name) for name in systems]
    assert events[2 * n:] == [("solve", osys.description)]


def _cold_ladder(spec, exponent):
    """The ladder built with every cache it reads emptied first and after:
    (the ladder, field-map builds, level-1 matches)."""
    caches = (search._refinement_ladder, ob._field_maps, ob._vertex_perm)
    for cache in caches:
        cache.cache_clear()
    try:
        ladder = search._refinement_ladder(spec, exponent)
        return (ladder, ob._field_maps.cache_info().misses,
                ob._vertex_perm.cache_info().misses)
    finally:
        for cache in caches:
            cache.cache_clear()


def test_cold_ladder_checks_each_field_action_once():
    # 7 field actions, 15 rungs: the joined rungs, and the rungs' symmetry,
    # check nothing again
    ladder, _, matches = _cold_ladder(S63, 21)
    assert len(ladder) == 15 and matches == 7


def test_ladder_builds_each_field_action_once():
    # J_2(6,3), e = 21: a^d for d in 1, 3, 7, 21 and Frobenius powers 1, 2,
    # 3 are powers of the two field maps, built once for all 15 rungs
    ladder, builds, matches = _cold_ladder(S63, 21)
    assert (builds, matches) == (1, 7)
    # the same rungs, in the same order, as one group built per rung
    oracle = []
    for d in (1, 3, 7, 21):
        for j in (0, 1, 2, 3):
            if (d, j) == (21, 0):
                continue
            gens = list(ob.singer_action(S63, d).point_generators)
            name = f"singer:{d}"
            if j:
                gens += ob.frobenius_action(S63, j).point_generators
                name += f"+frobenius:{j}"
            sup = ob.orbit_system(ob.GroupAction(S63, gens, description=name))
            if sup.count <= 300:
                oracle.append(sup)
    oracle.sort(key=lambda sup: sup.count)
    assert [(s.count, s.description) for s, _, _ in ladder] == \
        [(s.count, s.description) for s in oracle]
    for (got, _, _), want in zip(ladder, oracle):
        assert np.array_equal(got.orbit_of, want.orbit_of)


@pytest.mark.parametrize("spec,exponent", [(S42, 5), (S63, 21)])
def test_carry_matches_the_lifted_mask(spec, exponent):
    # a rung's values read off each orbit's representative are those of
    # the lifted vertex set, orbit by orbit
    osys = ob.orbit_system(ob.singer_action(spec, exponent))
    rng = np.random.default_rng(0)
    ladder = search._refinement_ladder(spec, exponent)
    assert ladder
    for sup, _, _ in ladder:
        for _ in range(3):
            x_sup = rng.integers(0, 2, sup.count).astype(np.int8)
            mask = np.zeros(spec.vertex_count, dtype=bool)
            mask[bip.lift(x_sup, sup, spec).ids] = True
            lifted = np.array([1 if mask[o[0]] else 0 for o in osys.orbits],
                              dtype=np.int8)
            assert np.array_equal(search._carry(x_sup, sup, osys), lifted)


def test_each_rung_quotient_matrix_is_computed_once(singer42, monkeypatch):
    # the ladder keeps each rung's quotient matrix: three points that run
    # every rung build no quotient matrix again, and each one kept is that
    # of quotient_matrix
    osys, B = singer42
    built = []
    quotient = ob.quotient_matrix

    def counting_quotient(spec, sup):
        built.append(sup.description)
        return quotient(spec, sup)

    monkeypatch.setattr(search, "quotient_matrix", counting_quotient)
    monkeypatch.setattr(bip, "quotient_matrix", counting_quotient)
    search._refinement_ladder.cache_clear()
    try:
        for beta0, gamma1 in [(18, 3), (15, 6), (12, 3)]:
            search_parameter_point(S42, osys, beta0, gamma1, B=B,
                                   max_seconds=60, singer_exponent=5)
        ladder = search._refinement_ladder(S42, 5)
    finally:
        search._refinement_ladder.cache_clear()
    assert sorted(built) == sorted(sup.description for sup, _, _ in ladder)
    for sup, _, kept in ladder:
        assert np.array_equal(kept, quotient(S42, sup))


def test_max_seconds_bounds_the_point():
    # 1395 orbits and no ladder: milp and then the DFS at about 5 ms a
    # node must both stop at the one deadline
    ident = ob.GroupAction(S63, [np.arange(63)], description="identity")
    osys = ob.orbit_system(ident)
    B = ob.quotient_matrix(S63, osys)
    t0 = time.monotonic()
    out = search_parameter_point(S63, osys, 81, 12, B=B, max_seconds=2)
    assert out.status in (bip.SAT, bip.BUDGET_EXCEEDED)
    assert time.monotonic() - t0 < 6


def test_node_lp_stops_at_the_deadline():
    # 1395 orbits: each node LP is slow, and HiGHS gets the time left as
    # its time_limit, so no LP runs past max_seconds.  (84, 9) is still open
    # after 2 s at seed 0, where (56, 7) is decided at its second node
    ident = ob.GroupAction(S63, [np.arange(63)], description="identity")
    osys = ob.orbit_system(ident)
    inst = bip.build_instance(S63, osys, 84, 9,
                              B=ob.quotient_matrix(S63, osys))
    t0 = time.monotonic()
    res = bip.solve(inst, seed=0, max_seconds=2)
    assert res.status in (bip.SAT, bip.BUDGET_EXCEEDED)
    assert time.monotonic() - t0 < 4


@pytest.fixture(scope="module")
def identity63():
    osys = ob.orbit_system(ob.GroupAction(S63, [np.arange(63)],
                                          description="identity"))
    return osys, ob.quotient_matrix(S63, osys)


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_seeded_tie_breaks_keep_the_identity_point_easy(identity63, seed):
    # (56, 7) under identity, 1395 orbits: the second node's LP point is a
    # 0/1 witness at every seed.  A search that branches past it takes
    # seeds 0 and 1 beyond 5000 nodes
    osys, B = identity63
    inst = bip.build_instance(S63, osys, 56, 7, B=B)
    res = bip.solve(inst, seed=seed, max_nodes=50)
    assert res.status == bip.SAT and res.nodes <= 2
    A_ext, rhs = inst.rows()
    assert ((A_ext @ res.solutions[0].astype(np.int64)) == rhs).all()


def test_seeded_identity_point_is_decided_without_milp(identity63,
                                                       monkeypatch):
    def no_milp(inst, budget):
        raise AssertionError("milp ran on a point the slice decides")

    monkeypatch.setattr(search, "_milp_witness", no_milp)
    osys, B = identity63
    out = search_parameter_point(S63, osys, 56, 7, B=B, max_seconds=30,
                                 seed=0)
    assert (out.status, out.stage) == (bip.SAT, "dfs") and out.lift_verified
    rep = vf.verify_report(S63, out.code)
    assert rep["completely_regular"] and (rep["beta"], rep["gamma"]) == \
        ([56], [7])


@pytest.fixture(scope="module")
def singer73():
    osys = ob.orbit_system(ob.singer_action(S73, 1))
    return osys, ob.quotient_matrix(S73, osys)


@pytest.mark.parametrize("beta0,gamma1", [(203, 14), (126, 63)])
def test_j273_points_end_unsat_by_certificates(singer73, beta0, gamma1):
    # both ran out of a 30 s budget on propagation alone
    osys, B = singer73
    out = search_parameter_point(S73, osys, beta0, gamma1, B=B,
                                 max_seconds=12, singer_exponent=1)
    assert (out.status, out.stage) == (bip.UNSAT, "dfs")
    assert 0 < out.certificates <= out.lp_calls


@pytest.mark.parametrize("beta0,gamma1,status", [
    (210, 7, bip.UNSAT), (203, 14, bip.UNSAT), (196, 21, bip.SAT),
    (161, 56, bip.SAT), (147, 70, bip.SAT)])
def test_slice_decides_j273_points_without_milp(singer73, monkeypatch,
                                                beta0, gamma1, status):
    # 93 orbits get a 462-node slice of the exact solver, which decides
    # these points, so the own-system milp never runs
    def no_milp(inst, budget):
        raise AssertionError("milp ran on a point the slice decides")

    monkeypatch.setattr(search, "_milp_witness", no_milp)
    osys, B = singer73
    out = search_parameter_point(S73, osys, beta0, gamma1, B=B,
                                 max_seconds=30, seed=0, singer_exponent=1)
    assert (out.status, out.stage) == (status, "dfs")
    assert 0 < out.nodes <= search._slice_nodes(osys.count)
    if status == bip.SAT:
        rep = vf.verify_report(S73, out.code)
        assert rep["completely_regular"] and rep["gamma"] == [gamma1]


def test_orbital_branching_shrinks_the_j273_proof(singer73):
    # the Frobenius map permutes the 93 orbits of singer:1 and fixes the
    # system; without it the same proof takes 346 nodes.  Both counts hang
    # on the orbit numbering (orbits.orbit_system), so they are exact
    osys, B = singer73
    inst = bip.build_instance(S73, osys, 203, 14, B=B)
    symmetry = search._symmetry(osys, search._normalizers(S73, 1))
    res = bip.solve(inst, symmetry=symmetry)
    assert (res.status, res.nodes) == (bip.UNSAT, 45)
    plain = bip.solve(inst)
    assert (plain.status, plain.nodes) == (bip.UNSAT, 346)
    out = search_parameter_point(S73, osys, 203, 14, B=B, max_seconds=30,
                                 singer_exponent=1)
    assert (out.status, out.stage, out.nodes) == (bip.UNSAT, "dfs", res.nodes)


# the benchmark's eight search points at seed 0: (graph, singer
# exponent, beta0 + gamma1, gamma1) -> status, stage, lp_calls,
# certificates, simplex_iterations and the sha256 of the assignment's
# int8 bytes.  Recorded before propagation was batched and the node LP
# step trimmed; a node kernel that changes any branch decision, LP call
# or certificate changes one of them.  A pass makes 163 node LPs and
# 1376 simplex iterations
BENCH_POINT_PINS = {
    (S63, 21, 93, 9): (bip.SAT, "refinement:singer:7+frobenius:1", 4, 1, 34,
                       "ef70fc9fafa1009b363321c2df558004e1f01a9e0311c9d1e01a901913eb5807"),
    (S63, 21, 93, 12): (bip.SAT, "refinement:singer:7+frobenius:1", 17, 9, 86,
                        "a8acb69703f46767c842ed77a7dfe3ae40c057ec306e51f36d4c9f547b189d4e"),
    (S63, 21, 93, 18): (bip.SAT, "refinement:singer:7+frobenius:1", 20, 11, 124,
                        "4b1f28384ba19746ba7965689916b8d91c8a9eeecc0f3604825aa14eb12ee9ab"),
    (S63, 21, 93, 21): (bip.SAT, "refinement:singer:1+frobenius:1", 0, 0, 0,
                        "95b8917f9c822e076c931e297883ffa1b844dbbc68c31a0996e2f2b8d8a6a20b"),
    (S63, 21, 93, 27): (bip.SAT, "refinement:singer:7+frobenius:1", 18, 12, 175,
                        "cd2431aade663e5a9a15365da50fd2c87624991a6eb8a46ba29cdeb2b3a43c1f"),
    (S63, 21, 93, 30): (bip.SAT, "refinement:singer:7+frobenius:1", 53, 29, 350,
                        "149967f41d6ceb65d36b4c007cfcb7a6c83d91408c36d51adaeee73dfa808352"),
    (S73, 1, 217, 7): (bip.UNSAT, "dfs", 7, 1, 70, None),
    (S73, 1, 217, 14): (bip.UNSAT, "dfs", 44, 23, 537, None),
}


@pytest.fixture(scope="module")
def bench_systems():
    out = {}
    for spec, exponent in ((S63, 21), (S73, 1)):
        osys = ob.orbit_system(ob.singer_action(spec, exponent))
        out[spec] = osys, ob.quotient_matrix(spec, osys)
    return out


def test_benchmark_points_keep_their_trees(bench_systems):
    got = {}
    for spec, exponent, total, gamma1 in BENCH_POINT_PINS:
        osys, B = bench_systems[spec]
        out = search_parameter_point(spec, osys, total - gamma1, gamma1, B=B,
                                     seed=0, singer_exponent=exponent)
        digest = None if out.assignment is None else hashlib.sha256(
            np.asarray(out.assignment, dtype=np.int8).tobytes()).hexdigest()
        got[spec, exponent, total, gamma1] = (
            out.status, out.stage, out.lp_calls, out.certificates,
            out.simplex_iterations, digest)
    assert got == BENCH_POINT_PINS
    assert sum(v[2] for v in got.values()) == 163
    assert sum(v[4] for v in got.values()) == 1376


def test_slice_shrinks_as_orbits_grow():
    sizes = [search._slice_nodes(r) for r in (15, 93, 109, 465, 1395)]
    assert sizes == sorted(sizes, reverse=True)
    assert search._slice_nodes(93) >= 400
    assert search._slice_nodes(1395) <= 5


def test_slice_keeps_to_max_nodes(singer73, monkeypatch):
    # (203, 14) needs 45 nodes; with max_nodes=10 the slice runs out,
    # milp (here finding nothing) runs, and the final solve is capped too
    osys, B = singer73
    caps = []
    solve = bip.solve

    def recording_solve(inst, **kwargs):
        caps.append(kwargs["max_nodes"])
        return solve(inst, **kwargs)

    monkeypatch.setattr(bip, "solve", recording_solve)
    monkeypatch.setattr(search, "_milp_witness", lambda inst, budget: None)
    out = search_parameter_point(S73, osys, 203, 14, B=B, max_nodes=10,
                                 max_seconds=30, singer_exponent=1)
    assert (out.status, out.stage) == (bip.BUDGET_EXCEEDED, "dfs")
    assert caps == [10, 10]


def test_probe_witnesses_satisfy_original_system():
    osys = ob.orbit_system(ob.singer_action(S63, 21))
    B = ob.quotient_matrix(S63, osys)
    out = search_parameter_point(S63, osys, 81, 12, B=B, max_seconds=600,
                                 singer_exponent=21)
    assert out.status == bip.SAT
    inst = bip.build_instance(S63, osys, 81, 12, B=B)
    A_ext, rhs = inst.rows()
    x = out.assignment.astype(np.int64)
    assert ((A_ext @ x) == rhs).all()
    rep = vf.verify_report(S63, out.code)
    assert rep["completely_regular"] and rep["gamma"] == [12]


def test_criterion_8_gamma1_15_is_decided_before_milp(monkeypatch):
    # (78, 15) under singer:21 is SAT on a ladder rung in pass 1; with the
    # orbits numbered by another order than the lexicographic one, pass 1
    # leaves it open and milp runs on three rungs
    def no_milp(inst, budget):
        raise AssertionError("milp ran on criterion 8's gamma1 = 15")

    monkeypatch.setattr(search, "_milp_witness", no_milp)
    osys = ob.orbit_system(ob.singer_action(S63, 21))
    out = search_parameter_point(S63, osys, 78, 15, max_seconds=60,
                                 singer_exponent=21)
    assert (out.status, out.stage) == (bip.SAT,
                                       "refinement:singer:21+frobenius:2")
    assert out.lift_verified


@pytest.mark.parametrize("gamma1", [33, 36, 39, 42, 45])
def test_theta2_points_above_criterion_8_are_sat(gamma1):
    # theta_2 = 5 under singer:21 beyond criterion 8's gamma1 <= 30: every
    # one is SAT with a verified lift, each on a ladder rung
    osys = ob.orbit_system(ob.singer_action(S63, 21))
    B = ob.quotient_matrix(S63, osys)
    out = search_parameter_point(S63, osys, 93 - gamma1, gamma1, B=B,
                                 max_seconds=120, singer_exponent=21)
    assert out.status == bip.SAT and out.lift_verified
    rep = vf.verify_report(S63, out.code)
    assert rep["completely_regular"]
    assert (rep["beta"], rep["gamma"]) == ([93 - gamma1], [gamma1])
    assert rep["code_size"] == 15 * gamma1


def test_frobenius_action_is_automorphism():
    act = ob.frobenius_action(S42, 1)
    osys = ob.orbit_system(act)
    assert osys.count < S42.vertex_count  # not the identity
    ob.quotient_matrix(S42, osys)  # row sums and edge symmetry hold


def test_frobenius_fixed_subspaces_are_subfield_spans():
    # vertices fixed by v -> v^2 on GF(2^4) are binary spans of GF(2)-stable
    # sets; the 2-subspaces fixed pointwise-as-sets form the Frobenius-stable
    # class, which is closed under the Singer normalization used in search
    act = ob.frobenius_action(S42, 1)
    osys = ob.orbit_system(act)
    fixed = [int(o[0]) for o in osys.orbits if len(o) == 1]
    assert fixed  # at least the field-polynomial-stable subspaces
    perm = act.generators[0]
    assert all(perm[v] == v for v in fixed)


def test_joined_group_gets_residual_symmetry():
    # singer:1 and frobenius:1 both normalize <a^7, sigma^3>, and induce a
    # group of order 21 on its 99 orbits, as on the ladder rung of the
    # same name
    osys = ob.orbit_system(ob.join_actions([ob.singer_action(S63, 7),
                                            ob.frobenius_action(S63, 3)]))
    inst = bip.build_instance(S63, osys, 81, 12,
                              B=ob.quotient_matrix(S63, osys))
    A_ext, rhs = inst.rows()
    symmetry = search._symmetry(osys, search._normalizers(S63, None))
    assert osys.count == 99 and len(symmetry) == 2
    assert len(bip._symmetry_group(A_ext, rhs, symmetry)) == 21


def test_every_ladder_rung_gets_its_normalizing_field_actions():
    # J_2(6,3), e = 21: |H| on each rung, by orbit count; a^7 normalizes
    # singer:21+frobenius:2 and a^3 singer:21+frobenius:3, which a alone
    # does not
    orders = {7: 1, 11: 2, 15: 3, 18: 1, 23: 6, 33: 6, 35: 1, 38: 3, 55: 2,
              69: 18, 90: 1, 99: 21, 155: 42, 165: 6, 254: 21}
    got = {}
    for sup, symmetry, _ in search._refinement_ladder(S63, 21):
        A_ext, rhs = bip.build_instance(S63, sup, 81, 12).rows()
        got[sup.count] = len(bip._symmetry_group(A_ext, rhs, symmetry))
    assert got == orders


def _psl2_11():
    """PSL(2,11) on the 12 points of J(12,6), read as GF(11) and infinity
    (point 11): x -> x + 1 and x -> -1/x."""
    shift = np.array([(x + 1) % 11 for x in range(11)] + [11])
    invert = np.array([11] + [(-pow(x, -1, 11)) % 11 for x in range(1, 11)]
                      + [0])
    return ob.GroupAction(GraphSpec("johnson", 1, 12, 6), [shift, invert],
                          description="psl2_11")


@pytest.mark.parametrize("beta0,gamma1,blocks,lambdas", [
    (36, 6, 132, [66, 30, 12, 4, 1]), (30, 12, 264, [132, 60, 24, 8, 2])])
def test_psl2_11_invariant_steiner_systems(beta0, gamma1, blocks, lambdas):
    # theta = -6 points of J(12,6) are 5-designs: (36, 6) is S(5,6,12)
    action = _psl2_11()
    spec = action.spec
    osys = ob.orbit_system(action)
    assert osys.count == 6
    B = ob.quotient_matrix(spec, osys)
    out = search_parameter_point(spec, osys, beta0, gamma1, B=B,
                                 max_seconds=60)
    assert out.status == bip.SAT and out.lift_verified
    rep = vf.verify_report(spec, out.code)
    assert rep["completely_regular"] and rep["code_size"] == blocks
    assert (rep["beta"], rep["gamma"]) == ([beta0], [gamma1])
    assert rep["strength"] == 5 and rep["lambdas"] == lambdas
