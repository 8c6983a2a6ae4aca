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


def test_all_mode_bypasses_probes(singer42):
    osys, B = singer42
    out = search_parameter_point(S42, osys, 15, 6, B=B, mode="all")
    assert out.stage == "dfs"
    assert out.status == bip.SAT and out.count == 45


@pytest.mark.parametrize("beta0,gamma1,mode", [(18, 3, "first"),
                                               (15, 6, "all")])
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


def test_max_seconds_bounds_the_point():
    # 1395 orbits and no ladder: milp and then the DFS at about 5 ms a
    # node must both stop at the one deadline
    ident = ob.GroupAction(S63, [np.arange(S63.vertex_count)],
                           description="identity")
    osys = ob.orbit_system(ident)
    B = ob.quotient_matrix(S63, osys)
    t0 = time.monotonic()
    out = search_parameter_point(S63, osys, 81, 12, B=B, max_seconds=2)
    assert out.status in (bip.SAT, bip.BUDGET_EXCEEDED)
    assert time.monotonic() - t0 < 6


def test_node_lp_stops_at_the_deadline():
    # 1395 orbits: each node LP is slow, and HiGHS gets the time left as
    # its time_limit, so no LP runs past max_seconds
    ident = ob.GroupAction(S63, [np.arange(S63.vertex_count)],
                           description="identity")
    osys = ob.orbit_system(ident)
    inst = bip.build_instance(S63, osys, 56, 7,
                              B=ob.quotient_matrix(S63, osys))
    t0 = time.monotonic()
    res = bip.solve(inst, seed=0, max_seconds=2)
    assert res.status in (bip.SAT, bip.BUDGET_EXCEEDED)
    assert time.monotonic() - t0 < 4


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
    (210, 7, bip.UNSAT), (203, 14, bip.UNSAT), (196, 21, bip.SAT)])
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


def test_slice_shrinks_as_orbits_grow():
    sizes = [search._slice_nodes(r) for r in (15, 93, 109, 465, 1395)]
    assert sizes == sorted(sizes, reverse=True)
    assert search._slice_nodes(93) >= 400
    assert search._slice_nodes(1395) <= 5


def test_slice_keeps_to_max_nodes(singer73, monkeypatch):
    # (203, 14) needs 346 nodes; with max_nodes=10 the slice runs out,
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
