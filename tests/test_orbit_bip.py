import hashlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from crcodes import bip
from crcodes import constructions as con
from crcodes import orbits as ob
from crcodes import verify as vf
from crcodes.cli import _parse_group
from crcodes.galois import companion
from crcodes.graphs import (GraphSpec, adjacency_lists, parse_graph_spec,
                            theta_ladder, vertex_index)

S63 = GraphSpec("grassmann", 2, 6, 3)
S62 = GraphSpec("grassmann", 2, 6, 2)
S42 = GraphSpec("grassmann", 2, 4, 2)
S73 = GraphSpec("grassmann", 2, 7, 3)


def brute_force_assignments(inst):
    """All satisfying 0/1 vectors by full enumeration (r <= 20)."""
    A_ext, rhs = inst.rows()
    r = inst.r
    assert r <= 20
    X = ((np.arange(1 << r)[:, None] >> np.arange(r)) & 1).astype(np.int64)
    good = (X @ A_ext.T == rhs).all(axis=1)
    return sorted(tuple(row) for row in X[good])


@pytest.fixture(scope="module")
def gamma21():
    action = ob.singer_action(S63, 21)
    osys = ob.orbit_system(action)
    B = ob.quotient_matrix(S63, osys)
    return osys, B


def test_singer_21_orbits(gamma21):
    osys, B = gamma21
    assert osys.count == 465
    assert set(osys.sizes().tolist()) == {3}
    assert (B.sum(axis=1) == 98).all()


def test_singer_identity_exponent():
    action = ob.singer_action(S63, 63)  # a^63 = 1
    osys = ob.orbit_system(action)
    assert osys.count == 1395


def test_orbit_counts_invariant_under_modulus_choice():
    # same counts with the reciprocal modulus x^6 + x^5 + 1
    a = ob._matrix_point_map(S63, companion(2, [1, 0, 0, 0, 0, 1, 1]))
    action = ob.GroupAction(S63, [ob._power(a, 21)])
    osys = ob.orbit_system(action)
    assert osys.count == 465
    assert set(osys.sizes().tolist()) == {3}
    B = ob.quotient_matrix(S63, osys)
    assert (B.sum(axis=1) == 98).all()


def _rref_oracle_perm(spec, move):
    """Vertex permutation of a field map by row-reducing every vertex image."""
    from crcodes import subspaces as sp
    idx = vertex_index(spec)
    images = [sp.rref([move(r) for r in row], spec.n, spec.q).rows
              for row in idx.rows.tolist()]
    return idx.ids_of_rows(
        np.array(images, dtype=np.uint64).reshape(len(idx), spec.k))


@pytest.mark.parametrize("spec_text,kind,e", [
    ("jq:2,6,3", "singer", 1), ("jq:2,6,3", "singer", 21),
    ("jq:2,6,3", "frobenius", 1), ("jq:2,6,3", "frobenius", 2),
    ("jq:3,4,2", "singer", 1), ("jq:3,4,2", "frobenius", 1),
    ("jq:5,4,2", "singer", 1), ("jq:5,4,2", "frobenius", 1),
])
def test_field_actions_match_rref_oracle(spec_text, kind, e):
    # a packed vector of GF(q)^n is the index of its element of GF(q^n),
    # and a, the class of x, has index q
    spec = parse_graph_spec(spec_text)
    order = spec.q ** spec.n
    if kind == "singer":
        factor = oracles.gf_pow(spec.q, e, order)
        action = ob.singer_action(spec, e)
        want = _rref_oracle_perm(
            spec, lambda r: oracles.gf_mul(r, factor, order))
    else:
        action = ob.frobenius_action(spec, e)
        want = _rref_oracle_perm(
            spec, lambda r: oracles.gf_pow(r, spec.q ** (e % spec.n), order))
    assert np.array_equal(action.generators[0], want)


def test_singer_21_fixed_vertices_on_lines_are_the_spread():
    action = ob.singer_action(S62, 21)
    osys = ob.orbit_system(action)
    fixed = sorted(int(o[0]) for o in osys.orbits if len(o) == 1)
    spread = con.desarguesian_2spread(2, 6)
    assert spread.spec == S62
    assert fixed == spread.ids.tolist()
    assert osys.count == 21 + (651 - 21) // 3


def test_composed_generators_coarsen():
    a21 = ob.singer_action(S63, 21)
    a9 = ob.singer_action(S63, 9)
    both = ob.GroupAction(S63, a21.point_generators + a9.point_generators,
                          description="a21+a9")
    o21 = ob.orbit_system(a21)
    o9 = ob.orbit_system(a9)
    oboth = ob.orbit_system(both)
    assert oboth.count <= min(o21.count, o9.count)
    # every orbit of a single generator sits inside one combined orbit
    for orb in o21.orbits:
        assert len(set(oboth.orbit_of[orb].tolist())) == 1


def test_non_automorphism_rejected():
    # a point transposition maps some line through one of the two points
    # onto a set of points that is no subspace
    # (S73, [5, 100]) moves points across the two 64-bit words of the
    # J_2(7,3) point sets
    for spec, swap in [(S42, [0, 1]), (S73, [7, 41]), (S73, [5, 100])]:
        perm = np.arange(spec.level(1).vertex_count)
        perm[swap] = perm[swap[::-1]]
        with pytest.raises(vf.VerificationError, match="not a graph automorphism"):
            ob.GroupAction(spec, [perm])
    # a vertex permutation is no point permutation
    with pytest.raises(vf.VerificationError, match="not a point permutation"):
        ob.GroupAction(S42, [np.arange(S42.vertex_count)])
    with pytest.raises(vf.VerificationError, match="not a point permutation"):
        ob.GroupAction(S42, [np.zeros(15, dtype=np.int64)])


# sha256 of GroupAction.generators as little-endian int64, taken when the
# match sorted each vertex's point ids; the bit-set match must reproduce
# them (J_2(7,3) has 127 points, two words; J(16,6) one)
GENERATOR_DIGESTS = {
    ("jq:2,6,3", "singer:1"):
        "dcb0c60072b651857ae58b93f035ae9582907035dba23448a3dfd7974780333c",
    ("jq:2,6,3", "frobenius:1"):
        "d7afc59bae0957bdcf4d958678fc85f476cfd42fa78c113b69ed44736a28478c",
    ("jq:2,7,3", "singer:1"):
        "455caf0cb824f9016a01eb501417d3a9d55e66b475c725a96b2e00ea508c3b0c",
    ("jq:2,7,3", "frobenius:1"):
        "e3ce8515be3af13933a2608b98a2b57c607db195c3e561be15ba4f1bf43a34db",
    ("jq:3,4,2", "singer:1"):
        "0320320ae5d76460a9cfc776b29551cdf733ebe334686e5af1177863083b627e",
    ("jq:3,4,2", "frobenius:1"):
        "99b3ed226eacedd90199d5959806ac809d44f74f11375f8a095e055f15d9e4ff",
    ("j:16,6", "3x+1"):
        "6996e7140f24e9ac69b209a87b60d889844ee92cdaa21c51b893762313f7fc21",
}


def test_generators_reproduce_the_pinned_bytes():
    for (graph, group), want in GENERATOR_DIGESTS.items():
        spec = parse_graph_spec(graph)
        if group == "3x+1":
            action = ob.GroupAction(spec, [(3 * np.arange(16) + 1) % 16])
        else:
            action = _group(spec, group)
        lex, rank = oracles.lex_order(spec.n, spec.k, spec.q)
        digest = hashlib.sha256()
        for g in action.generators:
            g = rank[g[lex]]  # on lexicographic ranks, the ids of the pins
            digest.update(np.ascontiguousarray(g.astype("<i8")).tobytes())
        assert digest.hexdigest() == want, (graph, group)


def test_quotient_matrix_identity_action_is_adjacency():
    """B against the adjacency oracle, row by row for every orbit member:
    the identity (B is the adjacency matrix), a Johnson graph under a
    point permutation, and orbits of equal and of unequal sizes."""
    identity = ob.GroupAction(S42, [np.arange(15)], description="identity")
    J73 = GraphSpec("johnson", 1, 7, 3)
    swap_cycle = ob.GroupAction(J73, [[1, 2, 0, 4, 3, 5, 6]])
    ladder_rung = ob.join_actions([ob.singer_action(S63, 7),
                                   ob.frobenius_action(S63, 1)])
    for spec, action in [(S42, identity), (J73, swap_cycle),
                         (S63, ob.singer_action(S63, 21)), (S63, ladder_rung)]:
        osys = ob.orbit_system(action)
        B = ob.quotient_matrix(spec, osys)
        adj = adjacency_lists(spec)
        for v in range(spec.vertex_count):
            row = np.bincount(osys.orbit_of[adj[v]], minlength=osys.count)
            assert np.array_equal(row, B[osys.orbit_of[v]])
    assert len(set(osys.sizes().tolist())) > 1  # the rung's orbit sizes differ


def test_quotient_edge_symmetry(gamma21):
    osys, B = gamma21
    sizes = osys.sizes()
    assert np.array_equal(B * sizes[:, None], (B * sizes[:, None]).T)


def test_feasible_parameters_table_rows():
    rows = bip.feasible_parameters(S63)
    by_theta = {row["eigenvalue"]: row for row in rows}
    assert [g1 for _, g1 in by_theta[5]["pairs"]] == list(range(3, 46, 3))
    assert [g1 for _, g1 in by_theta[35]["pairs"]] == [7, 14, 21, 28]
    assert [g1 for _, g1 in by_theta[-7]["pairs"]] == [21, 42]


def test_feasible_parameters_on_an_unbalanced_graph():
    # jq:2,6,4 has min(k, n - k) + 1 = 3 eigenvalues, so two rows
    spec = GraphSpec("grassmann", 2, 6, 4, allow_unbalanced=True)
    rows = bip.feasible_parameters(spec)
    assert [row["eigenvalue"] for row in rows] == [27, -3]
    for row in rows:
        for beta0, gamma1 in row["pairs"]:
            assert vf.size_and_integrality_report(spec, beta0,
                                                  gamma1)["feasible"]


def test_instance_invariants_and_targets(gamma21):
    osys, B = gamma21
    inst = bip.build_instance(S63, osys, 81, 12, B=B)
    assert inst.target_eigenvalue == 5
    assert inst.code_size == 1395 * 12 // 93 == 180
    A_ext, rhs = inst.rows()
    assert A_ext.shape == (466, 465)
    assert rhs[-1] == 180
    # built once per instance, and read-only, since every caller shares it
    again = inst.rows()
    assert again[0] is A_ext and again[1] is rhs
    with pytest.raises(ValueError):
        A_ext[0, 0] = 0
    with pytest.raises(ValueError):
        rhs[0] = 0
    with pytest.raises(vf.VerificationError):
        bip.build_instance(S63, osys, 80, 12, B=B)  # size not integral


def test_known_witness_satisfies_instance(gamma21):
    osys, B = gamma21
    spread_lines = con.avoid_code(
        S63, con.desarguesian_2spread(2, 6)).complement()
    mask = np.zeros(S63.vertex_count, dtype=bool)
    mask[spread_lines.ids] = True
    x = np.array([1 if mask[o[0]] else 0 for o in osys.orbits], dtype=np.int64)
    inst = bip.build_instance(S63, osys, 72, 21, B=B)
    A_ext, rhs = inst.rows()
    assert ((A_ext @ x) == rhs).all()


@pytest.fixture(scope="module")
def singer42():
    osys = ob.orbit_system(ob.singer_action(S42, 5))
    B = ob.quotient_matrix(S42, osys)
    return osys, B


def test_singer_on_j242_orbits(singer42):
    osys, _ = singer42
    assert osys.count == 15
    assert sorted(osys.sizes().tolist()) == [1] * 5 + [3] * 10


@pytest.mark.parametrize("beta0,gamma1", [(18, 3), (15, 6), (12, 9), (9, 6)])
def test_solver_matches_brute_force(singer42, beta0, gamma1):
    osys, B = singer42
    try:
        inst = bip.build_instance(S42, osys, beta0, gamma1, B=B)
    except vf.VerificationError:
        assert (35 * gamma1) % (beta0 + gamma1) != 0
        return
    res = bip.solve(inst, mode="all")
    assert res.status in (bip.SAT, bip.UNSAT)
    got = sorted(tuple(int(v) for v in s) for s in res.solutions)
    assert got == brute_force_assignments(inst)
    counted = bip.solve(inst, mode="count")
    assert counted.count == len(got)


def test_spread_is_found_and_lifts(singer42):
    osys, B = singer42
    inst = bip.build_instance(S42, osys, 18, 3, B=B)
    res = bip.solve(inst, mode="first")
    assert res.status == bip.SAT
    code = bip.lift(res.solutions[0], osys, S42)
    rep = vf.verify_report(S42, code)
    assert rep["completely_regular"]
    assert rep["beta"] == [18] and rep["gamma"] == [3]
    assert rep["code_size"] == 5


def test_solver_determinism(singer42):
    osys, B = singer42
    inst = bip.build_instance(S42, osys, 15, 6, B=B)
    a = bip.solve(inst, mode="first", seed=7)
    b = bip.solve(inst, mode="first", seed=7)
    assert a.status == b.status == bip.SAT
    assert np.array_equal(a.solutions[0], b.solutions[0])
    assert a.nodes == b.nodes


def test_nonintegral_size_rejected_at_build():
    spec = GraphSpec("johnson", 1, 3, 1)
    perm = np.array([1, 2, 0], dtype=np.int64)
    osys = ob.orbit_system(ob.GroupAction(spec, [perm], description="rot"))
    assert osys.count == 1
    with pytest.raises(vf.VerificationError):
        bip.build_instance(spec, osys, 1, 1)  # |V| gamma1 / 2 is not integral


def test_inconsistent_parameters_unsat():
    # octahedron J(4,2): beta0 = 5 exceeds what a valency-4 vertex can do
    spec = GraphSpec("johnson", 1, 4, 2)
    perm = np.arange(4)
    osys = ob.orbit_system(ob.GroupAction(spec, [perm], description="identity"))
    inst = bip.build_instance(spec, osys, 5, 1)
    res = bip.solve(inst, mode="all")
    assert res.status == bip.UNSAT and res.count == 0
    assert brute_force_assignments(inst) == []


def _random_system(seed):
    """A seeded 0/1 system on r = 8..14 variables: r rows cycling through
    k = 2..4 sparse rows with coefficients in -2..3, then a row of
    positive sizes, as a quotient system ends; a planted x0 solves it."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(8, 15))
    k = int(rng.integers(2, 5))
    A = rng.integers(-2, 4, size=(k, r)) * (rng.random((k, r)) < 0.6)
    x0 = (rng.random(r) < 0.5).astype(np.int64)
    A_ext = np.vstack([np.tile(A, (-(-r // k), 1))[:r],
                       rng.integers(1, 4, size=r)]).astype(np.int64)
    return SimpleNamespace(r=r, rows=lambda: (A_ext, A_ext @ x0))


def _forced_at_root(A_ext, rhs):
    """Variables the first propagation round forces, row by row and
    variable by variable: |c| above a row's reach up or down."""
    lo = np.minimum(A_ext, 0).sum(axis=1)
    hi = np.maximum(A_ext, 0).sum(axis=1)
    return len({j for i, b in enumerate(rhs) for j, c in enumerate(A_ext[i])
                if abs(c) > b - lo[i] or abs(c) > hi[i] - b})


# seed -> variables forced in the first round, solution count, nodes and
# the sha256 of the solutions in the order mode 'all' finds them,
# recorded while propagation still assigned one variable at a time
PROPAGATION_PINS = {
    0: (1, 4, 13, "6f0aa8413abbafe87a59a49d6d78ec261f0d58ac3be7b08ffb8151a6783f6b65"),
    1: (4, 3, 4, "b91451f2423107c38fc05ab4d1b4b678da612abc745ec90b913ede5b2a4541b8"),
    2: (0, 12, 39, "2099cd221c1688c08d929b6d08924aeb69c76e97af987539f1c5bb5b3c849578"),
    3: (1, 18, 28, "d419ff691e14360f5af1c66c7db5e8e1dddb56554633bcb02cbb8ce9b4de3e36"),
    4: (0, 2, 3, "6a381f9361583f64a18a22500d4a6882000d5b3d4ae7f3e8d152b6156b3de1df"),
    5: (4, 1, 1, "179381e6e2c8475cdc671f57e6035e427c1235632ea3127e26809c883c0cfc40"),
    6: (1, 1, 4, "71453b79a60830822915e5e26baead3e9b138d6536a34b062c3cda4fb3e03632"),
    7: (0, 4, 32, "218f64a7135359d1d9dca94821c92af8f796b38abe6c636c2d34ae9aa87a1428"),
}


@pytest.mark.parametrize("seed", sorted(PROPAGATION_PINS))
def test_propagation_keeps_its_fixpoints(seed):
    inst = _random_system(seed)
    forced, count, nodes, digest = PROPAGATION_PINS[seed]
    assert _forced_at_root(*inst.rows()) == forced
    every = bip.solve(inst, mode="all")
    found = b"".join(x.tobytes() for x in every.solutions)
    assert (every.count, every.nodes,
            hashlib.sha256(found).hexdigest()) == (count, nodes, digest)
    assert sorted(tuple(x) for x in every.solutions) == \
        brute_force_assignments(inst)
    counted = bip.solve(inst, mode="count")
    assert (counted.count, counted.nodes) == (count, nodes)


# x1 + x2 + x3 = 2 and x1 - x2 = 0: the only 0/1 solution is (1, 1, 0)
FARKAS_A = np.array([[1, 1, 1], [1, -1, 0]], dtype=np.int64)
FARKAS_B = np.array([2, 0], dtype=np.int64)
FULL_BOX = (np.zeros(3, dtype=np.int64), np.ones(3, dtype=np.int64))
X1_ZERO = (np.zeros(3, dtype=np.int64), np.array([0, 1, 1]))  # x1 fixed to 0


def test_farkas_certificate_accepts_a_true_ray():
    # y = (1, 1): y^T A = (2, 0, 1) reaches at most 1 with x1 = 0, y^T b = 2
    for ray in ([1.0, 1.0], [0.5, 0.5], [-3.0, -3.0]):
        y = bip.farkas_certificate(ray, FARKAS_A, FARKAS_B, *X1_ZERO)
        assert y is not None and y.dtype == np.int64
        box = [np.array([0, a, b]) for a in (0, 1) for b in (0, 1)]
        assert all(y @ FARKAS_A @ x != y @ FARKAS_B for x in box)


def test_farkas_certificate_rejects_non_certificates():
    assert bip.farkas_certificate([0.0, 0.0], FARKAS_A, FARKAS_B,
                                  *X1_ZERO) is None
    # y = (1, -1): y^T A = (0, 2, 1) spans [0, 3] over the box, y^T b = 2
    assert bip.farkas_certificate([1.0, -1.0], FARKAS_A, FARKAS_B,
                                  *X1_ZERO) is None
    # the full box holds (1, 1, 0), so no vector at all may pass there
    assert bip.farkas_certificate([1.0, 1.0], FARKAS_A, FARKAS_B,
                                  *FULL_BOX) is None
    rng = np.random.default_rng(11)
    for _ in range(200):
        ray = rng.normal(size=2) * 10.0 ** rng.integers(-6, 7)
        assert bip.farkas_certificate(ray, FARKAS_A, FARKAS_B,
                                      *FULL_BOX) is None


def test_farkas_certificate_refuses_systems_int64_cannot_hold():
    big = np.array([[1 << 54]], dtype=np.int64)
    with pytest.raises(OverflowError):
        bip.farkas_certificate([1.0], big, np.array([1]), np.zeros(1),
                               np.ones(1))


def test_farkas_certificate_on_highs_duals():
    lp = bip._node_lp(FARKAS_A, FARKAS_B)
    lp.changeColsBounds(3, np.arange(3, dtype=np.int32),
                        X1_ZERO[0].astype(float), X1_ZERO[1].astype(float))
    lp.run()
    assert lp.getModelStatus().name == "kInfeasible"
    _, has_ray, ray = lp.getDualRay()
    assert has_ray
    assert bip.farkas_certificate(ray, FARKAS_A, FARKAS_B, *X1_ZERO) is not None
    # the same ray, and the duals of the LP on the feasible box, prove
    # nothing about the feasible box
    assert bip.farkas_certificate(ray, FARKAS_A, FARKAS_B, *FULL_BOX) is None
    lp.changeColsBounds(3, np.arange(3, dtype=np.int32),
                        FULL_BOX[0].astype(float), FULL_BOX[1].astype(float))
    lp.run()
    assert lp.getModelStatus().name == "kOptimal"
    duals = np.asarray(lp.getSolution().row_dual)
    assert bip.farkas_certificate(duals, FARKAS_A, FARKAS_B, *FULL_BOX) is None


def test_node_lp_is_a_pure_feasibility_lp(monkeypatch):
    lp = bip._node_lp(FARKAS_A, FARKAS_B)
    assert lp.getOptionValue("presolve")[1] == "off"
    assert lp.getOptionValue(
        "dual_simplex_cost_perturbation_multiplier")[1] == 0
    # HiGHS answers an unknown option with a status, raising nothing; a
    # node LP must not be built without every one of its options
    monkeypatch.setitem(bip.NODE_LP_OPTIONS, "no_such_option", 0.0)
    with pytest.raises(RuntimeError, match="no_such_option"):
        bip._node_lp(FARKAS_A, FARKAS_B)


def _run_warnings_as_errors(script: str) -> str:
    return subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True, check=True).stdout


def test_node_lps_and_scipy_optimize_share_one_highs_module():
    # scipy.optimize first: the node LP takes the module it loaded
    out = _run_warnings_as_errors(
        "import numpy as np, scipy.optimize\n"
        "from crcodes import bip\n"
        f"lp = bip._node_lp(np.array({FARKAS_A.tolist()}), "
        f"np.array({FARKAS_B.tolist()}))\n"
        "lp.run()\n"
        "print(lp.getModelStatus().name,\n"
        "      bip._highs_core() is scipy.optimize._highspy._core)\n")
    assert out.split() == ["kOptimal", "True"]
    # node LP first: milp, imported later, runs on the module it loaded
    out = _run_warnings_as_errors(
        "import sys\n"
        "from crcodes import bip, search, orbits as ob\n"
        "from crcodes.graphs import GraphSpec\n"
        "spec = GraphSpec('grassmann', 2, 4, 2)\n"
        "inst = bip.build_instance(\n"
        "    spec, ob.orbit_system(ob.singer_action(spec, 5)), 15, 6)\n"
        "bip._node_lp(*inst.rows()).run()\n"
        "core = sys.modules['scipy.optimize._highspy._core']\n"
        "print('scipy.optimize' in sys.modules)\n"
        "x = search._milp_witness(inst, 30.0)\n"
        "import scipy.optimize._highspy._highs_wrapper as wrapper\n"
        "print(x is not None and bip.exact_witness(*inst.rows(), x),\n"
        "      core is bip._highs_core() is wrapper._h)\n")
    assert out.split() == ["False", "True", "True"]


def test_budget_exceeded_reported(gamma21):
    osys, B = gamma21
    inst = bip.build_instance(S63, osys, 84, 9, B=B)
    res = bip.solve(inst, mode="first", max_nodes=5)
    assert res.status == bip.BUDGET_EXCEEDED


def test_lift_edge_cases(gamma21):
    osys, _ = gamma21
    empty = bip.lift(np.zeros(465, dtype=np.int8), osys, S63)
    assert len(empty) == 0
    full = bip.lift(np.ones(465, dtype=np.int8), osys, S63)
    assert len(full) == 1395


GOLDEN_OPB = """* #variable= 3 #constraint= 4
* graph j:3,1 group identity beta0 2 gamma1 1
+1 x1 +1 x2 +1 x3 = 1 ;
+1 x1 +1 x2 +1 x3 = 1 ;
+1 x1 +1 x2 +1 x3 = 1 ;
+1 x1 +1 x2 +1 x3 = 1 ;
"""


def toy_triangle_instance():
    # triangle, identity orbits; theta target -1, so B - theta I is all ones
    spec = GraphSpec("johnson", 1, 3, 1)
    perm = np.arange(3, dtype=np.int64)
    osys = ob.orbit_system(ob.GroupAction(spec, [perm], description="identity"))
    return bip.build_instance(spec, osys, 2, 1)


def test_export_opb_golden():
    inst = toy_triangle_instance()
    text = bip.export_opb(inst)
    assert text == GOLDEN_OPB
    assert sum(1 for ln in text.splitlines()
               if ln and not ln.startswith("*")) == inst.r + 1


# sha256 of export_opb for two search points, taken while the vertex ids
# were still the lexicographic ones: the orbits, and so every OPB
# variable, keep their numbering whatever the vertex ids are
OPB_DIGESTS = {
    ("jq:2,6,3", 21, 84, 9):
        "82cd3425bbfd7f3145411c9d0bc1a98172adf5c0cc4e2aa0c96da48d30819597",
    ("jq:2,7,3", 1, 203, 14):
        "3c19ecc90a0adfa45ebd49ebbfdf27e33d98582101c7098e754c5caaa3aa6894",
}


def test_export_opb_reproduces_the_pinned_bytes():
    for (graph, exponent, beta0, gamma1), want in OPB_DIGESTS.items():
        spec = parse_graph_spec(graph)
        osys = ob.orbit_system(ob.singer_action(spec, exponent))
        text = bip.export_opb(bip.build_instance(spec, osys, beta0, gamma1))
        assert hashlib.sha256(text.encode()).hexdigest() == want, graph


def test_export_opb_round_trip():
    inst = toy_triangle_instance()
    rows, rhs = oracles.parse_opb(bip.export_opb(inst))
    A_ext, want_rhs = inst.rows()
    assert rhs == [int(v) for v in want_rhs]
    for i, row in enumerate(rows):
        dense = np.zeros(inst.r, dtype=np.int64)
        for j, c in row.items():
            dense[j] = c
        assert np.array_equal(dense, A_ext[i])


def test_export_lp_structure():
    inst = toy_triangle_instance()
    text = bip.export_lp(inst)
    assert text.startswith("\\ j:3,1")
    assert "Minimize" in text and "Binaries" in text and text.rstrip().endswith("End")
    assert " card: " in text


# ----------------------------------------------------------------------
# Orbit systems in array passes, orbit permutations, orbital branching
# ----------------------------------------------------------------------

def _group(spec, text):
    return _parse_group(spec, text)[0]


def _swap_and_cycle(spec):
    """J(n, k) under the point swap (0 1) and the cycle (0 1 ... n-2):
    S_{n-1}, two orbits, which take the array passes more than one round
    over the generators."""
    n = spec.n
    swap = np.arange(n)
    swap[[0, 1]] = 1, 0
    cycle = np.arange(n)
    cycle[:n - 1] = np.roll(np.arange(n - 1), 1)
    return ob.GroupAction(spec, [swap, cycle], description="swap+cycle")


@pytest.mark.parametrize("spec,group", [
    (S63, "singer:21"), (S63, "singer:7+frobenius:1"), (S73, "singer:1"),
    (GraphSpec("grassmann", 2, 8, 4), "singer:1+frobenius:1"),
    (GraphSpec("johnson", 1, 9, 3), "swap+cycle"),
])
def test_orbit_system_matches_the_loop(spec, group):
    action = _swap_and_cycle(spec) if group == "swap+cycle" \
        else _group(spec, group)
    got = ob.orbit_system(action)
    want = oracles.orbit_system_loop(action)
    assert np.array_equal(got.orbit_of, want.orbit_of)
    assert got.orbit_of.dtype == want.orbit_of.dtype
    assert len(got.orbits) == len(want.orbits)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype
               for a, b in zip(got.orbits, want.orbits))
    assert got.description == want.description == group
    for osys in (got, want):
        reps = osys.representatives
        assert np.array_equal(reps, [o[0] for o in want.orbits])
        assert reps.dtype == np.int64 and not reps.flags.writeable
        assert osys.representatives is reps  # made once per system


def test_join_is_one_action_over_the_point_generators():
    a7 = ob.singer_action(S63, 7)
    f1 = ob.frobenius_action(S63, 1)
    joined = ob.join_actions([a7, f1])
    one = ob.GroupAction(S63, a7.point_generators + f1.point_generators)
    assert joined.description == "singer:7+frobenius:1"
    assert all(np.array_equal(g, h) for g, h in
               zip(joined.generators, a7.generators + f1.generators))
    assert np.array_equal(ob.orbit_system(joined).orbit_of,
                          ob.orbit_system(one).orbit_of)
    with pytest.raises(vf.VerificationError):
        ob.join_actions([a7, ob.singer_action(S73, 1)])


def test_join_actions_checks_no_generator_again():
    a7 = ob.singer_action(S63, 7)
    f1 = ob.frobenius_action(S63, 1)
    checks = ob._vertex_perm.cache_info().misses
    joined = ob.join_actions([a7, f1])
    assert ob._vertex_perm.cache_info().misses == checks
    assert joined.description == "singer:7+frobenius:1"
    assert all(g is h for g, h in zip(joined.generators,
                                      a7.generators + f1.generators))
    # the same point generators as fresh arrays are not matched again
    raw = ob.GroupAction(S63, [p.copy() for p in joined.point_generators])
    assert ob._vertex_perm.cache_info().misses == checks
    assert np.array_equal(ob.orbit_system(raw).orbit_of,
                          ob.orbit_system(joined).orbit_of)
    # the shared vertex permutations cannot be changed through one action
    assert not any(g.flags.writeable for g in joined.generators)
    with pytest.raises(vf.VerificationError):
        ob.join_actions([a7, ob.singer_action(S73, 1)])


def test_orbit_permutation_fixes_the_quotient_matrix():
    osys = ob.orbit_system(_group(S63, "singer:7+frobenius:3"))
    B = ob.quotient_matrix(S63, osys)
    for text in ("singer:1", "singer:3", "frobenius:1", "frobenius:2"):
        pi = ob.orbit_permutation(osys, _group(S63, text))
        assert pi is not None
        assert np.array_equal(np.sort(pi), np.arange(osys.count))
        assert np.array_equal(B[pi][:, pi], B)
        assert np.array_equal(osys.sizes()[pi], osys.sizes())


def test_orbit_permutation_refuses_an_action_that_does_not_normalize():
    # a^-1 sigma a = a^-2 sigma is not in <a^3, sigma>: a moves some orbit
    # of that group across two orbits
    osys = ob.orbit_system(_group(S63, "singer:3+frobenius:1"))
    assert ob.orbit_permutation(osys, _group(S63, "singer:1")) is None
    assert ob.orbit_permutation(osys, _group(S63, "singer:3")) is not None


def _screened_points(spec):
    """Every (beta0, gamma1) of the integrality screen, both halves."""
    m = spec.valency
    for th in theta_ladder(spec)[1:]:
        s = m - th
        for gamma1 in range(1, s):
            if vf.size_and_integrality_report(spec, s - gamma1,
                                              gamma1)["feasible"]:
                yield s - gamma1, gamma1


@pytest.mark.parametrize("graph,exponent,order", [
    ("jq:2,4,2", 5, 20), ("jq:3,4,2", 4, 8), ("jq:2,5,2", 1, 5)])
def test_orbital_branching_matches_the_oracle(graph, exponent, order):
    from crcodes.search import _normalizers, _symmetry
    spec = parse_graph_spec(graph)
    osys = ob.orbit_system(ob.singer_action(spec, exponent))
    B = ob.quotient_matrix(spec, osys)
    symmetry = _symmetry(osys, _normalizers(spec, exponent))
    points = list(_screened_points(spec))
    assert points
    for beta0, gamma1 in points:
        inst = bip.build_instance(spec, osys, beta0, gamma1, B=B)
        A_ext, rhs = inst.rows()
        assert len(bip._symmetry_group(A_ext, rhs, symmetry)) == order
        res = bip.solve(inst, mode="first", symmetry=symmetry)
        assert res.status == (bip.SAT if brute_force_assignments(inst)
                              else bip.UNSAT), (beta0, gamma1)
        for x in res.solutions:
            assert ((A_ext @ x.astype(np.int64)) == rhs).all()


def test_symmetry_that_breaks_the_system_is_refused(singer42):
    osys, B = singer42
    inst = bip.build_instance(S42, osys, 18, 3, B=B)
    A_ext, rhs = inst.rows()
    r = inst.r
    sizes = osys.sizes()
    def swap(i, j):
        p = np.arange(r)
        p[[i, j]] = j, i
        return p

    # a swap of two orbits of different sizes breaks the sizes row; some
    # swap of two orbits of size 3 breaks B
    one, three = np.nonzero(sizes == 1)[0], np.nonzero(sizes == 3)[0]
    breaks_b = [p for p in (swap(i, j) for i in three for j in three
                            if i < j)
                if not np.array_equal(A_ext[p][:, p], A_ext[:r])]
    assert breaks_b
    for bad in (swap(one[0], three[0]), breaks_b[0],
                np.zeros(r, dtype=np.int64)):
        with pytest.raises(vf.VerificationError):
            bip.solve(inst, symmetry=[bad])
    # a swap that keeps A_ext but not rhs: a system whose quotient rows
    # ask different values of two symmetric variables
    A = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    b = np.array([1, 0, 1], dtype=np.int64)
    with pytest.raises(vf.VerificationError):
        bip._symmetry_group(A, b, [np.array([1, 0])])
    assert len(bip._symmetry_group(A, np.array([1, 1, 2]),
                                   [np.array([1, 0])])) == 2


def test_cached_closure_never_skips_the_integer_check(singer42):
    osys, B = singer42
    inst = bip.build_instance(S42, osys, 18, 3, B=B)
    A_ext, rhs = inst.rows()
    r = inst.r
    # the swap fixes A = [[1, 0], [0, 1], [1, 1]] with rhs (1, 1, 2), so
    # its closure is cached; with rhs (1, 0, 1) it breaks the system
    swap = [np.array([1, 0])]
    A = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    group = bip._symmetry_group(A, np.array([1, 1, 2]), swap)
    assert group is bip._symmetry_group(A, np.array([1, 1, 2]), swap)
    assert not group.flags.writeable
    with pytest.raises(vf.VerificationError):
        bip._symmetry_group(A, np.array([1, 0, 1]), swap)
    # field-action generators of the r = 15 system, their closure cached
    # from it, are refused on the system with two quotient rows swapped
    from crcodes.search import _normalizers, _symmetry
    broken = A_ext.copy()
    broken[[0, 1]] = broken[[1, 0]]
    breaks = [p for p in _symmetry(osys, _normalizers(S42, 5))
              if not np.array_equal(broken[p][:, p], broken[:r])]
    assert breaks
    assert len(bip._symmetry_group(A_ext, rhs, breaks)) > 1
    with pytest.raises(vf.VerificationError):
        bip._symmetry_group(broken, rhs, breaks)


class _PointLP:
    """Stands in for bip._node_lp: every node LP is optimal, at the first
    of points that takes the node's fixed values (else the last one)."""

    def __init__(self, points):
        self.points = [np.asarray(p, dtype=float) for p in points]

    def changeColsBounds(self, count, cols, lo, hi):
        self.lo, self.hi = lo, hi

    def setOptionValue(self, *args):
        pass

    def getRunTime(self):
        return 0.0

    def run(self):
        pass

    def getModelStatus(self):
        return bip._highs_core().HighsModelStatus.kOptimal

    def getInfoValue(self, name):
        return bip._highs_core().HighsStatus.kOk, 0

    def getSolution(self):
        fixed = self.lo == self.hi
        point = next((p for p in self.points
                      if (np.rint(p)[fixed] == self.lo[fixed]).all()),
                     self.points[-1])
        return SimpleNamespace(col_value=point)


def test_lp_point_is_taken_only_by_the_integer_check(singer42, monkeypatch):
    def lp_at(*points):
        monkeypatch.setattr(bip, "_node_lp", lambda A, b: _PointLP(points))

    osys, B = singer42
    sat = bip.build_instance(S42, osys, 15, 6, B=B)  # the LP runs here
    A_ext, rhs = sat.rows()
    sols = np.array(brute_force_assignments(sat))
    known = set(map(tuple, sols))
    # s0 + s1 - s2 in {0, 1, 2}^r solves A_ext x = rhs in integers, and
    # takes every fixed value the three solutions share
    outside = [p for p in (a + b - c for a in sols for b in sols
                           for c in sols)
               if p.min() == 0 and p.max() == 2]
    assert outside and all(((A_ext @ p) == rhs).all() for p in outside)
    # 0/1 points that break rows, one within 1e-6 of its rounding
    flips = [s ^ np.eye(15, dtype=np.int64)[i] for s in sols for i in (0, 7)]
    near = np.where(flips[0] == 1, 1 - 1e-9, 1e-9)
    unsat = bip.build_instance(S42, osys, 12, 3, B=B)
    assert brute_force_assignments(unsat) == []
    for points in (outside, flips, [near], [np.ones(15)]):
        lp_at(*points)
        res = bip.solve(unsat)
        assert res.status == bip.UNSAT and res.lp_calls > 0
        res = bip.solve(sat)
        assert res.status == bip.SAT and res.lp_calls > 0
        assert tuple(res.solutions[0]) in known
    lp_at(*sols)
    res = bip.solve(sat)
    assert res.status == bip.SAT and tuple(res.solutions[0]) in known
    # modes 'all' and 'count' ignore LP points, even solutions: they must
    # enumerate the subtree below the node
    res = bip.solve(sat, mode="all")
    assert sorted(tuple(int(v) for v in x) for x in res.solutions) == \
        sorted(known)
    assert res.lp_calls > 0 and bip.solve(sat, mode="count").count == len(sols)


@pytest.mark.parametrize("mode", ["all", "count"])
def test_symmetry_is_refused_outside_mode_first(singer42, mode):
    osys, B = singer42
    inst = bip.build_instance(S42, osys, 15, 6, B=B)
    with pytest.raises(ValueError, match="mode 'first' only"):
        bip.solve(inst, mode=mode, symmetry=[])
