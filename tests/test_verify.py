import json
import random
import tracemalloc

import numpy as np
import pytest

from crcodes import constructions as con
from crcodes import verify as vf
from crcodes import graphs
from crcodes.graphs import (GraphSpec, adjacency_lists, containment_table,
                            parse_graph_spec, vertex_index)

S63 = GraphSpec("grassmann", 2, 6, 3)
S166 = GraphSpec("johnson", 1, 16, 6)


def brute_force_cell_counts(spec, cell_of):
    """Neighbor-per-cell counts via explicit adjacency (test oracle)."""
    adj = adjacency_lists(spec)
    nc = int(cell_of.max()) + 1
    out = np.zeros((spec.vertex_count, nc), dtype=np.int64)
    for v in range(spec.vertex_count):
        for w in adj[v]:
            out[v, cell_of[int(w)]] += 1
    return out


def oracle_code(spec, code):
    """A seeded random fraction of the vertices, one vertex, or all but one."""
    rng = random.Random(f"{spec}/{code}")
    V = spec.vertex_count
    if code == "one":
        return [rng.randrange(V)]
    if code == "all-but-one":
        out = rng.randrange(V)
        return [v for v in range(V) if v != out]
    return sorted(rng.sample(range(V), max(1, int(V * code))))


ORACLE_CODES = [
    ("jq:2,4,2", 0.2), ("j:5,2", 0.4), ("jq:2,6,3", 0.1),
    # one vertex: rho is the diameter; all but one: a code vertex whose
    # stars hold no other cell fills its cell-0 field with s * containing
    # before its own s comes off
    ("jq:2,4,2", "one"), ("j:5,2", "one"), ("jq:2,6,3", "one"),
    ("jq:2,4,2", "all-but-one"), ("j:5,2", "all-but-one"),
    ("jq:2,6,3", "all-but-one")]


@pytest.mark.parametrize("spec_text,code_frac", ORACLE_CODES)
def test_cell_counts_match_adjacency_oracle(spec_text, code_frac):
    spec = parse_graph_spec(spec_text)
    ids = oracle_code(spec, code_frac)
    part = vf.distance_partition(spec, ids)
    oracle = brute_force_cell_counts(spec, part.cell_of)
    counts = vf.cell_neighbor_counts(spec, part.cell_of, part.rho + 1)
    assert np.array_equal(counts, oracle)
    assert np.array_equal(vf.check_completely_regular(spec, ids).counts, oracle)


@pytest.mark.parametrize("spec_text,code_frac", ORACLE_CODES)
def test_layer_counts_match_the_star_members(spec_text, code_frac):
    # over[c][T] is the number of cell-c vertices among the containing
    # vertices of T, whether the layer was counted from its own vertices
    # or from the vertices not yet reached
    spec = parse_graph_spec(spec_text)
    part = vf.distance_partition(spec, oracle_code(spec, code_frac))
    members = containment_table(spec, spec.k - 1).members
    assert part.over.dtype == np.int32
    assert part.over.shape == (part.rho + 1, len(members))
    for c in range(part.rho + 1):
        assert np.array_equal(part.over[c],
                              (part.cell_of[members] == c).sum(axis=1))


# labels of every integer dtype, narrow ones too: the distance partition's
# own labels are int8
@pytest.mark.parametrize("spec_text,dtype", [
    pytest.param(spec_text, dtype,
                 id=spec_text if dtype == "int64" else f"{spec_text}-{dtype}")
    for spec_text in ["jq:2,6,3", "j:9,4"]
    for dtype in ["int8", "uint8", "int16", "int32", "int64"]])
def test_cell_counts_of_a_partition_that_is_not_a_distance_partition(
        spec_text, dtype):
    spec = parse_graph_spec(spec_text)
    rng = np.random.default_rng(7)
    for _ in range(3):
        cell_of = rng.integers(0, 3, spec.vertex_count).astype(dtype)
        counts = vf.cell_neighbor_counts(spec, cell_of, 3)
        assert np.array_equal(counts, brute_force_cell_counts(spec, cell_of))


@pytest.mark.parametrize("spec_text,beta,gamma", [
    # ten cells of 7-bit fields: two packed words
    ("j:18,9", [81, 64, 49, 36, 25, 16, 9, 4, 1],
     [1, 4, 9, 16, 25, 36, 49, 64, 81]),
    ("jq:2,6,3", [98, 72, 32], [1, 9, 49])])
def test_one_vertex_is_completely_regular(spec_text, beta, gamma):
    spec = parse_graph_spec(spec_text)
    res = vf.check_completely_regular(spec, [0])
    assert res.ok
    assert (list(res.numbers.beta), list(res.numbers.gamma)) == (beta, gamma)
    assert res.partition.sizes()[0] == 1


def test_distance_partition_full_code():
    part = vf.distance_partition(S63, list(range(S63.vertex_count)))
    assert part.rho == 0
    assert part.sizes() == (1395,)


def test_distance_partition_empty_rejected():
    with pytest.raises(vf.VerificationError):
        vf.distance_partition(S63, [])


def test_three_spread_has_radius_two():
    spread = con.desarguesian_spread(2, 6, 3)
    ids = spread.ids
    part = vf.distance_partition(S63, ids)
    assert part.rho == 2
    res = vf.check_completely_regular(S63, ids)
    assert res.ok


def test_sqs_avoid_pipeline():
    q4 = con.extended_hamming_sqs(4)
    code = con.avoid_code(S166, q4)
    res = vf.check_completely_regular(S166, code)
    assert res.ok
    assert res.partition.rho == 2
    assert res.partition.sizes() == (448, 6720, 840)
    nums = res.numbers
    assert nums.beta == (60, 6)
    assert nums.gamma == (4, 48)
    assert nums.quotient == ((0, 60, 0), (4, 50, 6), (0, 48, 12))
    eigs = vf.code_eigenvalues(nums.quotient, S166)
    assert eigs == [60, 8, -6]
    assert vf.eigenvalue_indices(S166, eigs) == [0, 4, 6]


def test_spread_avoid_j263():
    spread = con.desarguesian_2spread(2, 6)
    code = con.avoid_code(S63, spread)
    rep = vf.verify_report(S63, code)
    assert rep["completely_regular"]
    assert rep["rho"] == 1
    assert rep["beta"] == [21] and rep["gamma"] == [72]
    assert rep["complement_pair"] == {"beta0": 72, "gamma1": 21}
    assert rep["eigenvalues"] == [98, 5]
    assert rep["strength"] == 1


def perturbed_codes(spec):
    """One-vertex swaps of completely regular codes and of a random code,
    three seeded swaps each."""
    V = spec.vertex_count
    if spec.q == 1:  # the vertices over point 1: rho = 1
        codes = [np.flatnonzero(vertex_index(spec).rows[:, 0] == 1)]
    elif spec.k == 2:
        codes = [con.hyperplane_code(spec).ids,
                 con.desarguesian_2spread(spec.q, spec.n).ids]
    else:
        codes = [con.hyperplane_code(spec).ids,
                 con.avoid_code(spec, con.desarguesian_2spread(
                     spec.q, spec.n)).ids]
    rng = random.Random(str(spec))
    codes.append(np.array(rng.sample(range(V), V // 10)))
    for ids in codes:
        inside = set(ids.tolist())
        outside = sorted(set(range(V)) - inside)
        for _ in range(3):
            out, into = rng.choice(sorted(inside)), rng.choice(outside)
            yield sorted(inside - {out} | {into})


@pytest.mark.parametrize("spec_text", ["jq:2,6,3", "jq:3,4,2", "j:9,4"])
def test_counterexample_on_perturbed_code(spec_text):
    # the reported vertex, cell and rows against the adjacency oracle: each
    # cell's reference is its vertex of least id, and the counterexample is
    # the violating vertex of least id
    spec = parse_graph_spec(spec_text)
    for ids in perturbed_codes(spec):
        res = vf.check_completely_regular(spec, ids)
        assert not res.ok and res.numbers is None
        part = res.partition
        counts = brute_force_cell_counts(spec, part.cell_of)
        refs = np.array([counts[cell[0]] for cell in part.cells])
        bad = np.flatnonzero((counts != refs[part.cell_of]).any(axis=1))
        v = int(bad[0])
        c = int(part.cell_of[v])
        ce = res.counterexample
        assert (ce.vertex, ce.cell, ce.expected, ce.found) == (
            v, c, tuple(refs[c].tolist()), tuple(counts[v].tolist()))
        assert np.array_equal(res.counts, counts)


CHUNK_CODES = {
    "jq:2,6,3": lambda: con.avoid_code(S63, con.desarguesian_2spread(2, 6)),
    "j:16,6": lambda: con.avoid_code(S166, con.extended_hamming_sqs(4)),
    "jq:3,6,3": lambda: con.hyperplane_code(GraphSpec("grassmann", 3, 6, 3))}


@pytest.mark.parametrize("graph", list(CHUNK_CODES))
def test_chunks_of_any_size_give_the_default_results(monkeypatch, graph):
    # chunks of one id, of 7 ids, cutting the cells anywhere, and of 4096
    # ids against the default chunk (two chunks on J_3(6,3)), on a
    # completely regular code and on a copy with one vertex deleted; the
    # check compared is the one the report makes
    whole = CHUNK_CODES[graph]()
    deleted = vf.Code(whole.spec, np.delete(whole.ids, len(whole) // 2))
    check = vf.check_completely_regular
    for code in (whole, deleted):
        def results(chunk):
            checks = []

            def recorded(*args):
                checks.append(check(*args))
                return checks[-1]

            monkeypatch.setattr(vf, "check_completely_regular", recorded)
            if chunk:
                monkeypatch.setattr(vf, "CHUNK_IDS", chunk)
            report = vf.verify_report(code.spec, code)
            (res,) = checks
            part = res.partition
            out = (report, part.cell_of, part.over, part.cells, res.counts,
                   res.counterexample)
            monkeypatch.undo()
            return out

        want = results(None)
        assert want[1].dtype == np.int8
        assert (want[-1] is None) == (code is whole)
        for chunk in (1, 7, 4096):
            report, cell_of, over, cells, counts, counterexample = results(chunk)
            assert report == want[0]
            assert np.array_equal(cell_of, want[1])
            assert np.array_equal(over, want[2])
            assert all(np.array_equal(a, b) for a, b in zip(cells, want[3]))
            assert np.array_equal(counts, want[4])
            assert counterexample == want[5]


def test_check_working_set_beside_the_table_is_small():
    # the J_2(8,4) table is built first; beside it a check holds the int8
    # labels, the layer counts and one chunk's temporaries.  Traced peaks:
    # 3.3 MiB on the spread-avoid code and on a one-swap copy, against
    # 8.4 MiB with int64 labels and words over every vertex at once
    S84 = GraphSpec("grassmann", 2, 8, 4)
    containment_table(S84, 3)
    code = con.avoid_code(S84, con.desarguesian_2spread(2, 8))
    swapped = code.ids.copy()
    swapped[1000] = np.setdiff1d(np.arange(1000), code.ids)[0]
    for each in (code, vf.Code(S84, swapped)):
        tracemalloc.start()
        try:
            res = vf.check_completely_regular(S84, each)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok == (each is code)
        assert peak < 6 << 20, peak


def test_check_rejects_empty_and_full():
    with pytest.raises(vf.VerificationError):
        vf.check_completely_regular(S63, [])
    with pytest.raises(vf.VerificationError):
        vf.check_completely_regular(S63, list(range(S63.vertex_count)))


def test_code_eigenvalues_rho1_formula():
    # {m, m - beta0 - gamma1} for the hyperplane code
    code = con.hyperplane_code(S63)
    res = vf.check_completely_regular(S63, code)
    assert res.ok
    eigs = vf.code_eigenvalues(res.numbers.quotient, S63)
    m = S63.valency
    b0, g1 = res.numbers.beta[0], res.numbers.gamma[0]
    assert eigs == [m, m - b0 - g1] == [98, 35]


def test_code_eigenvalues_reject_non_graph_root():
    bad = ((0, 60), (5, 55))  # eigenvalues 60 and -5; -5 is not in the ladder
    with pytest.raises(vf.VerificationError):
        vf.code_eigenvalues(bad, S166)


def test_char_poly_simple():
    assert vf.char_poly([[2, 0], [0, 3]]) == [1, -5, 6]
    assert vf.char_poly([[0, 60, 0], [4, 50, 6], [0, 48, 12]]) == \
        [1, -62, 72, 2880]  # (x - 60)(x - 8)(x + 6)


def test_design_strength_of_table_codes():
    assert vf.design_strength(S63, con.hyperplane_code(S63).ids)[0] == 0
    assert vf.design_strength(S63, con.hyperplane_point_code(S63).ids)[0] == 0
    assert vf.design_strength(S63, con.symplectic_code().ids)[0] == 1


def test_strength_rule_matches_design_strength():
    for code in [con.hyperplane_code(S63), con.symplectic_code(),
                 con.avoid_code(S63, con.desarguesian_2spread(2, 6))]:
        res = vf.check_completely_regular(S63, code)
        assert res.ok
        eigs = vf.code_eigenvalues(res.numbers.quotient, S63)
        t_rule = vf.strength_from_eigenvalues(S63, eigs)
        t_design, _ = vf.design_strength(S63, code.ids)
        assert t_rule == t_design


def test_size_and_integrality_report():
    rep = vf.size_and_integrality_report(S63, 84, 9)
    assert rep["feasible"] and rep["size"] == 135 and rep["strength"] == 1
    # gamma1 not divisible by 3 on the eigenvalue-5 row
    rep2 = vf.size_and_integrality_report(S63, 88, 5)
    assert not rep2["feasible"]
    # gamma1 must be 0 mod 7 on the eigenvalue-35 row
    feas35 = [g1 for g1 in range(1, 32)
              if vf.size_and_integrality_report(S63, 63 - g1, g1)["feasible"]]
    assert feas35 == [7, 14, 21, 28]
    feas5 = [g1 for g1 in range(1, 47)
             if vf.size_and_integrality_report(S63, 93 - g1, g1)["feasible"]]
    assert feas5 == list(range(3, 46, 3))
    # eigenvalue outside the spectrum
    rep3 = vf.size_and_integrality_report(S63, 50, 8)
    assert not rep3["feasible"]


def test_complementation_duality_all_rho1_codes():
    spread_avoid = con.avoid_code(S63, con.desarguesian_2spread(2, 6))
    for code in [con.hyperplane_code(S63), con.hyperplane_point_code(S63),
                 con.symplectic_code(), spread_avoid]:
        res = vf.check_completely_regular(S63, code)
        assert res.ok and res.partition.rho == 1
        comp = code.complement()
        res_c = vf.check_completely_regular(S63, comp)
        assert res_c.ok and res_c.partition.rho == 1
        assert res_c.numbers.beta[0] == res.numbers.gamma[0]
        assert res_c.numbers.gamma[0] == res.numbers.beta[0]


def test_no_edges_between_far_cells_is_enforced():
    q4 = con.extended_hamming_sqs(4)
    code = con.avoid_code(S166, q4)
    res = vf.check_completely_regular(S166, code)
    counts = res.counts
    cells = res.partition.cells
    assert (counts[cells[0]][:, 2] == 0).all()
    assert (counts[cells[2]][:, 0] == 0).all()


def test_report_on_empty_code_is_clean():
    s64 = GraphSpec("grassmann", 2, 6, 4, allow_unbalanced=True)
    empty = con.avoid_code(s64, con.desarguesian_2spread(2, 6))
    rep = vf.verify_report(s64, empty)
    assert rep["code_size"] == 0
    assert rep["completely_regular"] is False
    assert "empty" in rep["error"]


def test_report_json_stability():
    import json
    code = con.hyperplane_code(S63)
    a = json.dumps(vf.verify_report(S63, code), indent=2)
    b = json.dumps(vf.verify_report(S63, code), indent=2)
    assert a == b


# ----------------------------------------------------------------------
# Design strength against the per-level reference
# ----------------------------------------------------------------------

def per_level_strength(spec, ids):
    """The old design_strength (test oracle): one bincount over the level's
    own containment table at every t = 1..k."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    lambdas = []
    for t in range(1, spec.k + 1):
        table = containment_table(spec, t)
        cover = np.bincount(table.ids[ids].ravel(),
                            minlength=len(table.sub_index))
        if (cover != cover[0]).any():
            return t - 1, tuple(lambdas)
        lambdas.append(int(cover[0]))
    return spec.k, tuple(lambdas)


def _strength_cases():
    spread6 = con.desarguesian_2spread(2, 6)
    avoid6 = con.avoid_code(S63, spread6)
    yield "j263-hyperplane", S63, con.hyperplane_code(S63).ids
    yield "j263-hyperplane-point", S63, con.hyperplane_point_code(S63).ids
    yield "j263-symplectic", S63, con.symplectic_code().ids
    yield "j263-spread-avoid", S63, avoid6.ids
    yield "j263-spread-line", S63, avoid6.complement().ids
    for text, sizes in (("jq:3,4,2", (1, 13, 40, 129)),
                        ("j:10,4", (1, 7, 105, 209)),
                        ("jq:3,6,3", (2, 3000))):
        spec = parse_graph_spec(text)
        rng = random.Random(text)
        for size in sizes:
            yield (f"{text}-random-{size}", spec,
                   rng.sample(range(spec.vertex_count), size))
    for m in (3, 4):
        sqs = con.extended_hamming_sqs(m)
        yield f"sqs-{m}", sqs.spec, sqs.ids
    for q, n in ((2, 6), (2, 8), (3, 4)):
        spread = con.desarguesian_2spread(q, n)
        yield f"spread-{q}-{n}", spread.spec, spread.ids
    S363 = GraphSpec("grassmann", 3, 6, 3)
    yield ("j363-spread-avoid", S363,
           con.avoid_code(S363, con.desarguesian_2spread(3, 6)).ids)
    S84 = GraphSpec("grassmann", 2, 8, 4)
    yield ("j284-spread-avoid", S84,
           con.avoid_code(S84, con.desarguesian_2spread(2, 8)).ids)
    for text in ("jq:2,6,3", "j:7,3", "jq:3,4,2", "jq:3,6,3"):
        spec = parse_graph_spec(text)
        yield f"{text}-full", spec, np.arange(spec.vertex_count)
    for text in ("jq:2,5,1", "j:9,1"):
        spec = parse_graph_spec(text)
        yield f"{text}-full", spec, np.arange(spec.vertex_count)
        yield f"{text}-part", spec, [0, 2, 3]
    yield "jq:2,4,0-full", GraphSpec("grassmann", 2, 4, 0), [0]


def test_design_strength_matches_per_level_oracle():
    seen = {}
    for name, spec, ids in _strength_cases():
        got = vf.design_strength(spec, ids)
        assert got == per_level_strength(spec, ids), name
        seen[name] = got
    assert seen["j263-symplectic"] == (1, (15,))
    assert seen["j284-spread-avoid"] == (1, (8640,))
    assert seen["sqs-4"][0] == 3 and seen["sqs-4"][1][2] == 1
    assert seen["spread-3-4"] == (1, (1,))
    assert seen["jq:2,6,3-full"] == (3, (155, 15, 1))
    assert seen["j:9,1-full"] == (1, (1,))
    assert seen["j:9,1-part"] == (0, ())
    assert seen["jq:2,4,0-full"] == (0, ())


def test_design_strength_refuses_a_cover_that_does_not_divide(monkeypatch):
    # with a wrong count of (j+1)-objects per block over T the level-1
    # cover of the symplectic code is 45 / 4: not a whole count
    monkeypatch.setattr(vf, "gaussian", lambda n, k, q: 4)
    with pytest.raises(vf.VerificationError, match="not a whole count"):
        vf.design_strength(S63, con.symplectic_code().ids)


# ----------------------------------------------------------------------
# Id normalisation
# ----------------------------------------------------------------------

def test_code_ids_are_sorted_from_any_integer_input():
    ids = [1394, 3, 700, 0, 41]
    want = np.array(sorted(ids), dtype=np.int64)
    for given in (np.array(ids, dtype=np.int64), np.array(ids, dtype=np.uint32),
                  np.array(ids, dtype=np.uint64), ids, tuple(ids), iter(ids)):
        code = vf.Code(S63, given)
        assert code.ids.dtype == np.int64
        assert np.array_equal(code.ids, want)
    raw = np.array(ids, dtype=np.int64)
    vf.Code(S63, raw)
    assert raw.tolist() == ids  # the caller's array is not sorted in place
    assert np.array_equal(vf._code_ids(S63, raw), np.sort(raw))
    assert np.array_equal(vf._code_ids(S63, raw.astype(np.uint16)),
                          np.sort(raw))


@pytest.mark.parametrize("bad", [[5, 7, 5], [0, 1395], [-1, 4]])
def test_code_rejects_duplicate_and_out_of_range_ids(bad):
    for given in (bad, np.array(bad, dtype=np.int64)):
        with pytest.raises(vf.VerificationError):
            vf.Code(S63, given)
    if min(bad) >= 0:
        with pytest.raises(vf.VerificationError):
            vf.Code(S63, np.array(bad, dtype=np.uint64))


def test_code_rejects_a_duplicate_in_sorted_ids():
    # ids already in order skip the sort, not the check for repeats
    for dtype in (np.int64, np.uint32):
        with pytest.raises(vf.VerificationError):
            vf.Code(S63, np.array([3, 5, 5, 7], dtype=dtype))
    with pytest.raises(vf.VerificationError):
        vf.Code(S63, np.array([0, 1394, 1395]))


def _spread_avoid_ids():
    return con.avoid_code(S63, con.desarguesian_2spread(2, 6)).ids.tolist()


@pytest.mark.parametrize("ids", [
    [-1], [1395 + 5], [0, 0], "spread-avoid-repeated"])
def test_raw_ids_get_the_checks_of_code(ids):
    # a negative id would wrap to the last vertex, and a repeated one would
    # count twice in the code's size and in its cover
    if ids == "spread-avoid-repeated":
        ids = _spread_avoid_ids()
        ids.append(ids[40])
    for check in (vf.verify_report, vf.distance_partition,
                  vf.check_completely_regular, vf.design_strength):
        for given in (ids, np.array(ids, dtype=np.int64)):
            with pytest.raises(vf.VerificationError):
                check(S63, given)


def test_design_strength_of_a_partition_is_that_of_its_code():
    for code in (con.hyperplane_code(S63), con.symplectic_code(),
                 con.avoid_code(S63, con.desarguesian_2spread(2, 6))):
        part = vf.distance_partition(S63, code)
        assert vf.design_strength(S63, part) == vf.design_strength(
            S63, code.ids)
    with pytest.raises(vf.VerificationError):
        vf.design_strength(S166, part)


@pytest.mark.parametrize("spec_text", ["jq:2,6,3", "j:9,4"])
def test_verify_builds_only_the_graphs_own_index(spec_text):
    # cells, counts and covers run on the tables alone, so a verify of ids
    # builds no vertex index, of the graph or of a sub-level, both when the
    # code is completely regular (the strength reads the sub-level tables)
    # and when it is not
    spec = parse_graph_spec(spec_text)
    codes = list(perturbed_codes(spec))[:1]
    if spec.q == 1:
        codes.append(np.flatnonzero(vertex_index(spec).rows[:, 0] == 1))
    else:
        codes.append(_spread_avoid_ids())
    for ids in codes:
        graphs.vertex_index.cache_clear()
        graphs.containment_table.cache_clear()
        rep = vf.verify_report(spec, ids)
        assert "counterexample" in rep or rep["completely_regular"]
        assert graphs.vertex_index.cache_info().currsize == 0
    assert rep["completely_regular"] and "strength" in rep


@pytest.mark.parametrize("spec,code", [
    (S166, lambda: con.avoid_code(S166, con.extended_hamming_sqs(4))),
    (S63, lambda: con.avoid_code(S63, con.desarguesian_2spread(2, 6))),
])
def test_cold_verify_builds_each_table_level_once(monkeypatch, spec, code):
    # the graph's table and the strength's sub-level tables share one memo
    # of q-Pascal levels, so no level (q, m, k, j) is built twice
    code = code()
    built = []
    slot_table = graphs._slot_table

    def spy(q, m, k, j, below):
        built.append((q, m, k, j))
        return slot_table(q, m, k, j, below)

    graphs.containment_table.cache_clear()
    graphs._level_table.cache_clear()
    monkeypatch.setattr(graphs, "_slot_table", spy)
    rep = vf.verify_report(spec, code)
    assert rep["completely_regular"] and rep["strength"] >= 1
    assert (spec.q, spec.n, spec.k, spec.k - 1) in built
    assert len(built) == len(set(built))


@pytest.mark.parametrize("graph,beta,gamma,eigenvalues", [
    ("jq:2,6,4", [90, 56], [1, 9], [90, 27, -3]),
    ("j:6,4", [8, 3], [1, 4], [8, 2, -2])])
def test_verify_one_vertex_of_an_unbalanced_graph(tmp_path, capsys, graph,
                                                  beta, gamma, eigenvalues):
    # J_q(n,k) is J_q(n,n-k): the ladder has min(k, n-k) + 1 entries
    from crcodes import files
    from crcodes.cli import main
    from crcodes.graphs import theta_ladder
    spec = parse_graph_spec(graph, allow_unbalanced=True)
    assert theta_ladder(spec) == eigenvalues
    path = tmp_path / "one.code"
    files.write_code(path, vf.Code(spec, [0]))
    assert main(["verify", "--graph", graph, "--code", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["beta"], rep["gamma"]) == (beta, gamma)
    assert rep["eigenvalues"] == eigenvalues and rep["strength"] == 0
    assert rep["completely_regular"]
