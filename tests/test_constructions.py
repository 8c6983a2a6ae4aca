import itertools
from fractions import Fraction

import numpy as np
import pytest

import oracles
from crcodes import constructions as con
from crcodes import subspaces as sp
from crcodes import verify as vf
from crcodes.graphs import (GraphSpec, containment_table, parse_graph_spec,
                            vertex_index)


S63 = GraphSpec("grassmann", 2, 6, 3)
S166 = GraphSpec("johnson", 1, 16, 6)


@pytest.mark.parametrize("q,n,blocks", [(2, 6, 21), (2, 8, 85), (3, 4, 10)])
def test_spread_block_counts(q, n, blocks):
    spread = con.desarguesian_2spread(q, n)
    assert len(spread) == blocks == (q ** n - 1) // (q ** 2 - 1)
    assert spread.spec == GraphSpec("grassmann", q, n, 2)
    assert spread.label == "spread"


def test_spread_requires_even_n_and_prime_q():
    with pytest.raises(ValueError):
        con.desarguesian_2spread(2, 5)
    with pytest.raises(ValueError):
        con.desarguesian_2spread(4, 4)


@pytest.mark.parametrize("q,n", [(2, 6), (2, 8), (3, 4)])
def test_spread_partitions_points(q, n):
    spread = con.desarguesian_2spread(q, n)
    idx = vertex_index(spread.spec)
    for a, b in itertools.combinations(spread.ids, 2):
        assert oracles.intersection_dim(idx[a], idx[b]) == 0
    t, lambdas = vf.design_strength(spread.spec, spread.ids)
    assert t == 1 and lambdas == (1,)


def test_3spread_inside_gf64():
    spread = con.desarguesian_spread(2, 6, 3)
    assert len(spread) == 9
    t, lambdas = vf.design_strength(spread.spec, spread.ids)
    assert (t, lambdas) == (1, (1,))


@pytest.mark.parametrize("m,blocks", [(3, 14), (4, 140), (5, 1240)])
def test_sqs_block_counts(m, blocks):
    q = con.extended_hamming_sqs(m)
    n = 2 ** m
    assert len(q) == blocks == n * (n - 1) * (n - 2) // 24
    assert q.spec == GraphSpec("johnson", 1, n, 4) and q.label == "sqs"


def test_sqs_from_parity_checks():
    # independent recount over all 1820 4-subsets of the 16 positions: the
    # blocks are exactly the supports of weight-4 vectors that pass every
    # parity check of the extended Hamming code.  Position p < 16 carries
    # the bits of the vector p, position 16 the zero vector, and the last
    # check is overall parity.
    vectors = np.arange(1, 17) % 16
    H = np.vstack([(vectors >> np.arange(4)[:, None]) & 1,
                   np.ones(16, dtype=np.int64)])
    supports = {quad for quad in itertools.combinations(range(1, 17), 4)
                if not (H[:, [p - 1 for p in quad]].sum(axis=1) % 2).any()}
    sqs = con.extended_hamming_sqs(4)
    blocks = vertex_index(sqs.spec).rows[sqs.ids].tolist()
    assert supports == {tuple(b) for b in blocks}


@pytest.mark.parametrize("m", [3, 4])
def test_sqs_strength_three(m):
    q = con.extended_hamming_sqs(m)
    t, lambdas = vf.design_strength(q.spec, q.ids)
    assert t == 3
    assert lambdas[2] == 1
    if m == 4:
        assert lambdas == (35, 7, 1)


@pytest.mark.parametrize("m", [3, 4])
def test_sqs_symmetric_difference_closure(m):
    q = con.extended_hamming_sqs(m)
    blocks = [set(b) for b in vertex_index(q.spec).rows[q.ids].tolist()]
    index = {frozenset(b) for b in blocks}
    for a, b in itertools.combinations(blocks, 2):
        if len(a & b) == 2:
            assert frozenset(a ^ b) in index


def test_contained_blocks_count_sqs():
    q4 = con.extended_hamming_sqs(4)
    counts = con.blocks_contained_counts(S166, q4)
    idx = vertex_index(S166)
    block = tuple(vertex_index(q4.spec).rows[q4.ids[0]].tolist())
    rest = [i for i in range(1, 17) if i not in block]
    extension_counts = set()
    for a, b in itertools.combinations(rest, 2):
        vertex = sp.Subset(16, tuple(sorted(block + (a, b))))
        count = oracles.contained_blocks_count(vertex, q4)
        assert counts[oracles.id_of(idx, vertex)] == count
        extension_counts.add(count)
    # a block plus two outside points holds the block, and sometimes two more
    assert extension_counts <= {1, 3}
    assert 1 in extension_counts
    assert set(counts.tolist()) == {0, 1, 3}


def test_blocks_contained_counts_match_the_per_vertex_count():
    spread = con.desarguesian_2spread(2, 6)
    counts = con.blocks_contained_counts(S63, spread)
    idx = vertex_index(S63)
    want = [oracles.contained_blocks_count(idx[v], spread) for v in range(len(idx))]
    assert counts.tolist() == want


def test_contained_blocks_count_spread_closed_subspace():
    spread = con.desarguesian_2spread(2, 8)
    s84 = GraphSpec("grassmann", 2, 8, 4)
    counts = con.blocks_contained_counts(s84, spread)
    assert set(counts.tolist()) == {0, 1, 5}
    assert (counts == 5).sum() == 357  # the subfield-closed 4-subspaces


def test_avoid_code_sizes():
    assert len(con.avoid_code(S63, con.desarguesian_2spread(2, 6))) == 1080
    assert len(con.avoid_code(S166, con.extended_hamming_sqs(4))) == 448
    s64 = GraphSpec("grassmann", 2, 6, 4, allow_unbalanced=True)
    empty = con.avoid_code(s64, con.desarguesian_2spread(2, 6))
    assert len(empty) == 0


def test_symplectic_code():
    code = con.symplectic_code()
    assert code.ids.tolist() == oracles.symplectic_code_ids(S63)
    assert len(code) == 135 == 1395 * 9 // 93
    idx = vertex_index(S63)
    e = [[1 if j == i else 0 for j in range(6)] for i in range(6)]
    iso = sp.rref([e[0], e[2], e[4]], 6, 2)
    niso = sp.rref([e[0], e[1], e[2]], 6, 2)
    ids = set(code.ids.tolist())
    assert oracles.id_of(idx, iso) in ids
    assert oracles.id_of(idx, niso) not in ids


def test_hyperplane_codes():
    hc = con.hyperplane_code(S63)
    assert len(hc) == sp.gaussian(5, 3, 2) == 155
    hpc = con.hyperplane_point_code(S63)
    assert len(hpc) == 310 == 155 + sp.gaussian(5, 2, 2)
    # k = n-1 degenerates to a single vertex
    s43 = GraphSpec("grassmann", 2, 4, 3, allow_unbalanced=True)
    single = con.hyperplane_code(s43)
    assert len(single) == 1
    # fields above the containment tables' FIELD_TABLE_MAX_Q: prime q by
    # mod-q integers, q = 512 by uint16 tables
    for graph, sizes in [("jq:65537,2,1", (1, 2)), ("jq:257,3,1", (258, 259)),
                         ("jq:512,2,1", (1, 2))]:
        spec = parse_graph_spec(graph)
        assert (len(con.hyperplane_code(spec)),
                len(con.hyperplane_point_code(spec))) == sizes


def test_hyperplane_point_must_be_outside():
    h = con.coordinate_hyperplane(6, 2)
    with pytest.raises(ValueError):
        con.hyperplane_point_code(S63, h, point=1)  # e1 lies inside h


def test_hyperplane_point_must_be_nonzero():
    with pytest.raises(ValueError):
        con.hyperplane_point_code(S63, point=0)


@pytest.mark.parametrize("graph", ["jq:2,5,2", "jq:2,6,3", "jq:3,4,2",
                                   "jq:3,5,2", "jq:512,2,1"])
def test_hyperplane_codes_match_the_per_vertex_loop(graph):
    spec = parse_graph_spec(graph)
    n, q = spec.n, spec.q
    e = np.eye(n, dtype=int).tolist()
    coord = con.coordinate_hyperplane(n, q)
    last = sp.pack_row(e[-1], q)
    assert con.hyperplane_code(spec).ids.tolist() == \
        oracles.hyperplane_code_ids(spec, coord)
    assert con.hyperplane_point_code(spec).ids.tolist() == \
        oracles.hyperplane_code_ids(spec, coord, last)
    # the hyperplane x_2 = -x_1, and a point off it that for q = 3 is
    # scaled by 2, so that its packed vector is not its canonical row
    h = sp.rref(e[2:] + [[1, q - 1] + [0] * (n - 2)], n, q)
    point = sp.pack_row([q - 1] + [0] * (n - 1), q)
    assert h.k == n - 1 and not oracles.contains(h, sp.rref([point], n, q))
    assert con.hyperplane_code(spec, h).ids.tolist() == \
        oracles.hyperplane_code_ids(spec, h)
    assert con.hyperplane_point_code(spec, h, point).ids.tolist() == \
        oracles.hyperplane_code_ids(spec, h, point)


def test_pushforward_of_ones():
    ones = con.ValueVector(GraphSpec("grassmann", 2, 6, 2),
                           np.ones(sp.gaussian(6, 2, 2), dtype=np.int64))
    out = con.pushforward(ones, 3)
    assert out.spec.k == 3
    assert set(np.asarray(out.values).tolist()) == {sp.gaussian(3, 2, 2)}


def test_pushforward_spread_indicator_matches_counts():
    spread = con.desarguesian_2spread(2, 6)
    s62 = GraphSpec("grassmann", 2, 6, 2)
    chi = np.zeros(sp.gaussian(6, 2, 2), dtype=np.int64)
    chi[spread.ids] = 1
    out = con.pushforward(con.ValueVector(s62, chi), 3)
    counts = con.blocks_contained_counts(S63, spread)
    assert np.array_equal(np.asarray(out.values), counts)
    assert set(counts.tolist()) == {0, 1}


def test_pushforward_eigenvector_three_values_levels():
    # integer-scaled eigen-shifted indicator: |V2| chi - |spread| 1
    spread = con.desarguesian_2spread(2, 8)
    s82 = GraphSpec("grassmann", 2, 8, 2)
    V2 = sp.gaussian(8, 2, 2)
    chi = np.zeros(V2, dtype=np.int64)
    chi[spread.ids] = 1
    vec = V2 * chi - len(spread)
    out = con.pushforward(con.ValueVector(s82, vec), 4)
    vals = np.asarray(out.values)
    distinct = sorted(set(vals.tolist()))
    assert len(distinct) == 3
    s84 = GraphSpec("grassmann", 2, 8, 4)
    counts = con.blocks_contained_counts(s84, spread)
    # level sets are exactly the 0/1/5-block cells, in ascending value order
    for value, cell in zip(distinct, (0, 1, 5)):
        assert np.array_equal(vals == value, counts == cell)


def test_pushforward_linearity_random():
    rng = np.random.default_rng(42)
    s62 = GraphSpec("grassmann", 2, 6, 2)
    V = sp.gaussian(6, 2, 2)
    u = rng.integers(-5, 6, V)
    v = rng.integers(-5, 6, V)
    pu = np.asarray(con.pushforward(con.ValueVector(s62, u), 3).values)
    pv = np.asarray(con.pushforward(con.ValueVector(s62, v), 3).values)
    puv = np.asarray(con.pushforward(con.ValueVector(s62, 3 * u + v), 3).values)
    assert np.array_equal(puv, 3 * pu + pv)


@pytest.mark.parametrize("as_array", [True, False])
def test_pushforward_sums_past_int64_exactly(as_array):
    # 7 * 2**62 does not fit an int64; the sums wrapped to -2**62
    s62 = GraphSpec("grassmann", 2, 6, 2)
    values = [2 ** 62] * s62.vertex_count
    if as_array:
        values = np.array(values, dtype=np.int64)
    out = con.pushforward(con.ValueVector(s62, values), 3)
    assert [int(v) for v in out.values] == [7 * 2 ** 62] * S63.vertex_count


def test_pushforward_keeps_fractions():
    s62 = GraphSpec("grassmann", 2, 6, 2)
    half = con.ValueVector(s62, [Fraction(1, 2)] * s62.vertex_count)
    assert set(con.pushforward(half, 3).values) == {Fraction(7, 2)}


def test_pushforward_rejects_lower_level():
    s62 = GraphSpec("grassmann", 2, 6, 2)
    vec = con.ValueVector(s62, np.zeros(sp.gaussian(6, 2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        con.pushforward(vec, 2)


def test_closed_subspace_local_structure_n6():
    # the subfield-closed 4-spaces of GF(2)^6: every 3-subspace inside one
    # contains exactly one spread line, and every 1-line 4-space touches
    # exactly q+1 = 3 closed ones
    spread = con.desarguesian_2spread(2, 6)
    s64 = GraphSpec("grassmann", 2, 6, 4, allow_unbalanced=True)
    counts4 = con.blocks_contained_counts(s64, spread)
    assert set(counts4.tolist()) == {1, 5}  # the avoid cell is empty at n=6
    s63level = s64.level(3)
    t43 = containment_table(s64, 3)
    counts3 = con.blocks_contained_counts(s63level, spread)
    closed = np.nonzero(counts4 == 5)[0]
    assert (counts3[t43.ids[closed]] == 1).all()
    part = vf.cell_neighbor_counts(
        s64, (counts4 == 5).astype(np.int64), 2)
    one_line = np.nonzero(counts4 == 1)[0]
    assert (part[one_line, 1] == 3).all()
