import hashlib
import random

import numpy as np
import pytest

import oracles
from crcodes import graphs as g
from crcodes.subspaces import gaussian


def exact_char_poly(mat):
    """Characteristic polynomial by integer Faddeev-LeVerrier (test oracle)."""
    n = len(mat)
    a = [[int(x) for x in row] for row in mat]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for step in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        assert tr % step == 0
        c = -tr // step
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)]
             for i in range(n)]
    return coeffs


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_parse_and_format():
    s = g.parse_graph_spec("jq:2,6,3")
    assert (s.family, s.q, s.n, s.k) == ("grassmann", 2, 6, 3)
    assert str(s) == "jq:2,6,3"
    j = g.parse_graph_spec("j:16,6")
    assert (j.family, j.q, j.n, j.k) == ("johnson", 1, 16, 6)
    with pytest.raises(ValueError):
        g.parse_graph_spec("x:1,2")
    with pytest.raises(ValueError):
        g.parse_graph_spec("jq:6,6,3")  # 6 is not a prime power


def test_unbalanced_k_needs_override():
    with pytest.raises(ValueError):
        g.GraphSpec("grassmann", 2, 6, 4)
    s = g.GraphSpec("grassmann", 2, 6, 4, allow_unbalanced=True)
    assert s.vertex_count == 651


def test_theta_ladders():
    assert g.theta_ladder(g.parse_graph_spec("jq:2,6,3")) == [98, 35, 5, -7]
    assert g.theta_ladder(g.parse_graph_spec("j:16,6")) == \
        [60, 44, 30, 18, 8, 0, -6]
    assert g.theta_ladder(g.parse_graph_spec("jq:2,8,4"))[0] == 450
    # formula value; the spectral oracle below confirms on the full matrix
    assert g.theta_ladder(g.parse_graph_spec("jq:2,4,2")) == [18, 3, -3]
    with pytest.raises(ValueError):
        g.theta(g.parse_graph_spec("jq:2,6,3"), 4)


def test_valencies():
    assert g.parse_graph_spec("j:16,6").valency == 60 == 6 * 10
    assert g.parse_graph_spec("jq:2,8,4").valency == 450 == 2 * 15 * 15
    assert g.parse_graph_spec("jq:2,6,3").valency == 98


@pytest.mark.parametrize("spec_text", ["j:5,2", "jq:2,4,2", "j:6,3", "jq:2,6,2"])
def test_adjacency_exhaustive_small(spec_text):
    spec = g.parse_graph_spec(spec_text)
    adj = g.adjacency_lists(spec)
    assert adj.shape == (spec.vertex_count, spec.valency)
    for v in range(spec.vertex_count):
        row = adj[v].tolist()
        assert len(set(row)) == spec.valency
        assert v not in row
        for w in row:
            assert v in adj[w]


@pytest.mark.parametrize("spec_text,samples", [
    ("jq:2,6,3", 40), ("j:16,6", 40), ("jq:3,4,2", 130), ("jq:4,4,2", 60),
    ("j:70,2", 40)])
def test_generated_neighbors_match_cliques(spec_text, samples):
    # star-clique neighbors against the brute-force adjacency predicate
    spec = g.parse_graph_spec(spec_text)
    idx = g.vertex_index(spec)
    adj = g.adjacency_lists(spec)
    rng = random.Random(13)
    for _ in range(samples):
        v = rng.randrange(spec.vertex_count)
        brute = [w for w in range(spec.vertex_count)
                 if oracles.adjacency_check(idx[v], idx[w])]
        assert adj[v].tolist() == brute
        assert g.neighbors(spec, v).tolist() == brute


def test_adjacency_check_agrees_with_neighbors_exhaustively():
    spec = g.parse_graph_spec("jq:2,4,2")
    idx = g.vertex_index(spec)
    adj = g.adjacency_lists(spec)
    for v in range(len(idx)):
        nb = set(adj[v].tolist())
        for w in range(len(idx)):
            expect = w in nb
            assert oracles.adjacency_check(idx[v], idx[w]) == expect


def test_adjacency_symmetric_random_pairs_johnson():
    spec = g.parse_graph_spec("j:16,6")
    idx = g.vertex_index(spec)
    rng = random.Random(21)
    for _ in range(10_000):
        v, w = rng.randrange(8008), rng.randrange(8008)
        assert (oracles.adjacency_check(idx[v], idx[w])
                == oracles.adjacency_check(idx[w], idx[v]))


@pytest.mark.parametrize("spec_text", ["j:5,2", "jq:2,4,2"])
def test_spectrum_matches_ladder_with_multiplicities(spec_text):
    spec = g.parse_graph_spec(spec_text)
    V = spec.vertex_count
    adj = g.adjacency_lists(spec)
    mat = [[0] * V for _ in range(V)]
    for v in range(V):
        for w in adj[v]:
            mat[v][int(w)] = 1
    cp = exact_char_poly(mat)
    expected = [1]
    for i in range(spec.k + 1):
        mult = oracles.eigenvalue_multiplicity(spec, i)
        for _ in range(mult):
            expected = poly_mul(expected, [1, -g.theta(spec, i)])
    assert cp == expected


def test_multiplicities_sum_to_vertex_count():
    for text in ["jq:2,6,3", "j:16,6", "jq:2,8,4"]:
        spec = g.parse_graph_spec(text)
        assert sum(oracles.eigenvalue_multiplicity(spec, i)
                   for i in range(spec.k + 1)) == spec.vertex_count


def test_large_graph_has_no_adjacency_cache():
    spec = g.parse_graph_spec("jq:2,8,4")
    assert spec.vertex_count > g.EDGE_CACHE_MAX_VERTICES
    with pytest.raises(ValueError):
        g.adjacency_lists(spec)
    nb = list(g.neighbors(spec, 0))
    assert len(nb) == 450
    assert len(set(nb)) == 450
    assert g.vertex_index(spec)._adjacency is None


def test_containment_table_shapes():
    spec = g.parse_graph_spec("jq:2,6,3")
    t = g.containment_table(spec, 2)
    assert t.ids.shape == (1395, 7)
    assert len(t.sub_index) == gaussian(6, 2, 2)
    assert t.containing_count == gaussian(4, 1, 2)  # 3-spaces over a 2-space
    spec_j = g.parse_graph_spec("j:16,6")
    tj = g.containment_table(spec_j, 5)
    assert tj.ids.shape == (8008, 6)
    assert tj.containing_count == 11


def test_containment_table_content_spotcheck():
    # one test id over every q path: the q <= 2 XOR path and the GF(q)
    # digit path for prime and prime-power q, at every 0 < j < k
    from crcodes import subspaces as sp
    for text in ["jq:2,6,3", "jq:3,4,2", "jq:4,4,2", "jq:5,4,2", "jq:8,4,2",
                 "jq:9,4,2"]:
        spec = g.parse_graph_spec(text)
        idx = g.vertex_index(spec)
        rng = random.Random(3)
        for j in range(1, spec.k):
            t = g.containment_table(spec, j)
            for _ in range(30):
                v = rng.randrange(len(idx))
                named = {t.sub_index[int(i)] for i in t.ids[v]}
                assert named == set(sp.subspaces_of(idx[v], j)), (text, j, v)


@pytest.mark.parametrize("spec_text", ["jq:2,6,3", "jq:3,4,2", "jq:4,4,2",
                                       "j:10,4", "jq:5,4,2", "jq:7,4,2",
                                       "jq:8,4,2", "j:12,5"])
def test_containment_table_exhaustive(spec_text):
    # every vertex at every level, for q = 2, prime q, prime-power q (K d
    # through the GF(q) tables) and subsets, against the per-vertex oracle
    # and a dict of the sub-level rows
    import itertools

    from crcodes import subspaces as sp
    spec = g.parse_graph_spec(spec_text)
    idx = g.vertex_index(spec)
    for j in range(spec.k + 1):
        t = g.containment_table(spec, j)
        assert t.ids.dtype == np.int32
        assert t.ids.shape == (len(idx), gaussian(spec.k, j, spec.q))
        assert all(t.ids[:, c].flags.c_contiguous for c in range(t.per_vertex))
        id_of = {row: i for i, row in enumerate(map(tuple, t.sub_index.rows.tolist()))}
        # subset slots pick members by the j-subsets of k places in colex
        # order, the recursion order
        places = sorted(itertools.combinations(range(spec.k), j),
                        key=lambda c: c[::-1])
        for v in range(len(idx)):
            if spec.q == 1:
                members = idx[v].members
                subs = (tuple(members[i] for i in c) for c in places)
            else:
                subs = (u.rows for u in sp.subspaces_of(idx[v], j))
            assert t.ids[v].tolist() == [id_of[row] for row in subs], (j, v)


def test_containment_table_sampled_on_a_larger_graph():
    # jq:2,7,3 at every j, 200 random vertices against subspaces_of
    from crcodes import subspaces as sp
    spec = g.parse_graph_spec("jq:2,7,3")
    idx = g.vertex_index(spec)
    rng = random.Random(7)
    for j in range(spec.k + 1):
        t = g.containment_table(spec, j)
        id_of = {row: i for i, row in enumerate(map(tuple, t.sub_index.rows.tolist()))}
        for v in rng.sample(range(len(idx)), 200):
            want = [id_of[u.rows] for u in sp.subspaces_of(idx[v], j)]
            assert t.ids[v].tolist() == want, (j, v)


@pytest.mark.parametrize("spec_text,j", [("jq:2,6,3", 2), ("j:9,4", 3),
                                         ("jq:3,4,2", 1)])
def test_ids_of_reads_rows_of_the_canonical_view(spec_text, j):
    # ids is the transpose of positions, a view that copies nothing and is
    # not kept on the table: reading one id, some ids and all of them reads
    # positions
    t = g.containment_table(g.parse_graph_spec(spec_text), j)
    some = np.array([5, 0, 17, 5, len(t.positions[0]) - 1])
    assert np.shares_memory(t.ids, t.positions) and "ids" not in vars(t)
    assert t.ids[17].tolist() == t.positions[:, 17].tolist()
    assert np.array_equal(t.ids[some], t.positions[:, some].T)
    assert np.array_equal(t.ids, t.positions.T)


@pytest.mark.parametrize("spec_text,j", [("jq:2,6,3", 2), ("j:16,6", 5),
                                         ("jq:3,4,2", 1)])
def test_members_are_ascending_star_rows(spec_text, j):
    # members against a sort of the (j-object, vertex) incidence pairs
    t = g.containment_table(g.parse_graph_spec(spec_text), j)
    pairs = sorted((x, v) for v, row in enumerate(t.ids.tolist()) for x in row)
    want = np.array([v for _, v in pairs]).reshape(len(t.sub_index), -1)
    assert np.array_equal(t.members, want)


@pytest.mark.parametrize("spec_text", ["jq:2,6,3", "jq:3,4,2", "j:16,6"])
def test_ids_of_keys_finds_vertices_and_refuses_other_keys(spec_text):
    """ids_of_rows looks vertices up by their rows: every vertex row is found
    and the first row that is no vertex is named."""
    spec = g.parse_graph_spec(spec_text)
    idx = g.vertex_index(spec)
    assert idx.ids_of_rows(idx.rows).tolist() == list(range(len(idx)))
    # a subspace row with a digit above column n - 1 has the position of the
    # row without it; members out of order name no subset
    if spec.q == 1:
        wrong = idx.rows[:, ::-1]
    else:
        wrong = idx.rows + np.uint64(spec.q ** spec.n)
        assert np.array_equal(g.positions_of_rows(spec, wrong),
                              np.arange(len(idx)))
    for bad in ([3], [3, 10, len(idx) - 1], [len(idx) - 1]):
        rows = idx.rows.copy()
        rows[bad] = wrong[bad]
        with pytest.raises(KeyError) as err:
            idx.ids_of_rows(rows)
        assert err.value.args[1] == bad[0]


@pytest.mark.parametrize("spec_text", [
    "jq:2,6,3", "jq:3,4,2", "jq:4,4,2", "jq:5,4,2", "jq:8,4,2", "jq:9,4,2",
    "jq:2,5,1", "jq:2,4,0", "jq:2,8,3", "j:16,6"])
def test_positions_of_rows_agree_with_a_dict_oracle(spec_text):
    spec = g.parse_graph_spec(spec_text)
    idx = g.vertex_index(spec)
    # the recursion position of each row is its id
    ids = np.arange(len(idx))
    assert np.array_equal(g.positions_of_rows(spec, idx.rows), ids)
    if spec.q == 2:  # the byte tables and the digit loop
        assert np.array_equal(g._byte_positions(spec.n, idx.rows), ids)
        assert np.array_equal(g._digit_positions(spec.n, 2, idx.rows), ids)
    rows = list(map(tuple, idx.rows.tolist()))
    oracle = {row: vid for vid, row in enumerate(rows)}
    assert len(oracle) == len(idx)
    rng = random.Random(5)
    asked = rng.sample(rows, len(rows)) + rng.choices(rows, k=50)
    got = idx.ids_of_rows(np.array(asked, dtype=np.uint64).reshape(
        len(asked), spec.k))
    assert got.tolist() == [oracle[row] for row in asked]
    empty = idx.ids_of_rows(np.empty((0, spec.k), dtype=np.uint64))
    assert empty.shape == (0,) and empty.dtype.kind == "i"
    if not spec.k:
        return
    # rows that are no vertex, from random words below 4 q^n (members up to
    # n + 1), and all ones; each alone and among vertex rows
    top = spec.n + 2 if spec.q == 1 else 4 * spec.q ** spec.n
    absent = [tuple(rng.randrange(top) for _ in range(spec.k))
              for _ in range(20)] + [(2 ** 64 - 1,) * spec.k]
    for row in absent:
        if row in oracle:
            continue
        for query in ([row], [rows[0], row], asked[:7] + [row] + asked[7:9]):
            with pytest.raises(KeyError) as err:
                idx.ids_of_rows(np.array(query, dtype=np.uint64))
            assert err.value.args[1] == query.index(row)


@pytest.mark.parametrize("spec_text", ["jq:2,6,3", "jq:4,4,2", "j:10,4"])
def test_ids_of_keys_takes_any_integer_keys(spec_text):
    """The rows ids_of_rows looks up may come as any integer array or list."""
    idx = g.vertex_index(g.parse_graph_spec(spec_text))
    rows = idx.rows[::-3]
    want = idx.ids_of_rows(rows).tolist()
    assert want == list(range(len(idx)))[::-3]
    for asked in (rows.astype(np.int64), rows.tolist()):
        assert idx.ids_of_rows(asked).tolist() == want
    # a negative int64 is the uint64 2^64 - 1, which names no vertex
    bad = rows[:2].astype(np.int64)
    bad[1, 0] = -1
    with pytest.raises(KeyError):
        idx.ids_of_rows(bad)
    assert idx.ids_of_rows(np.empty((0, idx.spec.k), np.int64)).shape == (0,)


@pytest.mark.parametrize("spec_text,row,alias", [
    # bits above n = 8: the byte tables read only 10:20:40:80
    ("jq:2,8,4", [0x110, 0x20, 0x40, 0x80], [0x10, 0x20, 0x40, 0x80]),
    # row 0 is not zero in pivot column 5, row 1's
    ("jq:2,8,4", [0x30, 0x20, 0x40, 0x80], None),
    # rows out of pivot order
    ("jq:2,8,4", [0x20, 0x10, 0x40, 0x80], None),
    # 3 + 3 * 27: a digit of q in the last column, read past column n - 1
    ("jq:3,4,2", [1, 3 + 3 * 27], [1, 3]),
    # a pivot digit of 2, in columns whose weight [c, kk]_q is 0
    ("jq:3,4,2", [2, 3], [1, 3]),
    ("jq:3,4,2", [1, 2 * 3], [1, 3]),
    # and in one whose weight is not
    ("jq:3,4,2", [1, 2 * 9], None),
])
def test_ids_of_rows_refuses_rows_out_of_rref(spec_text, row, alias):
    spec = g.parse_graph_spec(spec_text)
    idx = g.vertex_index(spec)
    asked = np.array([row], dtype=np.uint64)
    if alias is not None:  # the arithmetic gives the alias's position
        assert g.positions_of_rows(spec, asked).tolist() == \
            g.positions_of_rows(spec, np.array([alias], dtype=np.uint64)).tolist()
        idx.ids_of_rows([alias])
    with pytest.raises(KeyError):
        idx.ids_of_rows(asked)
    with pytest.raises(KeyError) as err:
        idx.ids_of_rows([idx.rows[0].tolist(), idx.rows[9].tolist(), row])
    assert err.value.args[1] == 2


# sha256 of containment_table(spec, j).ids as little-endian int32, taken
# before the lookup behind the tables was replaced, while ids and slots
# were in lexicographic order; checked in that order (oracles.lex_order)
TABLE_DIGESTS = {
    ("jq:2,8,4", 3): "2aeaf95409a7b2f19de36f759370dcf34b61a63732c368850d0ebe781c1ab016",
    ("jq:3,6,3", 2): "b3a9424dea9da8d4449ac8f2bdd49851d937c4f88f63a1c8f65a49a5ffb3cbd2",
    ("jq:4,4,2", 1): "a343e0fce45fbc920ab6af3255f6b48249420d99295b2ee51ff3c78b51d99f4b",
    ("jq:9,4,2", 1): "8ad6a749484f6be0e4fbc9094af590824e7b841ad24cf36665283a26c472eaf3",
    # taken before the tables were built by the q-Pascal recursion
    ("j:16,6", 5): "cee8667184d23518e51be3c9c878e7a823278e8d34b5c486f862b3acb0464b34",
    ("jq:2,8,4", 1): "74c4b35cb413afcbeab3783fe43d8b1d5dcec782f26296671658532b4a5da4eb",
    ("jq:2,8,3", 2): "e988c9f27735935f5f3e6069257cbd706cc7760f66e837702b1a4d3156df124e",
    ("jq:2,7,3", 1): "02001a5dde494ff0e75e5faf7328a7ccf0032de6bfbdfb0b3ec92a67fcd75677",
}

# sha256 of vertex_index(spec).rows as little-endian uint64, taken before
# the levels were built by the q-Pascal recursion, in lexicographic order
ROW_DIGESTS = {
    "jq:2,8,4": "6abe5fdd202963cfe457784e74702d4ca0a0e4f9dcee13fa9b4fe1d861a759e2",
    "jq:2,8,3": "1958b5e96d030e19b3baf1be6decde39d98ad20a311503f48ce62051c67ab6fd",
    "jq:3,6,3": "6c3445d5df8ab7c5125602025759f7aca5a61165bac0c701635ed9c4d7c7782f",
    "jq:4,4,2": "26c3c19947b84dc3d431204a67fc93a2f999a5557ca00b9abc57324deb1ddb5e",
    "jq:9,4,2": "39e874f59f50afaa897933db6a929abaa858eb17f2b7b1c1cca8c07cce6c0243",
    "j:16,6": "70e79fa21eab25d5f0f3fc6eb504f8680d1fb8a29a79282fa390fc325700929a",
}


def test_containment_tables_reproduce_the_pinned_bytes():
    # vertices, slots (the j-by-k patterns) and sub-level ids each moved
    # from lexicographic to recursion order; moved back, nothing changed
    for (text, j), want in TABLE_DIGESTS.items():
        spec = g.parse_graph_spec(text)
        ids = g.containment_table(spec, j).ids
        lex, _ = oracles.lex_order(spec.n, spec.k, spec.q)
        slots, _ = oracles.lex_order(spec.k, j, spec.q)
        _, rank = oracles.lex_order(spec.n, j, spec.q)
        ids = rank[ids[lex][:, slots]]
        got = hashlib.sha256(np.ascontiguousarray(ids.astype("<i4")).tobytes())
        assert got.hexdigest() == want, (text, j)


def test_vertex_rows_reproduce_the_pinned_bytes():
    for text, want in ROW_DIGESTS.items():
        spec = g.parse_graph_spec(text)
        rows = g.vertex_index(spec).rows
        assert rows.dtype == np.uint64
        rows = rows[oracles.lex_order(spec.n, spec.k, spec.q)[0]]
        got = hashlib.sha256(np.ascontiguousarray(rows.astype("<u8")).tobytes())
        assert got.hexdigest() == want, text


def test_containment_table_refuses_field_tables_above_256():
    # J_257(2,2) at j = 1 combines rows over GF(257): refused before any
    # table is built; a k = 1 level needs no GF(q) arithmetic at all
    unbalanced = g.GraphSpec("grassmann", 257, 2, 2, allow_unbalanced=True)
    with pytest.raises(ValueError):
        g.containment_table(unbalanced, 1)
    t = g.containment_table(g.parse_graph_spec("jq:65537,2,1"), 0)
    assert t.ids.shape == (65538, 1)


def test_vertex_index_id_lookup_round_trip():
    for text in ["jq:2,6,3", "j:16,6", "jq:2,4,2", "jq:3,4,2", "jq:4,4,2",
                 "j:70,2"]:
        spec = g.parse_graph_spec(text)
        idx = g.vertex_index(spec)
        assert len(idx) == spec.vertex_count
        assert idx.ids_of_rows(idx.rows).tolist() == list(range(len(idx)))
        rng = random.Random(17)
        for _ in range(50):
            vid = rng.randrange(len(idx))
            assert oracles.id_of(idx, idx[vid]) == vid


@pytest.mark.parametrize("spec_text,row,alias", [
    # 0x42 is wider than 6 bits: 0:42:4 packs to the key of 1:2:4
    ("jq:2,6,3", [0, 0x42, 4], [1, 2, 4]),
    ("jq:3,4,2", [0, 81 + 3], [1, 3]),
    ("j:16,6", [6, 5, 4, 3, 2, 1], None),
    ("j:16,6", [0, 1, 2, 3, 4, 5], None),
    ("j:16,6", [1, 2, 3, 4, 5, 17], None),
])
def test_ids_of_rows_rejects_rows_that_are_no_vertex(spec_text, row, alias):
    idx = g.vertex_index(g.parse_graph_spec(spec_text))
    if alias is not None:
        idx.ids_of_rows([alias])
    with pytest.raises(KeyError):
        idx.ids_of_rows([row])
    with pytest.raises(KeyError):
        idx.ids_of_rows([idx.rows[0].tolist(), row])


def test_vertex_index_refuses_rows_wider_than_a_word():
    # q^(n*k) = 2^72: the packed key of a row would not fit in 64 bits
    with pytest.raises(ValueError):
        g.vertex_index(g.GraphSpec("grassmann", 2, 9, 8, allow_unbalanced=True))
