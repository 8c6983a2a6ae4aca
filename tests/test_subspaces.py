import itertools
import random

import pytest

import oracles
from crcodes import subspaces as sp


def test_gaussian_values():
    assert sp.gaussian(6, 3, 2) == 1395
    assert sp.gaussian(16, 6, 1) == 8008
    assert sp.gaussian(8, 4, 2) == 200787
    assert sp.gaussian(8, 3, 2) == 97155
    assert sp.gaussian(5, 3, 2) == 155
    assert sp.gaussian(6, 4, 2) == 651
    for n, q in [(5, 2), (4, 3), (6, 1)]:
        assert sp.gaussian(n, n, q) == 1
        assert sp.gaussian(n, 0, q) == 1
    # symmetry
    assert sp.gaussian(8, 4, 2) == sp.gaussian(8, 4, 2)
    assert sp.gaussian(7, 2, 2) == sp.gaussian(7, 5, 2)


def test_rref_standard_basis():
    u = sp.rref([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]], 6, 2)
    assert u.rows == (1, 2)  # e1, e2 packed with column j at bit j


def test_rref_same_span():
    u = sp.rref([[1, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]], 6, 2)
    assert u.rows == (1, 2)


def test_rref_of_subfield_images():
    # GF(64) element indices are packed vectors of GF(2)^6; a = x is index 2
    one = 1
    a21 = oracles.gf_pow(2, 21, 64)
    a42 = oracles.gf_pow(2, 42, 64)
    u = sp.rref([one, a21], 6, 2)
    w = sp.rref([a21, a42], 6, 2)
    assert u == w  # both span the subfield of order 4
    assert u.k == 2


def test_rref_idempotent_and_zero_span():
    u = sp.rref([[0, 0, 0, 0]], 4, 2)
    assert u.k == 0 and u.rows == ()
    v = sp.rref([[1, 2, 0, 1], [2, 1, 1, 0]], 4, 3)
    assert sp.rref(list(v.rows), 4, 3) == v


@pytest.mark.parametrize("n,k,q", [(6, 3, 2), (5, 2, 2), (4, 2, 3)])
def test_rref_canonical_under_shuffle(n, k, q):
    rng = random.Random(1000 * n + 10 * k + q)
    for _ in range(350):
        vecs = [[rng.randrange(q) for _ in range(n)] for _ in range(k + 1)]
        base = sp.rref(vecs, n, q)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        # also mix one random combination in
        if q == 2:
            mixed = [a ^ b for a, b in zip(
                [sp.pack_row(v, q) for v in shuffled][:2],
                [sp.pack_row(v, q) for v in shuffled][1:3])]
            assert sp.rref([sp.pack_row(v, q) for v in shuffled] + mixed,
                           n, q) == base
        assert sp.rref(shuffled, n, q) == base


def test_intersection_dim():
    e = [[1 if j == i else 0 for j in range(6)] for i in range(6)]
    u = sp.rref(e[0:4], 6, 2)
    w = sp.rref(e[1:5], 6, 2)
    assert oracles.intersection_dim(u, u) == 4
    assert oracles.intersection_dim(u, w) == 3
    with pytest.raises(ValueError):
        oracles.intersection_dim(u, sp.rref(e[0:2], 6, 3))


def test_contains_with_point_set_oracle():
    rng = random.Random(99)
    vecs = [[rng.randrange(2) for _ in range(6)] for _ in range(4)]
    u = sp.rref(vecs, 6, 2)
    pts = set(oracles.vectors(u))
    for w in sp.subspaces_of(u, 2):
        assert oracles.contains(u, w)
        assert set(oracles.vectors(w)) <= pts
    other = sp.rref([[1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0]], 6, 2)
    assert oracles.contains(u, other) == (set(oracles.vectors(other)) <= pts)


@pytest.mark.parametrize("n,k,q,count", [
    (6, 3, 2, 1395),
    (8, 4, 2, 200787),
    (4, 2, 3, 130),
    (4, 2, 4, 357),
    (6, 0, 2, 1),
])
def test_enumerate_subspaces_counts_and_order(n, k, q, count):
    subs = oracles.enumerate_subspaces(n, k, q)
    assert len(subs) == count == sp.gaussian(n, k, q)
    keys = [oracles.digit_key(s) for s in subs]
    assert all(keys[i] < keys[i + 1] for i in range(len(keys) - 1))
    # each packed row set is already the reduced basis row reduction gives
    assert all(sp.rref(list(s.rows), n, q) == s for s in subs)


def test_enumerate_rows_match_the_pivot_pattern_loop():
    # the q-Pascal recursion against the loop over pivot patterns and
    # their free digits, on every level of small spaces: the rows sorted
    # on their keys are the loop's rows, in lexicographic order, and for
    # subsets the key is the lexicographic rank itself
    import numpy as np
    for q, top in [(1, 9), (2, 7), (3, 5), (4, 4), (5, 4), (8, 3), (9, 3)]:
        for n in range(top + 1):
            for k in range(n + 1):
                rows, key = sp.enumerate_level(n, k, q)
                assert rows.dtype == np.uint64 and rows.shape == (
                    sp.gaussian(n, k, q), k)
                assert key.dtype == np.uint64 and key.shape == (len(rows),)
                order = np.argsort(key)
                assert np.array_equal(rows[order],
                                      oracles.pivot_pattern_rows(n, k, q)), \
                    (n, k, q)
                assert np.array_equal(rows, sp.enumerate_rows(n, k, q))
                if q == 1:
                    assert np.array_equal(key[order], np.arange(len(key)))


def test_enumerate_rows_refuses_rows_wider_than_a_word():
    with pytest.raises(ValueError):
        sp.enumerate_rows(9, 8, 2)  # 2^72
    with pytest.raises(ValueError):
        sp.enumerate_rows(7, 3, 9)  # 9^21 = 2^66.6
    assert sp.enumerate_rows(8, 8, 2).shape == (1, 8)  # 2^64 exactly
    assert sp.enumerate_rows(70, 2, 1).shape == (2415, 2)  # no limit at q = 1


def test_enumerate_subsets():
    subs = oracles.enumerate_subsets(16, 6)
    assert len(subs) == 8008
    assert subs[0].members == (1, 2, 3, 4, 5, 6)
    mem = [s.members for s in subs]
    assert all(mem[i] < mem[i + 1] for i in range(len(mem) - 1))


def test_projective_points():
    u2 = sp.rref([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 2)
    assert len(oracles.projective_points(u2)) == 3
    u4 = sp.rref([[1 if j == i else 0 for j in range(6)] for i in range(4)], 6, 2)
    assert len(oracles.projective_points(u4)) == 15
    ugf4 = sp.rref([[1, 0], [0, 1]], 2, 4)
    pts = oracles.projective_points(ugf4)
    assert len(pts) == sp.gaussian(2, 1, 4) == 5
    # oracle: dedupe nonzero vectors by scalar multiples
    nonzero = [v for v in oracles.vectors(ugf4) if v]
    classes = set()
    for v in nonzero:
        digits = sp.unpack_row(v, 2, 4)
        orbit = frozenset(
            sp.pack_row([oracles.gf_mul(c, d, 4) for d in digits], 4)
            for c in range(1, 4))
        classes.add(orbit)
    assert len(classes) == 5


def test_modular_law_random_pairs():
    rng = random.Random(5)
    for _ in range(100):
        u = sp.rref([[rng.randrange(2) for _ in range(8)] for _ in range(3)], 8, 2)
        w = sp.rref([[rng.randrange(2) for _ in range(8)] for _ in range(3)], 8, 2)
        joined = sp.rref(list(u.rows) + list(w.rows), 8, 2)
        assert oracles.intersection_dim(u, w) + joined.k == u.k + w.k


def test_subobjects_match_brute_force():
    rng = random.Random(11)
    for q in (2, 3):
        vecs = [[rng.randrange(q) for _ in range(5)] for _ in range(3)]
        u = sp.rref(vecs, 5, q)
        if u.k < 3:
            continue
        subs = sp.subspaces_of(u, 2)
        assert len(subs) == sp.gaussian(3, 2, q)
        assert len(set(subs)) == len(subs)
        # every result is already in reduced form and inside u
        for s in subs:
            assert sp.rref(list(s.rows), 5, q) == s
            assert oracles.contains(u, s)
        # brute force: reduced spans of all vector pairs
        brute = set()
        for a, b in itertools.combinations([v for v in oracles.vectors(u) if v], 2):
            w = sp.rref([a, b], 5, q)
            if w.k == 2:
                brute.add(w)
        assert brute == set(subs)


def test_subsets_of():
    s = sp.Subset(9, (2, 4, 6, 8))
    subs = oracles.subsets_of(s, 3)
    assert len(subs) == 4
    assert all(set(t.members) <= {2, 4, 6, 8} for t in subs)


def test_subset_validation():
    with pytest.raises(ValueError):
        sp.Subset(5, (2, 2, 3))
    with pytest.raises(ValueError):
        sp.Subset(5, (0, 1))
    with pytest.raises(ValueError):
        sp.Subset(5, (1, 6))
