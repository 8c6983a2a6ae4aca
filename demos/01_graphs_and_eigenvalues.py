"""Johnson and Grassmann graphs: vertices, neighbors, eigenvalue ladders.

Walk through the basic graph models:  J(n,k) on k-subsets and J_q(n,k) on
k-subspaces, canonical vertex ids, star-clique neighbors, and the exact
eigenvalue ladder theta_0 > ... > theta_k.
"""

import numpy as np

from crcodes import (Code, adjacency_lists, neighbors, parse_graph_spec,
                     theta_ladder, vertex_index)
from crcodes.files import code_to_text

# Build a few graphs from their spec strings.
for text in ["j:5,2", "jq:2,4,2", "jq:2,6,3", "j:16,6", "jq:2,8,4"]:
    spec = parse_graph_spec(text)
    print(f"{text:10s} vertices={spec.vertex_count:>7} valency={spec.valency:>4} "
          f"theta={theta_ladder(spec)}")

print()

# Vertices are canonical: ids are stable, and every vertex knows its basis.
spec = parse_graph_spec("jq:2,6,3")
idx = vertex_index(spec)
print("vertex 0 of J2(6,3):", idx[0], "code-file line:",
      code_to_text(Code(spec, [0])).splitlines()[1])

# Neighbors are the other members of the vertex's star cliques (the
# vertices over each of its 2-subspaces); small graphs also have a table.
nbrs = neighbors(spec, 0)
adj = adjacency_lists(spec)
print("degree of vertex 0:", len(nbrs), " tabulated row equal:",
      nbrs.tolist() == adj[0].tolist())

# The Johnson graph J(5,2) is the triangular graph T(5): spectrum 6, 1, -2
# with multiplicities 1, 4, 5.  Verify by brute force on the adjacency
# matrix using integer arithmetic only.
j52 = parse_graph_spec("j:5,2")
a = adjacency_lists(j52)
mat = np.zeros((10, 10), dtype=np.int64)
for v in range(10):
    mat[v, a[v]] = 1
ladder = theta_ladder(j52)
print("J(5,2) ladder:", ladder)
for th in ladder:
    d = np.linalg.matrix_rank(mat - th * np.eye(10, dtype=np.int64))
    print(f"  rank(A - {th} I) = {d}  -> multiplicity {10 - d}")
