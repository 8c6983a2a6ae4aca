"""Symmetry-reduced search for covering-radius-1 codes in J_2(6,3).

Prescribing the order-3 group generated by multiplication with a^21
collapses the 1395 vertices into 465 orbits; a code invariant under the
group is a 0/1 solution of the orbit quotient system.  The search (the
refinement ladder, then a node slice of the exact solver, HiGHS milp and
the exhaustive exact solver) reproduces a completely regular code for
every feasible gamma1 on the strength-1 row, each one re-verified vertex
by vertex on the full graph.
"""

import sys
import time

from crcodes import (GraphSpec, build_instance, export_opb,
                     feasible_parameters, orbit_system, quotient_matrix,
                     search_parameter_point, singer_action, verify_report)

spec = GraphSpec("grassmann", 2, 6, 3)

action = singer_action(spec, 21)
osys = orbit_system(action)
print(f"orbits under multiplication by a^21: {osys.count} "
      f"(sizes {sorted(set(osys.sizes().tolist()))})")
B = quotient_matrix(spec, osys)
print("quotient row sums:", sorted(set(B.sum(axis=1).tolist())))

print("\nintegrality screen per eigenvalue row:")
for row in feasible_parameters(spec):
    gammas = [g1 for _, g1 in row["pairs"]]
    print(f"  theta={row['eigenvalue']:>3} strength={row['strength']}: "
          f"gamma1 in {gammas}")

inst = build_instance(spec, osys, 81, 12, B=B)
print("\nOPB export of the gamma1=12 system (first lines):")
print("\n".join(export_opb(inst).splitlines()[:4]))

print("\nsearching the strength-1 row:")
for gamma1 in (9, 12, 15, 18, 21, 24, 27, 30):
    t0 = time.time()
    out = search_parameter_point(spec, osys, 93 - gamma1, gamma1, B=B,
                                 max_seconds=3600, singer_exponent=21)
    line = f"  gamma1={gamma1:>2}: {out.status}"
    if out.code is not None:
        rep = verify_report(spec, out.code)
        line += (f"  size={rep['code_size']} array={{{rep['beta'][0]};"
                 f"{rep['gamma'][0]}}} verified={rep['completely_regular']}")
    print(line + f"  [{out.stage}]")
    # seconds go to stderr, so that stdout is the same from run to run
    print(f"  gamma1={gamma1:>2}: {time.time() - t0:.1f}s", file=sys.stderr)
