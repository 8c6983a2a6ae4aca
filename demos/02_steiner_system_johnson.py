"""The quadruple system of the extended Hamming code, and its avoid code.

The weight-4 codewords of the [16,11] extended Hamming code form a
3-(16,4,1) design.  The 6-subsets containing none of its blocks are a
completely regular code in J(16,6) with covering radius 2; its 448
vertices are exactly the supports of the weight-6 codewords.
"""

from crcodes import (GraphSpec, avoid_code, check_completely_regular,
                     code_eigenvalues, design_strength, extended_hamming_sqs,
                     verify_report)

spec = GraphSpec("johnson", 1, 16, 6)

sqs = extended_hamming_sqs(4)   # a code on the 4-subsets: J(16,4)
print(f"quadruple system: {len(sqs)} blocks of size 4 on 16 points "
      f"(vertices of {sqs.spec})")
t, lambdas = design_strength(sqs.spec, sqs.ids)
print(f"design strength {t}, cover ladder {lambdas}  (every triple in "
      f"exactly {lambdas[-1]} block)")

code = avoid_code(spec, sqs, label="sqs-avoid")
print(f"\navoid code in J(16,6): {len(code)} vertices")

result = check_completely_regular(spec, code)
assert result.ok
nums = result.numbers
print("distance cells:", result.partition.sizes())
print("intersection array:", nums.array())
print("quotient matrix:", [list(r) for r in nums.quotient])
print("code eigenvalues:", code_eigenvalues(nums.quotient, spec))

report = verify_report(spec, code)
print("\nfull report keys:", ", ".join(report))
print("completely regular:", report["completely_regular"],
      "| strength:", report["strength"], "| lambdas:", report["lambdas"])
