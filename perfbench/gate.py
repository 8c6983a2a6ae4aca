"""Pinned outputs: every operation's result is checked against these.

Each check returns None when the result is right and a one-line reason
when it is wrong; a wrong result counts as a failed operation.
"""

from __future__ import annotations

SAT, UNSAT, BUDGET = "SAT", "UNSAT", "BUDGET_EXCEEDED"

# J_2(8,4) Desarguesian spread-avoid code and J(16,6) SQS avoid code
J284_REPORT = {"completely_regular": True, "beta": [105, 3], "gamma": [288, 450],
               "cells": [146880, 53550, 357], "eigenvalues": [450, 69, -15],
               "strength": 1, "lambdas": [8640]}
J166_REPORT = {"completely_regular": True, "beta": [60, 6], "gamma": [4, 48],
               "cells": [448, 6720, 840], "eigenvalues": [60, 8, -6]}

# sweep points of J_2(7,3), singer:1, theta = -7, as the search decides
# them at seed 0 when the benchmark was defined: γ1=7 is "no invariant
# code" and γ1=14 runs out of budget
SWEEP_AT_SEED0 = {7: UNSAT, 14: BUDGET}


def check_cr_report(rc: int, report: dict, pinned: dict):
    if rc != 0:
        return f"verify exited {rc}, expected 0"
    for key, want in pinned.items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    return None


def check_refuted(rc: int, report: dict):
    if rc != 1:
        return f"verify exited {rc}, expected 1 (refuted)"
    if report.get("completely_regular") is not False:
        return "swapped code was not refuted"
    if "counterexample" not in report:
        return "refutation carries no counterexample"
    return None


def check_lift(report: dict, beta0: int, gamma1: int, size: int):
    """A SAT point's lifted code: verified, with the searched parameters."""
    if not report.get("completely_regular"):
        return "lifted code fails full-graph verification"
    if report.get("beta") != [beta0] or report.get("gamma") != [gamma1]:
        return (f"lift has array beta={report.get('beta')} "
                f"gamma={report.get('gamma')}, expected [{beta0}] [{gamma1}]")
    if report.get("code_size") != size:
        return f"lift has {report.get('code_size')} vertices, expected {size}"
    return None


def check_point(status: str, expected: str, strict: bool, lift_report,
                beta0: int, gamma1: int, size: int):
    """expected is the verdict pinned at seed 0.

    A SAT lift must verify, and an UNSAT where a code was found at seed 0
    is a false UNSAT.  With strict, any verdict other than expected is wrong.
    """
    if strict and status != expected:
        return f"gamma1={gamma1} ended {status}, expected {expected}"
    if status == SAT:
        return check_lift(lift_report, beta0, gamma1, size)
    if status == UNSAT and expected == SAT:
        return f"UNSAT on gamma1={gamma1}, which has a code at seed 0"
    if status not in (UNSAT, BUDGET):
        return f"unknown status {status!r}"
    return None
