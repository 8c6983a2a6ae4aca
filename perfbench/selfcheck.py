"""Checks of the benchmark itself, on small inputs (a few seconds).

    python3 perfbench/selfcheck.py

Run from the root of a crcodes checkout.  Exit 0 when the gate flags
tampered results (a wrong beta, a non-CR lift, a false UNSAT), when an
operation that raises is counted as failed without ending the pass, when
operation times are scaled by the speed probe except where a budget ran
out, and when per-layer self times add up to the traced span total.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import checkout


def _expect(ok) -> None:
    """Like assert, but kept under python -O."""
    if not ok:
        raise SystemExit(f"selfcheck failed at line {sys._getframe(1).f_lineno}")


def check_gate() -> None:
    import gate
    from crcodes import constructions as con
    from crcodes import verify as vf
    from crcodes.graphs import GraphSpec

    j166 = GraphSpec("johnson", 1, 16, 6)
    report = vf.verify_report(j166, con.avoid_code(j166, con.extended_hamming_sqs(4)))
    _expect(gate.check_cr_report(0, report, gate.J166_REPORT) is None)
    _expect(gate.check_cr_report(0, dict(report, beta=[59, 6]), gate.J166_REPORT))
    _expect(gate.check_cr_report(1, report, gate.J166_REPORT))

    j263 = GraphSpec("grassmann", 2, 6, 3)
    code = con.hyperplane_code(j263)
    good = vf.verify_report(j263, code)
    b0, g1, size = good["beta"][0], good["gamma"][0], good["code_size"]
    _expect(gate.check_point(gate.SAT, gate.SAT, True, good, b0, g1, size) is None)
    _expect(gate.check_point(gate.SAT, gate.SAT, True, good, b0 + 1, g1, size))
    broken = vf.verify_report(j263, vf.Code(j263, code.ids[1:]))
    _expect(not broken["completely_regular"])
    _expect(gate.check_point(gate.SAT, gate.SAT, False, broken, b0, g1, size - 1))
    _expect(gate.check_point(gate.UNSAT, gate.SAT, False, None, b0, g1, size))
    _expect(gate.check_point(gate.UNSAT, gate.UNSAT, False, None, b0, g1, size) is None)
    _expect(gate.check_point(gate.BUDGET, gate.SAT, True, None, b0, g1, size))
    _expect(gate.check_point(gate.BUDGET, gate.SAT, False, None, b0, g1, size) is None)
    print("selfcheck: gate flags a wrong beta, a non-CR lift and a false UNSAT")


def check_injected_exception() -> None:
    import run
    import spans
    from workloads import Op

    def boom():
        raise RuntimeError("injected")

    ops = [Op("boom", boom, lambda v: None, lambda v: True),
           Op("fine", lambda: 1, lambda v: None if v == 1 else "wrong", lambda v: True),
           Op("wrong", lambda: 2, lambda v: None if v == 1 else "wrong", lambda v: True)]
    *_, results = run._run_pass(ops, spans.NullTracer())
    _expect([op.name for op, _, _ in results] == ["boom", "fine", "wrong"])
    _expect(run._judge(results) == (2, 1))
    print("selfcheck: an injected exception counts as one failed operation "
          "and the pass goes on")


def check_normalisation() -> None:
    import run
    import spans
    import time
    from workloads import Op

    class HalfSpeed:
        """A host running the probe at half the nominal speed."""

        paused = 0.0

        def begin(self):
            pass

        def end(self):
            pass

        def mean(self):
            return 2 * run.PROBE_NOMINAL_S

    def nap():
        time.sleep(0.05)
        return "verdict"

    ops = [Op("decided", nap, lambda v: None, lambda v: True),
           Op("budget", nap, lambda v: None, lambda v: False)]
    wall, norm, _ = run._run_pass(ops, spans.NullTracer(), HalfSpeed())
    _expect(wall >= 0.1)
    # the decided operation is halved; the one that ran out its budget is not
    _expect(math.isclose(norm, 0.75 * wall, rel_tol=0.1))
    print("selfcheck: operation times are scaled by the speed probe, "
          "except for an operation that ran out its budget")


def check_self_times() -> None:
    import run
    import spans
    import workloads

    tracer = spans.Tracer()
    spans.install(tracer)
    wl = workloads.Search(checkout.WORK, 0)
    wl.point_sets = (dataclasses.replace(workloads.LADDER_J263,
                                         expected={12: "SAT", 21: "SAT"}),)
    with tracer.span("bench.setup"):
        state = wl.setup()
    *_, results = run._run_pass(wl.ops(state, tracer), tracer)
    _expect(run._judge(results) == (0, 2))
    layers = spans.layer_self_times(tracer.spans)
    total = spans.root_total(tracer.spans)
    _expect(math.isclose(sum(layers.values()), total, rel_tol=1e-9))
    m = spans.layer_metrics(tracer.spans)
    _expect(m["bip.solve_calls"] > 0 and m["search.stage.refinement"] == 2)
    print(f"selfcheck: {len(tracer.spans)} spans, layer self times sum to "
          f"{sum(layers.values()):.4f}s = span total {total:.4f}s")


def main() -> int:
    checkout.import_crcodes()
    check_gate()
    check_injected_exception()
    check_normalisation()
    check_self_times()
    return 0


if __name__ == "__main__":
    sys.exit(main())
