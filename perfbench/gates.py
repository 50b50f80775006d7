"""Time the body of one wall-clock-gated acceptance criterion.

Usage: python3 perfbench/gates.py c1|c2|c6

Makes the same public calls as criteria 1, 2 and 6 of
``tests/test_acceptance.py``, in a fresh process, and prints one JSON line
``{"seconds": ..., "ok": ...}``.  The tests keep the gates; this only shows
how close each body is to its bound.  Exits 1 when the public API the body
needs is gone, which the benchmark reports as n/a.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction as F


def _ideal(gens, shift=0):
    from reesdensity import RingSpec, ideal_module

    return ideal_module(RingSpec(("x", "y")), gens, shift)


def c1() -> bool:
    from reesdensity import length_component, sample_saturated, saturate

    m = _ideal([(2, 0), (1, 1)], shift=-2)
    ladder = (8, 16, 24, 32)
    grid = sample_saturated(m, [F(-1)], ladder)
    return length_component(saturate(m), -1) == 1 and all(
        grid.samples[n][0] > 0 for n in ladder
    )


def c2() -> bool:
    from reesdensity import LengthLadder

    table = LengthLadder(_ideal([(2, 0), (1, 1)]))
    totals_ok = all(
        table.sat_quotient_total(n) == n * (n + 1) // 2 for n in range(1, 41)
    )
    estimate = F(2 * table.sat_quotient_total(40), 40 * 40)
    return totals_ok and abs(estimate - 1) <= F(3, 100)


def c6() -> bool:
    from reesdensity import check_dependence, load_corpus_module
    from reesdensity.io import corpus_names

    m2 = _ideal([(2, 0), (1, 1), (0, 2)])
    v = check_dependence(_ideal([(2, 0), (0, 2)]), m2)
    ok = v.verdict == "reduction" and v.certificate == 1
    v = check_dependence(_ideal([(2, 0), (1, 1)]), m2)
    eps = next(r for r in v.criteria if r.name == "epsilon")
    ok = ok and v.verdict == "not-reduction" and (eps.left, eps.right) == (1, 4)
    for name in corpus_names():
        m = load_corpus_module(name)
        v = check_dependence(m, m)
        ok = ok and v.verdict == "reduction" and v.certificate == 0
    return ok


def main(argv: list[str]) -> int:
    body = {"c1": c1, "c2": c2, "c6": c6}[argv[0]]
    try:
        import reesdensity  # noqa: F401  (import time stays outside the gate, as in the tests)

        start = time.perf_counter()
        ok = body()
    except (ImportError, AttributeError) as exc:
        print(f"gate {argv[0]}: public API missing ({exc})", file=sys.stderr)
        return 1
    print(json.dumps({"seconds": time.perf_counter() - start, "ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
