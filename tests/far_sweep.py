"""Claim suites run past the sizes of `etakit verify --suite all`, at the
caps of `etakit.glrverify`: SPAN_DEGREE_CAP = 256 and M_MAX_CAP = 32.

    PYTHONPATH=src python tests/far_sweep.py spans        # prop51 + prop53 at n = 256
    PYTHONPATH=src python tests/far_sweep.py total-space  # prop41 at n = 4, 8, ..., 128
    PYTHONPATH=src python tests/far_sweep.py orders       # q8 + sd16odd at m = 32

Prints the number of claims, the failing claim ids and the time taken.
Exit status 0 when every claim passes, 1 when one fails, 2 on an unknown
sweep name.
"""

import sys
import time

from etakit.glrverify import (M_MAX_CAP, SPAN_DEGREE_CAP, verify_prop41,
                              verify_prop51, verify_prop53, verify_q8_orders,
                              verify_sd16_odd)

SWEEPS = {
    "spans": lambda: verify_prop51(SPAN_DEGREE_CAP) + verify_prop53(SPAN_DEGREE_CAP),
    "total-space": lambda: [c for n in range(4, SPAN_DEGREE_CAP // 2 + 1, 4)
                            for c in verify_prop41(n)],
    "orders": lambda: verify_q8_orders(M_MAX_CAP) + verify_sd16_odd(M_MAX_CAP),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in SWEEPS:
        print(f"usage: far_sweep.py {{{','.join(SWEEPS)}}}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    claims = SWEEPS[argv[0]]()
    failed = [c.claim_id for c in claims if not c.passed]
    print(len(claims), "claims,", len(failed), "failures", failed,
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
