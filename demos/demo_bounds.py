#!/usr/bin/env python3
"""Evaluate the length bounds and validate the averaging argument numerically.

The expected value of the weight-collision statistic sum_w A_w(A_w - (q-1))
over random [n,k]_q codes is at most q^{2k-2n} sum_w C(n,w)^2 (q-1)^{2w}.
Once that ceiling drops below 2(q-1)^2, an MWS code must exist.  For
q = k = 2 the crossing happens exactly at n = 21; sampling confirms both the
ceiling and a healthy fraction of MWS codes there.
"""

from mwscodes import bounds_table, eqbound_value, estimate_expectation


def main():
    print("== bound table ==")
    header = f"{'q':>3} {'k':>3} {'lower':>6} {'exact':>6} {'gv_qm':>6} {'threshold_n':>12}"
    print(header)
    # one threshold scan per q settles every k of that q
    cells = bounds_table([2], [2, 3, 4]) + bounds_table([3], [2, 3]) + bounds_table([4, 5], [2])
    for rep in cells:
        q, k = rep.q, rep.k
        exact = rep.exact_length if rep.exact_length is not None else "-"
        thr = rep.eqbound_min_n if rep.eqbound_min_n is not None else ">cap"
        print(f"{q:>3} {k:>3} {rep.lower_bound_length:>6} {exact:>6} "
              f"{rep.gv_qm_length:>6} {thr:>12}")

    print("\n== the q = k = 2 threshold sits between n = 20 and 21 ==")
    for n in (20, 21):
        print(f"  n={n}: ceiling = {float(eqbound_value(2, 2, n)):.6f} "
              f"(need < 2)")

    print("\n== Monte-Carlo at the threshold ==")
    est = estimate_expectation(2, 2, 21, samples=20_000, seed=7)
    print(f"  empirical mean {est.mean:.4f} +/- {est.stderr:.4f}")
    print(f"  theoretical ceiling {est.bound:.4f}")
    print(f"  fraction of sampled codes that are MWS: {est.mws_fraction:.3f}")


if __name__ == "__main__":
    main()
