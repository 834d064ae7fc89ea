"""Penalizing the predictable obstacles away, then squeezing the limit.

Predictable obstacles are awkward to enforce directly, so the scheme
replaces each with a soft penalty of weight n: the lower family pays
n * (shortfall below the floor entering an atom) and the upper family
symmetrically for the cap.  As n grows, the lower solutions increase,
the upper solutions decrease, and a known semimartingale (the
"witness", which satisfies every constraint by construction) stays
pinned between the two chains at every node.  The two monotone limits
are also computable exactly as hard-constraint one-sided solves, which
is what the reduction uses; here we print the ladder so the squeeze is
visible, run the numerical squeeze to a tolerance, check its limits
against the exact ones, and check the fully reduced solve against the
direct one.  The growth bounds of the penalized generators are raw
constants rescaled by a nondecreasing function of the obstacles'
running size, which is how growth of any order in y is dominated.
The problem is stated once: the obstacle set carries its lattice and
the witness, and every penalization call takes it with the bounds.

Run:  python3 demos/02_penalization_squeeze.py
"""

import numpy as np

from rbsdelab import (
    AdaptedProcess,
    BarrierSet,
    Driver,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    SemimartingaleSpec,
    TimeGrid,
    build_family,
    dominate_growth,
    exact_squeeze_barriers,
    reduce_and_solve,
    solve_rbsde,
    squeeze_limits,
)

STEPS = 5


def witness_pieces(lat):
    """A recombining semimartingale S(t, B) and its decomposition."""

    def shape(t, w):
        return 0.3 * np.sin(1.5 * w) + 0.2 * w - 0.1 * t + 0.2

    levels = [shape(lat.times[i], lat.brownian(i)) for i in range(STEPS + 1)]
    return SemimartingaleSpec.from_levels(lat, levels), levels


def main():
    lat = Lattice(TimeGrid(horizon=1.0, steps=STEPS))
    spec, levels = witness_pieces(lat)
    S = spec.reconstruct()

    # obstacles hugging the witness from both sides with margin 0.3,
    # plus one predictable floor and one predictable cap near-touching
    # the witness's left limits at their clock atoms
    margin = 0.3
    L = AdaptedProcess(lat, [lv - margin for lv in levels])
    U = AdaptedProcess(lat, [lv + margin for lv in levels])
    k_low, k_high = 2, 4
    low_entry = PredictableProcess(
        lat,
        [
            levels[i] - 0.02 if i == k_low - 1
            else np.full(i + 1, -np.inf)
            for i in range(STEPS)
        ],
    )
    high_entry = PredictableProcess(
        lat,
        [
            levels[i] + 0.02 if i == k_high - 1
            else np.full(i + 1, np.inf)
            for i in range(STEPS)
        ],
    )
    delta = IncreasingProcess.from_time_atoms(lat, {k_low: 1.0})
    alpha = IncreasingProcess.from_time_atoms(lat, {k_high: 1.0})
    bars = BarrierSet.build(
        lat, levels[STEPS], L=L, U=U, l=low_entry, u=high_entry,
        delta=delta, alpha=alpha, witness=spec,
    )
    # raw growth constants times phi of the obstacles' running size
    phi = lambda r: 1.0 + r
    bounds = dominate_growth(phi, 0.5, 0.2, 0.0, L, U)

    schedule = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
    family = build_family(bounds, bars, schedule=schedule)
    exact_hi, exact_lo = exact_squeeze_barriers(bounds, bars)

    def sup_dist(Y, limit):
        return float(np.max(np.abs(Y.values - limit.values)))

    print("exact limits (hard-constraint one-sided solves):")
    print(f"  lower limit Y0 = {exact_lo.level(0)[0]:+.8f}")
    print(f"  upper limit Y0 = {exact_hi.level(0)[0]:+.8f}")
    print(f"  witness     Y0 = {S.level(0)[0]:+.8f} (always in between)")
    print()
    print("penalty weight | sup |lower_n - limit| | sup |upper_n - limit|")
    for k, n in enumerate(family.n_schedule):
        lo_err = sup_dist(family.lower_solutions[k].Y, exact_lo)
        hi_err = sup_dist(family.upper_solutions[k].Y, exact_hi)
        print(f"     {n:6d}    |     {lo_err:.6e}     |     {hi_err:.6e}")
    print("(errors shrink like 1/n once the soft constraint binds)")

    # the numerical squeeze doubles the weight until both chains move
    # by at most tol per doubling; at 1/n that takes a few thousand
    tol = 1e-4
    Ybar, Yunder = squeeze_limits(family, tol=tol)
    print()
    print(f"numerical squeeze (tol {tol:g}, stopped at n = "
          f"{family.n_schedule[-1]}):")
    print(f"  sup |lower - exact limit| = {sup_dist(Yunder, exact_lo):.3e}")
    print(f"  sup |upper - exact limit| = {sup_dist(Ybar, exact_hi):.3e}")

    # the reduction solves the original two-sided problem by folding the
    # exact limits into ordinary obstacles; cross-check it against the
    # direct solve of the merged problem
    driver = Driver.linear(a=0.2, b=0.1, c=0.05, bounds=bounds)
    sol = reduce_and_solve(lat, driver, bars)
    direct = solve_rbsde(lat, driver, bars)
    print()
    print(f"reduced solve   Y0 = {sol.value():+.10f}")
    print(f"direct solve    Y0 = {direct.value():+.10f}")
    print(f"difference         = {abs(sol.value() - direct.value()):.3e}")


if __name__ == "__main__":
    main()
