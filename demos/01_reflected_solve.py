"""A two-sided reflected backward solve, step by step.

The instance lives on a depth-6 binomial lattice.  The solution has to
stay above a lower obstacle and below an upper obstacle at every node,
and on top of that two *predictable* obstacles act on the left limit:
at the atom of the lower clock the solution entering that time must
already sit above a floor, and at the atom of the upper clock below a
cap.  The solver enforces all four with two increasing reflection
processes and reports certificates showing the reflections are minimal
(they only act when the matching constraint binds, and never both at
once).

Run:  python3 demos/01_reflected_solve.py
"""

import numpy as np

from rbsdelab import (
    AdaptedProcess,
    BarrierSet,
    Driver,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    TimeGrid,
    budget_defect,
    solve_rbsde,
)


def main():
    lat = Lattice(TimeGrid(horizon=1.0, steps=6))
    print(f"lattice: {lat.steps} steps, dt = {lat.dt:.4f}")

    # right-continuous obstacles: a band around a drifting sine curve
    def curve(i):
        return np.sin(2.0 * lat.brownian(i)) + 0.1 * lat.times[i]

    width = 0.35
    L = AdaptedProcess(lat, [curve(i) - width for i in range(lat.steps + 1)])
    U = AdaptedProcess(lat, [curve(i) + width for i in range(lat.steps + 1)])

    # predictable obstacles: a floor entering t_3 and a cap entering t_5
    # (kept compatible with the band: the floor stays below every cap at
    # its level and the cap above every floor, else the obstacle
    # interval would be empty and the solver would refuse the instance)
    low_entry = PredictableProcess.from_time_values(
        lat, {3: -0.90}, fill=-np.inf
    )
    high_entry = PredictableProcess.from_time_values(
        lat, {5: 0.90}, fill=np.inf
    )
    delta = IncreasingProcess.from_time_atoms(lat, {3: 1.0})
    alpha = IncreasingProcess.from_time_atoms(lat, {5: 1.0})

    xi = curve(lat.steps)  # terminal condition on the band's center
    bars = BarrierSet.build(
        lat, xi, L=L, U=U, l=low_entry, u=high_entry,
        delta=delta, alpha=alpha,
    )

    driver = Driver.linear(a=0.4, b=0.3, c=0.1)
    sol = solve_rbsde(lat, driver, bars)

    print(f"root value Y0 = {sol.value():.10f}")
    print()
    print("level |  t    | Y range                | pushes up | pushes down")
    for i in range(lat.steps + 1):
        y = sol.Y.level(i)
        if i < lat.steps:
            up = float(np.sum(sol.Kplus.atom(i)))
            dn = float(np.sum(sol.Kminus.atom(i)))
            tail = f"| {up:9.5f} | {dn:9.5f}"
        else:
            tail = "|     -     |     -"
        print(
            f"  {i}   | {lat.times[i]:.2f}  "
            f"| [{y.min():+8.5f}, {y.max():+8.5f}] {tail}"
        )

    # where does each constraint actually bind?
    print()
    for i in range(lat.steps):
        lo_eff, hi_eff = bars.low.level(i), bars.high.level(i)
        y = sol.Y.level(i)
        at_floor = int(np.sum(np.isclose(y, lo_eff)))
        at_cap = int(np.sum(np.isclose(y, hi_eff)))
        if at_floor or at_cap:
            print(
                f"level {i}: {at_floor} node(s) on the floor, "
                f"{at_cap} on the cap"
            )

    rep = sol.residuals
    print()
    print("minimality certificates (all must be exactly zero):")
    print(f"  lower reflection while strictly above floor: {rep.flat_off_plus!r}")
    print(f"  upper reflection while strictly below cap:   {rep.flat_off_minus!r}")
    print(f"  both reflections at one node:                {rep.singularity_defect!r}")

    defect = budget_defect(sol)
    print(f"per-path telescoping defect over all {2**lat.steps} paths: {defect:.3e}")


if __name__ == "__main__":
    main()
