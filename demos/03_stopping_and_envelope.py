"""Optimal stopping with an entry constraint, and the envelope behind it.

Two views of the same machinery.  First, an American put priced three
ways: by the lower-obstacle solver, by the textbook early-exercise
recursion, and by brute-force enumeration of every stopping time on a
small tree — all three agree to machine precision.  Second, the
envelope transform that makes *predictable* entry constraints tractable:
given a profile g supported on the atoms of a clock, the transform with
relaxation rate n is the running maximum of g discounted at rate n as
you move away from each atom; as n grows it collapses onto g at the
atoms and to -inf elsewhere, which is exactly the hard constraint.

Run:  python3 demos/03_stopping_and_envelope.py
"""

import numpy as np

from rbsdelab import (
    AdaptedProcess,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    SnellInstance,
    TimeGrid,
    envelope_profile,
    envelope_star_profile,
    exhaustive_stopping_value,
    snell_envelope,
)

STRIKE = 1.1


def put_payoff(lat, i):
    return np.maximum(STRIKE - np.exp(lat.brownian(i)), 0.0)


def plain_recursion(lat):
    """Independent early-exercise dynamic program, no library calls."""
    v = put_payoff(lat, lat.steps)
    for i in range(lat.steps - 1, -1, -1):
        cont = 0.5 * (v[:-1] + v[1:])
        v = np.maximum(cont, put_payoff(lat, i))
    return float(v[0])


def main():
    # --- an American put, three ways -------------------------------
    lat = Lattice(TimeGrid(horizon=1.0, steps=4))
    payoff = AdaptedProcess(
        lat, [put_payoff(lat, i) for i in range(lat.steps + 1)]
    )
    inst = SnellInstance(payoff, None, None, payoff.terminal())
    # a production run would supply a dominating martingale witness so
    # the audit can run; this toy instance has none, so none is audited
    sol = snell_envelope(inst)
    dp = plain_recursion(lat)
    brute = exhaustive_stopping_value(payoff, payoff.terminal())
    print("American put on exp(B), strike 1.1, depth 4:")
    print(f"  reflected solve        {sol.value():.15f}")
    print(f"  early-exercise DP      {dp:.15f}")
    print(f"  all stopping times     {brute:.15f}")
    print(f"  spread                 {max(sol.value(), dp, brute) - min(sol.value(), dp, brute):.1e}")

    # --- the same put, forbidden from being below 0.55 entering t_2 --
    floor = PredictableProcess.from_time_values(lat, {2: 0.55}, fill=-np.inf)
    clock = IncreasingProcess.from_time_atoms(lat, {2: 1.0})
    constrained = SnellInstance(payoff, floor, clock, payoff.terminal())
    csol = snell_envelope(constrained)
    print()
    print(f"  with an entry floor of 0.55 at t_2: {csol.value():.15f}")
    print(f"  (the floor binds, lifting the value by "
          f"{csol.value() - sol.value():.6f})")

    # --- the envelope transform itself ------------------------------
    times = np.linspace(0.0, 1.0, 6)
    weights = np.array([0.0, 0.0, 1.0, 0.0, 1.5, 0.0])  # atoms at k=2, 4
    g = np.full(6, -np.inf)
    g[2], g[4] = 0.8, 0.3
    print()
    print("envelope transform of a profile with atoms at t_2 and t_4:")
    header = "  t     | " + " | ".join(f"n={n:<5g}" for n in (1, 4, 16, 256))
    print(header + " | star")
    for k in range(6):
        row = []
        for n in (1, 4, 16, 256):
            row.append(f"{envelope_profile(times, g, weights, n).values[k]:+7.3f}")
        star = envelope_star_profile(times, g, weights).values[k]
        star_s = f"{star:+7.3f}" if np.isfinite(star) else "   -inf"
        print(f"  {times[k]:.2f}  | " + " | ".join(row) + f" | {star_s}")
    print("(columns stiffen toward the hard constraint: the profile on "
          "its atoms, no constraint elsewhere)")


if __name__ == "__main__":
    main()
