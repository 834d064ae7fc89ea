"""Deep lattices (N = 1000) against backward recursions written out here.

Each reference spells out, level by level, the one-step average, the
slope, the closed-form root of the linear step and the merged obstacle
band, so it shares no code with the solver or the envelope.  A small
batched penalization ladder gets the same level-by-level recomputation
of its reflections, and the exact squeeze pair is recomputed from its
two one-sided recursions.  Two drivers without obstacles are checked against
the continuous-time equation: the lattice converges at first order.
"""

import warnings

import numpy as np
import pytest

from rbsdelab import (
    AdaptedProcess,
    BarrierSet,
    Driver,
    GrowthBounds,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    SemimartingaleSpec,
    SnellInstance,
    TimeGrid,
    build_family,
    exact_squeeze_barriers,
    snell_envelope,
    solve_rbsde,
)
from rbsdelab.lattice import level_offset
from rbsdelab.oracle import linear_continuous_value, quadratic_continuous_value
from rbsdelab.penalize import _reduce_pass
from rbsdelab.verify import CertificateLog, random_witness_instance, verify_reduction

STEPS = 1000
FLOORS = (150, 400, 777)  # grid times where a lower entry constraint acts
CAPS = (300, 620, 901)  # and an upper one


@pytest.fixture(scope="module")
def band():
    """A two-sided band around a smooth curve, with entry constraints
    hugging the curve at a few times; returns the lattice, the obstacle
    set (with the curve's decomposition as its witness), the terminal
    values and the merged band of levels 0..N-1."""
    lat = Lattice(TimeGrid(1.0, STEPS))
    curve = [
        0.4 * np.sin(1.3 * lat.brownian(i))
        + 0.2 * lat.brownian(i)
        + 0.1 * lat.times[i]
        for i in range(STEPS + 1)
    ]
    xi = curve[STEPS]
    low = [c - 0.3 for c in curve[:STEPS]]
    high = [c + 0.3 for c in curve[:STEPS]]
    floors = [np.full(i + 1, -np.inf) for i in range(STEPS)]
    caps = [np.full(i + 1, np.inf) for i in range(STEPS)]
    for k in FLOORS:
        floors[k - 1] = curve[k - 1] - 0.05
    for k in CAPS:
        caps[k - 1] = curve[k - 1] + 0.05
    bars = BarrierSet.build(
        lat,
        xi,
        L=AdaptedProcess(lat, low + [xi]),
        U=AdaptedProcess(lat, high + [xi]),
        l=PredictableProcess(lat, floors),
        u=PredictableProcess(lat, caps),
        delta=IncreasingProcess.from_time_atoms(lat, {k: 1.0 for k in FLOORS}),
        alpha=IncreasingProcess.from_time_atoms(lat, {k: 1.0 for k in CAPS}),
        witness=SemimartingaleSpec.from_levels(lat, curve),
    )
    # a constraint charged at t_k acts on the left limit, the level k - 1
    lo = [np.maximum(low[i], floors[i]) for i in range(STEPS)]
    hi = [np.minimum(high[i], caps[i]) for i in range(STEPS)]
    return lat, bars, xi, lo, hi


def backward(xi, lo, hi, step):
    """Packed levels of ``y_N = xi``,
    ``y_i = clip(step(next level), lo_i, hi_i)``, and the packed
    unclamped steps of levels 0..N-1."""
    levels = [np.asarray(xi, dtype=float)]
    raws = []
    for i in range(STEPS - 1, -1, -1):
        raws.append(step(levels[-1]))
        levels.append(np.clip(raws[-1], lo[i], hi[i]))
    return np.concatenate(levels[::-1]), np.concatenate(raws[::-1])


def average(v):
    return 0.5 * (v[:-1] + v[1:])


def test_zero_driver_matches_the_min_max_recursion(band):
    lat, bars, xi, lo, hi = band
    sol = solve_rbsde(lat, Driver.zero(), bars)
    ref, _ = backward(xi, lo, hi, average)
    assert np.max(np.abs(sol.Y.values - ref)) <= 1e-12
    # the entry constraints bind somewhere on both sides
    assert any(sol.Kplus.atom(k - 1).any() for k in FLOORS)
    assert any(sol.Kminus.atom(k - 1).any() for k in CAPS)


def test_linear_driver_matches_its_closed_form_step(band):
    lat, bars, xi, lo, hi = band
    a, b, c = 0.4, -0.5, 0.3
    dt = lat.dt

    def step(v):
        z = (v[1:] - v[:-1]) / (2.0 * lat.sqrt_dt)
        return (average(v) + (b * z + c) * dt) / (1.0 - a * dt)

    sol = solve_rbsde(lat, Driver.linear(a, b, c), bars)
    ref, raw = backward(xi, lo, hi, step)
    assert np.max(np.abs(sol.Y.values - ref)) <= 1e-12
    # the reflections are the projection residuals of the unclamped
    # step, and the drift is that step less the one-step average
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    kplus = np.maximum(lo - raw, 0.0)
    kminus = np.maximum(raw - hi, 0.0)
    assert np.max(np.abs(sol.Kplus.values - kplus)) <= 1e-12
    assert np.max(np.abs(sol.Kminus.values - kminus)) <= 1e-12
    mean = np.concatenate(
        [average(ref[level_offset(i + 1) : level_offset(i + 2)]) for i in range(STEPS)]
    )
    assert np.max(np.abs(sol.drift.values - (raw - mean))) <= 1e-12
    # the entry constraints bind somewhere on both sides
    assert any(sol.Kplus.atom(k - 1).any() for k in FLOORS)
    assert any(sol.Kminus.atom(k - 1).any() for k in CAPS)


def test_every_rung_of_a_ladder_reflects_its_own_unclamped_step():
    # the ladder solves all its weights in one batched pass; each rung's
    # reflections and certificates are recomputed level by level from
    # its own Y and drift, against the one obstacle its side keeps
    bounds, bars = random_witness_instance(np.random.default_rng(0), 40)
    fam = build_family(bounds, bars, schedule=(0, 4, 64, 1024))
    n = bars.lattice.steps
    sides = [
        (sol, bars.L.level, lambda i: np.full(i + 1, np.inf))
        for sol in fam.lower_solutions
    ] + [
        (sol, lambda i: np.full(i + 1, -np.inf), bars.U.level)
        for sol in fam.upper_solutions
    ]
    for sol, low_of, high_of in sides:
        fplus = fminus = defect = 0.0
        for i in range(n):
            y, low, high = sol.Y.level(i), low_of(i), high_of(i)
            raw = average(sol.Y.level(i + 1)) + sol.drift.atom(i)
            dkp = np.maximum(low - raw, 0.0)
            dkm = np.maximum(raw - high, 0.0)
            assert np.max(np.abs(y - np.clip(raw, low, high))) <= 1e-12
            assert np.max(np.abs(sol.Kplus.atom(i) - dkp)) <= 1e-12
            assert np.max(np.abs(sol.Kminus.atom(i) - dkm)) <= 1e-12
            gap_low = np.where(dkp > 0.0, y - low, 0.0)
            gap_high = np.where(dkm > 0.0, high - y, 0.0)
            fplus = max(fplus, float(np.max(dkp * gap_low)))
            fminus = max(fminus, float(np.max(dkm * gap_high)))
            defect = max(defect, float(np.max(dkp * dkm)))
        r = sol.residuals
        assert abs(r.flat_off_plus - fplus) <= 1e-12
        assert abs(r.flat_off_minus - fminus) <= 1e-12
        assert abs(r.singularity_defect - defect) <= 1e-12
    # both sides of the ladder reflect somewhere
    assert all(s.Kplus.values.any() for s in fam.lower_solutions)
    assert all(s.Kminus.values.any() for s in fam.upper_solutions)


def test_exact_squeeze_matches_its_one_sided_recursions(band):
    # each limit solves the dominated equation of its side, reflected at
    # its own merged band only.  The step: the exponential tilt of the
    # squared slope (m/2)(z - gamma)^2, plus the source (total variation
    # of the witness and (eta + 4 C gamma^2) dt), signed by the side
    lat, bars, xi, lo, hi = band
    eta, C = 0.2, 0.5
    m = 1.0 + 8.0 * C
    dt, sqrt_dt = lat.dt, lat.sqrt_dt
    witness = bars.witness.reconstruct()

    def step(sign):
        def one(v):
            i = v.size - 2
            w = witness.level(i + 1)
            gamma = (w[1:] - w[:-1]) / (2.0 * sqrt_dt)
            source = np.abs(average(w) - witness.level(i))
            source += (eta + 4.0 * C * gamma**2) * dt
            z = (v[1:] - v[:-1]) / (2.0 * sqrt_dt)
            x = sign * m * (z - gamma) * sqrt_dt
            tilt = (np.logaddexp(x, -x) - np.log(2.0)) / (sign * m)
            return average(v) + tilt + sign * source

        return one

    free = [np.full(i + 1, np.inf) for i in range(STEPS)]
    lower, _ = backward(xi, lo, free, step(-1.0))
    upper, _ = backward(xi, [-f for f in free], hi, step(1.0))
    bounds = GrowthBounds.constants(lat, eta=eta, C=C)
    Ybar, Yunder = exact_squeeze_barriers(bounds, bars)
    assert np.max(np.abs(Yunder.values - lower)) <= 1e-12
    assert np.max(np.abs(Ybar.values - upper)) <= 1e-12
    # each limit sits on its entry constraints somewhere
    for ref, edge, times in ((lower, lo, FLOORS), (upper, hi, CAPS)):
        for k in times:
            level = ref[level_offset(k - 1) : level_offset(k)]
            assert np.any(level == edge[k - 1])


def test_the_reduction_is_the_direct_solve_at_every_node(band):
    # where the direct solve clamps at the merged lower band, the squeeze
    # pair forces the reduced solve onto the same value; elsewhere bounds
    # that dominate with a margin leave the squeeze slack.  So the two
    # routes agree bitwise, on criterion 7's instances at several seeds
    # and on the deep band under a linear driver its bounds dominate
    for seed in (1, 7, 11, 13, 42):
        report = verify_reduction(seed=seed, log=CertificateLog())
        assert report["passed"] and report["cases"] == 50
        assert report["max_process_gap"] == 0.0
    lat, bars, _, _, _ = band
    a, b, c, C = 0.2, 0.1, 0.05, 0.5
    ymax = 1.0 + float(np.max(np.abs(bars.witness.reconstruct().values)))
    eta = abs(a) * ymax + abs(c) + b * b / (4.0 * C) + 0.1
    drv = Driver.linear(a, b, c, bounds=GrowthBounds.constants(lat, eta=eta, C=C))
    ((reduced, direct),) = _reduce_pass(drv, [bars], [drv.bounds])
    for name in ("Y", "Z", "Kplus", "Kminus"):
        got, want = (getattr(sol, name).values for sol in (reduced, direct))
        assert np.array_equal(got, want)
    # the band's entry constraints bind in both routes
    assert any(direct.Kplus.atom(k - 1).any() for k in FLOORS)


def test_american_put_matches_the_early_exercise_recursion():
    lat = Lattice(TimeGrid(1.0, STEPS))
    strike, sigma = 1.1, 0.3
    payoff = [
        np.maximum(strike - np.exp(sigma * lat.brownian(i)), 0.0)
        for i in range(STEPS + 1)
    ]
    inst = SnellInstance(
        AdaptedProcess(lat, payoff), None, None, payoff[STEPS]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = snell_envelope(inst)
    v = payoff[STEPS]
    for i in range(STEPS - 1, -1, -1):
        v = np.maximum(average(v), payoff[i])
    assert abs(sol.value() - float(v[0])) <= 1e-10


@pytest.mark.parametrize(
    "driver, exact",
    [
        (Driver.quadratic(0.7), lambda xi: quadratic_continuous_value(0.7, xi)),
        (
            Driver.linear(0.4, 0.5, 0.1),
            lambda xi: linear_continuous_value(0.4, 0.5, 0.1, xi),
        ),
    ],
    ids=["quadratic", "linear"],
)
def test_lattice_converges_to_the_continuous_equation_at_first_order(
    driver, exact
):
    # the error times N is the same constant at every depth, so the
    # Richardson value 2 Y(2N) - Y(N) removes it
    def payoff(w):
        return np.tanh(1.3 * w) + 0.2

    y_exact = exact(payoff)
    values = {}
    for n in (250, 500, 1000):
        lat = Lattice(TimeGrid(1.0, n))
        bars = BarrierSet.build(lat, payoff(lat.brownian(n)))
        values[n] = solve_rbsde(lat, driver, bars).value()
    scaled = {n: n * (y - y_exact) for n, y in values.items()}
    for n in (250, 500):
        assert abs(scaled[n] - scaled[1000]) <= 0.01 * abs(scaled[1000])
    assert abs(2.0 * values[1000] - values[500] - y_exact) <= 1e-6
