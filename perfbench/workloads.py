"""Seeded inputs of the four workloads, as plain data.

Nothing here imports ``gch``: the same inputs feed the timed process
(through ``entry.py``) and the reference process (``reference.py``), so
the reference shares no code with the program it checks.  A workload's
inputs depend only on its name and the seed; seed 0 pins the parameter
points of the package README and the default verification grid, and every
other seed draws the same strata from the same ranges.

Parameter tuples are ``(mu, eps, nu, Omega, omega)``.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("eval-grid", "verify-sweep", "states", "cli-session")

#: x values per parameter set in eval-grid
EVAL_XS_PER_SET = 6
#: parameter sets per stratum cell, as a grid of |z| slices x |eps x/2|
#: slices; the thin mu>0, 16<|z|<=36 band gets two |z| slices only
EVAL_CELL_GRID = (3, 3)
EVAL_THIN_GRID = (2, 1)
#: samples per state on [0, r_max]
STATE_POINTS = 15
#: systems of each kind in the states workload: one per (l, beta0) pair
STATE_SYSTEMS = 9
#: largest |z| = |mu| x^2 / 2 a state is sampled to (the README's
#: oscillator grid, r in [0, 6] at coupling 2, ends at |z| = 9)
STATE_Z_MAX = 9.0
#: normalize runs on [0, r_tail], where the exponent of the system's
#: Gaussian envelope reaches -NORM_EXPONENT: there r^k times the envelope,
#: k <= 10, is below 1e-10 of its peak, so a truly bound state passes
#: normalize's tail check (|z| is about 45 to 85 there)
NORM_EXPONENT = 42.0
#: points of the normalize grid
NORM_POINTS = 7

# README points (seed 0)
README_FIRST = (2.0, 1.0, 1.5, 3.0, 0.25)
README_SECOND = (-1.0, 0.4, 0.5, 0.7, 1.2)
README_POLY = (0.5, 0.3, 1.5, -1.0, 0.0)

# bands: |z| = |mu| x_max^2 / 2 and |eps x_max / 2| at the end of an x run
Z_BANDS = {"z<=1": (0.3, 1.0), "z<=16": (1.0, 16.0), "z16-36": (16.0, 36.0)}
EPS_BANDS = {"eps=0": (0.0, 0.0), "eps<=1": (0.2, 1.0), "eps<=4": (1.0, 4.0)}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _nu(rng: random.Random, lo: float, hi: float) -> float:
    # stay clear of integers: the kinds' nu restrictions and the
    # coincident-root case nu = 1
    while True:
        nu = rng.uniform(lo, hi)
        if abs(nu - round(nu)) >= 0.05:
            return nu


def _terminating_omega(mu: float, nu: float, kind: str, beta0: int) -> float:
    lam = 0.0 if kind == "first" else 1.0 - nu
    return -mu * (2.0 * beta0 + lam)


def eval_grid(seed: int) -> list[dict]:
    """Parameter sets of eval-grid, each with a run of x values.

    Strata: sign of mu; |z| band (<=1, <=16, and 16-36 at mu>0 only);
    |eps x/2| band (0, <=1, <=4); kind and class (first kind infinite and
    B-terminated everywhere, second kind only at mu<0, where its
    z^(1-gamma) prefactor is real).
    """
    rng = _rng("eval-grid", seed)
    pinned = {}
    if seed == 0:
        pinned = {
            (1, "z<=1", "eps<=1", "first", "infinite"): (README_FIRST, 1.0),
            (-1, "z<=1", "eps<=1", "second", "infinite"): (README_SECOND, 1.0),
            (1, "z<=1", "eps<=1", "first", "poly"): (README_POLY, 1.0),
        }
    sets = []
    for sign in (1, -1):
        zbands = ("z<=1", "z<=16", "z16-36") if sign > 0 else ("z<=1", "z<=16")
        classes = [("first", "infinite"), ("first", "poly")]
        if sign < 0:
            classes += [("second", "infinite"), ("second", "poly")]
        for zb in zbands:
            for eb in EPS_BANDS:
                for kind, cls in classes:
                    n_z, n_e = EVAL_THIN_GRID if zb == "z16-36" else EVAL_CELL_GRID
                    # one set per (|z| slice, |eps x/2| slice) of the cell, at a
                    # random point inside it: every seed covers the cell's
                    # corners alike, which keeps its cost mix steady
                    mu_slices = rng.sample(range(n_z * n_e), n_z * n_e)
                    for rep in range(n_z * n_e):
                        key = (sign, zb, eb, kind, cls)
                        if rep == 0 and key in pinned:
                            params, x_max = pinned[key]
                        else:
                            u = ((mu_slices[rep] + rng.random()) / (n_z * n_e),
                                 (rep // n_e + rng.random()) / n_z,
                                 (rep % n_e + rng.random()) / n_e)
                            params, x_max = _draw_eval_set(rng, u, sign, zb, eb, kind, cls)
                        xs = [x_max * (j + 1) / EVAL_XS_PER_SET for j in range(EVAL_XS_PER_SET)]
                        sets.append({
                            "stratum": f"mu{'+' if sign > 0 else '-'}/{zb}/{eb}/{kind}-{cls}",
                            "params": params, "kind": kind, "cls": cls, "xs": xs,
                        })
    return sets


def _within(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _draw_eval_set(rng, u, sign, zb, eb, kind, cls):
    mu = sign * _within(u[0], 0.5, 2.5)
    z_max = _within(u[1], *Z_BANDS[zb])
    x_max = math.sqrt(2.0 * z_max / abs(mu))
    e_lo, e_hi = EPS_BANDS[eb]
    eps = 0.0 if e_hi == 0.0 else rng.choice((-1.0, 1.0)) * 2.0 * _within(u[2], e_lo, e_hi) / x_max
    nu = _nu(rng, 0.3, 2.7) if kind == "first" else _nu(rng, 0.3, 1.7)
    omega = rng.uniform(-1.0, 1.5)
    if cls == "poly":
        omega_cap = _terminating_omega(mu, nu, kind, rng.randrange(4))
    else:
        omega_cap = rng.uniform(-3.0, 3.0)
    return (mu, eps, nu, omega_cap, omega), x_max


# default cross-validation grid of gch.verify.GridSpec (seed 0)
VERIFY_DEFAULT = {
    "mu": (-2.0, -0.5, 0.5, 2.0),
    "eps": (-2.0, -0.5, 0.5, 2.0),
    "nu": (0.5, 1.5),
    "Omega": (-1.0, 1.0),
    "omega": (0.25, 1.0),
    "x": (0.1, 0.5, 1.0),
}


def _near(rng: random.Random, v: float) -> float:
    """A value within 10% of ``v``, same sign."""
    return v * rng.uniform(0.9, 1.1)


def verify_grid(seed: int) -> dict:
    """Axes of a GridSpec-shaped grid: 4 mu x 4 eps x 2 nu x 2 Omega x
    2 omega x 3 x, both kinds, 768 rows.  Seed 0 is the default grid;
    other seeds move every grid value by up to 10%, keeping x <= 1."""
    grid = {k: list(v) for k, v in VERIFY_DEFAULT.items()}
    if seed == 0:
        return grid
    rng = _rng("verify-sweep", seed)
    out = {k: [_near(rng, v) for v in vals] for k, vals in grid.items()}
    out["x"] = [min(x, 1.0) for x in out["x"]]
    return out


def verify_rows(grid: dict) -> list[dict]:
    """Rows in the order gch verify emits them: GridSpec.points() order,
    then kind."""
    rows = []
    for mu in grid["mu"]:
        for eps in grid["eps"]:
            for nu in grid["nu"]:
                for omega_cap in grid["Omega"]:
                    for omega in grid["omega"]:
                        for x in grid["x"]:
                            for kind in ("first", "second"):
                                rows.append({"params": (mu, eps, nu, omega_cap, omega), "kind": kind, "x": x})
    return rows


def _state_rmax(system: dict) -> float:
    """Radius at which the series argument reaches |z| = STATE_Z_MAX."""
    x_max = math.sqrt(STATE_Z_MAX)  # mu = -2 maps: |z| = x^2
    if system["name"] == "oscillator":
        return x_max * math.sqrt(2.0 * system["coupling"])
    if system["name"] == "confinement":
        alpha = math.sqrt(2.0 * system["mass"] * system["c"])
        return x_max / math.sqrt(alpha)
    return math.sqrt(2.0 * STATE_Z_MAX / system["b_slope"])


def _tail_radius(system: dict) -> float:
    """Radius at which the envelope's exponent reaches -NORM_EXPONENT."""
    e = NORM_EXPONENT
    if system["name"] == "oscillator":  # (r - 1)^2 / (2 coupling)
        return 1.0 + math.sqrt(2.0 * system["coupling"] * e)
    if system["name"] == "confinement":  # alpha r^2 / 2 + beta_F r
        alpha = math.sqrt(2.0 * system["mass"] * system["c"])
        beta_f = system["b"] * math.sqrt(system["mass"] / (2.0 * system["c"]))
        return (math.sqrt(beta_f * beta_f + 2.0 * alpha * e) - beta_f) / alpha
    b = system["b_slope"]  # b (r + 2 mass / b)^2 / 4
    return math.sqrt(4.0 * e / b) - 2.0 * system["mass"] / b


def _draw_system(rng, name: str, l: int, u: float) -> dict:
    """A system with angular momentum ``l`` whose |eps x/2| at the end of
    its radial grid sits at ``u`` in [0, 1) of its range (the cost of the
    series grows with it)."""
    if name == "oscillator":  # eps = sqrt(2 / coupling), x_max = 3
        return {"name": name, "l": l, "coupling": 0.5 + 3.5 * u}
    target = 0.15 + 2.85 * u  # |eps x_max / 2|
    if name == "confinement":  # eps = -2 beta_F / sqrt(alpha_F), x_max = 3
        c, mass = rng.uniform(0.2, 1.5), rng.uniform(0.5, 2.0)
        alpha = math.sqrt(2.0 * mass * c)
        b = target * math.sqrt(alpha) / (3.0 * math.sqrt(mass / (2.0 * c)))
        return {"name": name, "l": l, "a": rng.uniform(0.2, 2.0), "b": b, "c": c, "mass": mass}
    b_slope = rng.uniform(0.5, 2.0)  # eps = -2 mass, x_max = r_max
    system = {"name": name, "l": l, "mass": 0.0, "b_slope": b_slope}
    system["mass"] = target / _state_rmax(system)
    return system


README_SYSTEMS = (
    {"name": "oscillator", "l": 0, "coupling": 2.0},
    {"name": "confinement", "l": 0, "a": 1.0, "b": 0.2, "c": 0.5, "mass": 1.0},
    {"name": "qqbar", "l": 0, "mass": 0.3, "b_slope": 1.0},
)


def states(seed: int) -> list[dict]:
    """STATE_SYSTEMS systems of each of the three kinds, one per (l, beta0)
    in {0, 1, 2}^2, with the parameter that sets eps Latin-hypercube
    drawn over its range; each system contributes the ladder (i, beta) =
    (0, beta0), (1, beta0), every state sampled on STATE_POINTS radii up to
    |z| = STATE_Z_MAX and normalized on NORM_POINTS radii up to its tail
    radius.  Seed 0 starts each kind with the README's system at beta0 = 0."""
    rng = _rng("states", seed)
    out = []
    for readme in README_SYSTEMS:
        slices = rng.sample(range(STATE_SYSTEMS), STATE_SYSTEMS)
        for k in range(STATE_SYSTEMS):
            l, beta0 = k % 3, k // 3
            if seed == 0 and k == 0:
                system = readme
            else:
                system = _draw_system(rng, readme["name"], l, (slices[k] + rng.random()) / STATE_SYSTEMS)
            r_max = _state_rmax(system)
            rs = [r_max * j / (STATE_POINTS - 1) for j in range(STATE_POINTS)]
            r_tail = _tail_radius(system)
            norm_rs = [r_tail * j / (NORM_POINTS - 1) for j in range(NORM_POINTS)]
            for i in (0, 1):
                out.append({"system": system, "i": i, "beta": beta0, "r_max": r_max, "rs": rs,
                            "r_tail": r_tail, "norm_rs": norm_rs})
    return out


def _fmt(v: float) -> str:
    return repr(float(v))


def cli_commands(seed: int) -> list[dict]:
    """The README's five subcommands.  Seed 0 uses the README's values;
    other seeds move each value by up to 10% (same signs, integer
    quantum numbers kept), so each command keeps its cost."""
    rng = _rng("cli-session", seed)
    ev = README_FIRST
    ev_stop = 1.0
    osc = dict(README_SYSTEMS[0])
    sp_sys = dict(README_SYSTEMS[seed % 3])
    state = (0, 2)
    asym = (-2.0, 3.0)
    if seed:
        ev = tuple(_near(rng, v) for v in ev)
        osc["coupling"] = _near(rng, osc["coupling"])
        for key in ("coupling", "a", "b", "c", "mass", "b_slope"):
            if key in sp_sys:
                sp_sys[key] = _near(rng, sp_sys[key])
        asym = (_near(rng, asym[0]), _near(rng, asym[1]))
    mu, eps, nu, omega_cap, omega = ev
    wf_stop = _state_rmax(osc)
    return [
        {"name": "eval", "params": ev, "xs": (0.0, ev_stop, 201),
         "argv": ["eval", "--mu", _fmt(mu), "--epsilon", _fmt(eps), "--nu", _fmt(nu),
                  "--omega-cap", _fmt(omega_cap), "--omega", _fmt(omega),
                  "--x-start", "0", "--x-stop", _fmt(ev_stop), "--x-count", "201"]},
        {"name": "spectrum", "system": sp_sys, "i_max": 1, "beta_max": 4,
         "argv": ["spectrum"] + _system_argv(sp_sys) + ["--i-max", "1", "--beta-max", "4"]},
        {"name": "wavefunction", "system": osc, "state": state, "xs": (0.0, wf_stop, 61),
         "argv": ["wavefunction"] + _system_argv(osc) + [
             "--state-i", str(state[0]), "--state-beta", str(state[1]),
             "--x-start", "0", "--x-stop", _fmt(wf_stop), "--x-count", "61"]},
        {"name": "verify", "argv": ["verify"]},
        {"name": "asymptote", "mu": asym[0], "xs": (0.0, asym[1], 7),
         "argv": ["asymptote", "--regime", "small-eps", "--mu", _fmt(asym[0]),
                  "--x-start", "0", "--x-stop", _fmt(asym[1]), "--x-count", "7"]},
    ]


def _system_argv(system: dict) -> list[str]:
    argv = ["--system", system["name"], "--l", str(system["l"])]
    if system["name"] == "oscillator":
        return argv + ["--coupling", _fmt(system["coupling"])]
    if system["name"] == "confinement":
        return argv + ["--pot-a", _fmt(system["a"]), "--pot-b", _fmt(system["b"]),
                       "--pot-c", _fmt(system["c"]), "--mass", _fmt(system["mass"])]
    return argv + ["--mass", _fmt(system["mass"]), "--b-slope", _fmt(system["b_slope"])]


def cli_grid(start: float, stop: float, count: int) -> list[float]:
    """The x grid gch's CLI builds from --x-start/--x-stop/--x-count."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def generate(workload: str, seed: int):
    if workload == "eval-grid":
        return eval_grid(seed)
    if workload == "verify-sweep":
        return verify_rows(verify_grid(seed))
    if workload == "states":
        return states(seed)
    if workload == "cli-session":
        return cli_commands(seed)
    raise ValueError(f"unknown workload {workload!r}")
