"""Canonical reproducible experiment configurations.

Each preset is a complete config document (same schema as a config file),
built from one base problem: zero driver, zero boundary and clock, a
standard normal terminal sampled directly and the obstacle 0.25 sin(pi t).
A preset states only the sections that set it apart. SINE is the drift-free
case with a known running-maximum solution; AFFINE couples the driver to the
solution mean; BOUNDARY exercises the monotone clock coefficient; ZDRIFT
couples the driver to the mean of the martingale integrand.
"""

from __future__ import annotations

import copy
import math

_COMMON_NUMERICS = {"M": 20000, "N": 100, "basis": "brownian", "degree": 2, "quad_points": 64}
_COMMON_SCHEDULE = {
    "n_levels": [25, 50, 100, 200, 400, 800],
    "k_levels": [10, 20, 40],
    "deficit_tol": 0.02,
    "cauchy_tol": 0.004,
}
_BASE_PROBLEM = {
    "driver": {"family": "zero", "lipschitz_L_f": 0.0},
    "boundary": {"family": "zero", "beta": -1.0, "growth_L_g": 1.0, "psi": 0.0},
    "terminal": {"mode": "direct-sampler", "mean": 0.0, "std": 1.0, "declared_mean": 0.0},
    "obstacle": {"family": "sine", "amplitude": 0.25, "omega": math.pi},
    "kappa": {"family": "zero"},
    "brownian_dim": 1,
    "horizon": 1.0,
}


def _doc(name: str, **sections: dict) -> dict:
    """A preset's config document: the base problem with ``sections`` replaced."""
    return {
        "problem": copy.deepcopy({**_BASE_PROBLEM, **sections}),
        "numerics": copy.deepcopy(_COMMON_NUMERICS),
        "schedule": copy.deepcopy(_COMMON_SCHEDULE),
        "seed": 7,
        "threads": 0,
        "output": f"runs/{name}",
    }


PRESETS: dict[str, dict] = {
    "SINE": _doc("sine", obstacle={"family": "sine", "amplitude": 0.5, "omega": math.pi}),
    "AFFINE": _doc(
        "affine",
        driver={"family": "affine", "coefficients": {"mean_y": 0.5}, "lipschitz_L_f": 0.5},
    ),
    "BOUNDARY": _doc(
        "boundary",
        boundary={"family": "linear-monotone", "beta": -1.0, "growth_L_g": 1.0, "psi": 0.0},
        kappa={"family": "linear", "rate": 1.0},
    ),
    "ZDRIFT": _doc(
        "zdrift",
        driver={"family": "affine", "coefficients": {"mean_z": 0.5}, "lipschitz_L_f": 0.5},
    ),
}


def preset_config(name: str) -> dict:
    """Deep copy of a preset config document."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
