"""Test problems.

* :mod:`repro.problems.gaussian_pulse` -- the paper's radiation test
  problem: diffusion of a 2-D Gaussian pulse, no hydrodynamics, with a
  closed-form solution in the linear (constant-D) limit.
* :mod:`repro.problems.sedov_blast` -- a point-energy blast wave
  (hydro-only workload, the kind V2D's supernova target implies).
* :mod:`repro.problems.radiative_shock` -- a coupled hydro + radiation
  configuration exercising matter coupling.
* :mod:`repro.problems.registry` -- :data:`PROBLEMS` and
  :func:`get_problem`, the problems by name.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".base": ("Problem", "ProblemState"),
    ".gaussian_pulse": ("GaussianPulseProblem",),
    ".radiative_shock": ("RadiativeShockProblem",),
    ".sedov_blast": ("SedovBlastProblem",),
    ".registry": ("PROBLEMS", "get_problem"),
})

__all__ = [
    "Problem",
    "ProblemState",
    "PROBLEMS",
    "get_problem",
    "GaussianPulseProblem",
    "SedovBlastProblem",
    "RadiativeShockProblem",
]
