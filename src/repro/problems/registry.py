"""Problems addressable by name (campaign specs, job submissions).

Importing this module imports every problem, the hydro-coupled ones
included, so only code that looks a problem up by name imports it.
"""

from __future__ import annotations

from repro.problems.base import Problem
from repro.problems.gaussian_pulse import GaussianPulseProblem
from repro.problems.radiative_shock import RadiativeShockProblem
from repro.problems.sedov_blast import SedovBlastProblem

#: Problems addressable by name (campaign specs, CLI flags).
PROBLEMS: dict[str, type[Problem]] = {
    GaussianPulseProblem.name: GaussianPulseProblem,
    SedovBlastProblem.name: SedovBlastProblem,
    RadiativeShockProblem.name: RadiativeShockProblem,
}


def get_problem(name: str) -> Problem:
    """Instantiate the named test problem.

    Accepts both the canonical hyphenated names (``gaussian-pulse``)
    and underscore spellings (``gaussian_pulse``).
    """
    key = name.replace("_", "-")
    try:
        return PROBLEMS[key]()
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {sorted(PROBLEMS)}"
        ) from None
