"""repro: a reproduction of the V2D / SVE performance study (CLUSTER 2022).

A Python re-implementation of the system behind *"Performance of an
Astrophysical Radiation Hydrodynamics Code under Scalable Vector
Extension Optimization"*: the V2D radiation-hydrodynamics code (2-D
multigroup flux-limited diffusion with a matrix-free, SPAI-
preconditioned, ganged-reduction BiCGSTAB solver and NPRX1 x NPRX2
domain decomposition), its five Table-II linear-algebra kernels under
interchangeable scalar / vectorized execution backends (the SVE
substitute), a software performance-monitoring stack (perf/PAPI/TAU
substitutes), and an analytic A64FX + Ookami machine model that
regenerates the paper's Table I and Table II.

Quick start::

    from repro import GaussianPulseProblem, V2DConfig, Simulation

    config = V2DConfig(nx1=64, nx2=32, nsteps=10)
    sim = Simulation(config, GaussianPulseProblem())
    report = sim.run()
    print(report.summary())

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the paper-vs-measured record of every table and figure.
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports

# Names resolve on first use (PEP 562): ``import repro`` loads no NumPy,
# and ``python -m repro`` pays only for what the chosen verb imports.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".backend": (
        "Backend", "ScalarBackend", "VectorBackend", "JitBackend", "numba_available",
        "get_backend", "use_backend", "set_default_backend", "available_backends",
    ),
    ".grid": ("Mesh2D", "Field", "Tile", "TileDecomposition"),
    ".kernels": ("KernelSuite", "KernelDriver"),
    ".monitor": ("Counters", "Profiler", "perf_stat"),
    ".parallel": ("Communicator", "CartComm", "HaloExchanger", "run_spmd"),
    ".problems": ("GaussianPulseProblem",),
    ".v2d": ("Simulation", "V2DConfig"),
})

__all__ = [
    "__version__",
    "Backend",
    "ScalarBackend",
    "VectorBackend",
    "JitBackend",
    "numba_available",
    "get_backend",
    "use_backend",
    "set_default_backend",
    "available_backends",
    "Mesh2D",
    "Field",
    "Tile",
    "TileDecomposition",
    "KernelSuite",
    "KernelDriver",
    "Counters",
    "Profiler",
    "perf_stat",
    "Communicator",
    "CartComm",
    "HaloExchanger",
    "run_spmd",
    "GaussianPulseProblem",
    "Simulation",
    "V2DConfig",
]
