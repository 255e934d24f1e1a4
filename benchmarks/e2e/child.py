"""Child-process side of the e2e benchmark: everything that imports NumPy.

Invoked by ``run.py`` as ``python child.py '<json spec>'`` with the
thread-pinning environment already set; prints one JSON object as the
last line of stdout.  Two modes:

* ``run``   -- one repeat of a workload: a deterministic sequence of
  timed units, one per ``Simulation.step()``.  The 2-rank workload runs
  the same loop as the rank body of one ``run_spmd`` call, which is what
  ``run_parallel`` does with ``Simulation.run()`` in its place; the
  launch, the ranks' set-up and the teardown are one more unit.
* ``micro`` -- workload-independent layer microbenchmarks (kernels,
  parallel launch/halo/all-reduce, checkpoint I/O).
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import resource
import sys
import tempfile
import time

import numpy as np

from repro.grid.field import Field
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.kernels.driver import KernelDriver
from repro.monitor.counters import Counters
from repro.parallel.cart import CartComm
from repro.parallel.halo import BoundaryCondition, HaloExchanger
from repro.parallel.runtime import run_spmd
from repro.problems import GaussianPulseProblem
from repro.v2d import Simulation, V2DConfig

from spans import Recorder

#: Installed (traced repeats only) before any rank is forked, so the
#: forked ranks inherit the rebound names and fill their own copy.
RECORDER = Recorder()


def build_config(cfg: dict, profile: bool) -> V2DConfig:
    """Field for field what ``repro run`` builds from the same flags,
    except ``profile`` when the profiler-overhead repeat turns it off."""
    return V2DConfig(
        nx1=cfg["nx1"], nx2=cfg["nx2"], nsteps=cfg["nsteps"], dt=cfg["dt"],
        nprx1=cfg["nprx1"], nprx2=cfg["nprx2"],
        backend="vector", precond=cfg["precond"],
        ganged=True, fused=True,
        solver_tol=cfg["tol"],
        checkpoint_path=None, checkpoint_interval=0,
        resilience=None, trace=False,
        transport=cfg["transport"],
        profile=profile,
    )


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def simulate(comm, spec: dict) -> dict:
    """Build the simulation and step it to the end, one timed unit per
    step.  ``comm`` is ``None`` on one rank; on two this is the rank
    body and everything returned rides the result pipe."""
    cfg = build_config(spec["cfg"], spec["profile"])
    cart = None if comm is None else CartComm.create(
        comm, nx1=cfg.nx1, nx2=cfg.nx2, nprx1=cfg.nprx1, nprx2=cfg.nprx2)
    t0 = time.perf_counter()
    sim = Simulation(cfg, GaussianPulseProblem(**spec["pulse"]), cart=cart)
    sim_init = time.perf_counter() - t0

    save_step, save_path = spec.get("save_field") or (0, None)
    cmp_step, cmp_path = spec.get("compare_field") or (0, None)
    wall, cpu, field_diff = [], [], None
    gc.collect()
    for step in range(1, cfg.nsteps + 1):
        c0, w0 = time.process_time(), time.perf_counter()
        sim.step()
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
        if step == save_step:
            np.save(save_path, sim.integrator.E.interior)
        if step == cmp_step:
            field_diff = rel_l2(sim.integrator.E.interior, np.load(cmp_path))

    counters = Counters()
    counters.merge(sim.counters)
    if sim.comm is not None:
        counters.merge(sim.comm.counters)
    steps = sim.step_reports
    return {
        "wall": wall, "cpu": cpu, "sim_init_s": sim_init, "field_diff": field_diff,
        # A step is a good op when its three solves converged and the
        # field it left is finite (the energy is a sum over the field).
        "step_ok": [bool(s.converged and np.isfinite(s.total_energy)) for s in steps],
        "iterations": [sv.iterations for s in steps for sv in s.solves],
        "unconverged": sum(not sv.converged for s in steps for sv in s.solves),
        "energies": [s.total_energy for s in steps],
        "l2_error": sim.solution_error(),
        "counters": counters.snapshot(),
        "spans": RECORDER.spans,
    }


def cpu_with_children() -> float:
    """User + system seconds of this process and its waited-for ranks."""
    return sum(r.ru_utime + r.ru_stime for r in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def run_repeat(spec: dict) -> dict:
    cfg = build_config(spec["cfg"], spec["profile"])
    if spec["traced"]:
        RECORDER.install()

    if cfg.nranks == 1:
        out = simulate(None, spec)
        ranks = [out.pop("spans")]
    else:
        gc.collect()
        c0, w0 = cpu_with_children(), time.perf_counter()
        per_rank = run_spmd(cfg.nranks, simulate, spec, timeout=100.0,
                            transport=cfg.transport)
        wall, cpu = time.perf_counter() - w0, cpu_with_children() - c0
        # Global diagnostics are the same on every rank; a step takes
        # as long as its slowest rank and costs the CPU of all of them.
        out = per_rank[0]
        counters = Counters()
        for r in per_rank:
            counters.merge_snapshot(r["counters"])
        out["counters"] = counters.snapshot()
        out["sim_init_s"] = max(r["sim_init_s"] for r in per_rank)
        ranks = [r.pop("spans") for r in per_rank]
        steps_wall = [max(ws) for ws in zip(*(r["wall"] for r in per_rank))]
        steps_cpu = [sum(cs) for cs in zip(*(r["cpu"] for r in per_rank))]
        # What the call costs beyond its steps: fork, ring set-up, the
        # ranks' Simulation construction, result pipes, teardown.
        out.update(wall=[wall - sum(steps_wall)] + steps_wall,
                   cpu=[cpu - sum(steps_cpu)] + steps_cpu)

    if spec["traced"]:
        with open(spec["spans_path"], "w") as fh:
            json.dump({"workload": spec["workload"], "repeat": spec["repeat"],
                       "columns": ["name", "start_s", "end_s", "parent"],
                       "ranks": ranks}, fh)
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out["maxrss_mb"] = rss_kb / 1024.0
    return out


# ---------------------------------------------------------------------------
# Layer microbenchmarks
# ---------------------------------------------------------------------------
def best_of(n: int, fn) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def noop_rank(comm) -> None:
    return None


def comm_rank(comm, nx1: int, nx2: int, reps: int) -> tuple[float, float]:
    """Seconds per ``HaloExchanger.exchange`` of a tile-sized field and
    per ``allreduce_batch``, each the best of 5 batches of ``reps``."""
    cart = CartComm.create(comm, nx1=nx1, nx2=nx2, nprx1=comm.size, nprx2=1)
    fld = Field(2, cart.tile.shape, nghost=1)
    halo = HaloExchanger(cart, BoundaryCondition.DIRICHLET0)

    def exchanges() -> None:
        for _ in range(reps):
            halo.exchange(fld)

    def reductions() -> None:
        for _ in range(reps):
            comm.allreduce_batch([1.0, 2.0, 3.0])

    return best_of(5, exchanges) / reps, best_of(5, reductions) / reps


def run_micro(spec: dict) -> dict:
    nx1, nx2 = spec["nx1"], spec["nx2"]
    n = nx1 * nx2 * 2
    out: dict[str, float] = {}

    reps = 20
    driver = KernelDriver(n=n, reps=reps, band_offset=nx1)
    runs = [driver.run("vector").wall_seconds for _ in range(7)]
    for name in runs[0]:
        out[f"kernels.{name}_us"] = min(r[name] for r in runs) / reps * 1e6

    out["parallel.launch_ms"] = 1e3 * best_of(
        3, lambda: run_spmd(2, noop_rank, timeout=60.0, transport="mp"))
    per_rank = run_spmd(2, comm_rank, nx1, nx2, 200, timeout=60.0, transport="mp")
    out["parallel.halo_exchange_us"] = 1e6 * max(r[0] for r in per_rank)
    out["parallel.allreduce_us"] = 1e6 * max(r[1] for r in per_rank)

    rng = np.random.default_rng(0)
    E = rng.random((2, nx1, nx2))
    ones = np.ones((nx1, nx2))
    with tempfile.TemporaryDirectory(dir=spec["workdir"]) as tmp:
        path = os.path.join(tmp, "ck.npz")
        out["io.checkpoint_write_ms"] = 1e3 * best_of(
            5, lambda: save_checkpoint(path, E, ones, ones, time=0.0, step=1))
        out["io.checkpoint_bytes"] = os.path.getsize(path)
        out["io.checkpoint_read_ms"] = 1e3 * best_of(5, lambda: load_checkpoint(path))
        if not np.array_equal(load_checkpoint(path).E, E):
            raise SystemExit("checkpoint round trip changed the field")
    return out


def environment() -> dict:
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "PYTHONHASHSEED")},
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = run_micro(spec) if spec["mode"] == "micro" else run_repeat(spec)
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
