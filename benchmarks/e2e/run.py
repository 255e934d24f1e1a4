#!/usr/bin/env python3
"""The ``e2e`` benchmark: four paper-sized workloads, timed end to end
and layer by layer.  See README.md beside this file for the glossary.

    python benchmarks/e2e/run.py                      # everything, ~4 min
    python benchmarks/e2e/run.py --workload stiff_jacobi --seed 3 \
        --seconds 28 --trace 0                        # the driver's contract
    python benchmarks/e2e/run.py --aa                 # same code twice
    python benchmarks/e2e/run.py --selftest           # small grid, all names

This orchestrator is stdlib-only and never imports NumPy: every repeat
runs in its own child process (``child.py``), one child at a time, with
BLAS pinned to one thread.  A gated timing is the sum over units of the
minimum over repeats of that unit's time (``floor_sum``): on a shared
VM whose CPU speed comes in bursts the noise is one-sided and the unit
work is identical across repeats, so the per-unit floor is what the
code costs and everything above it is the machine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans as S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

CHILD_TIMEOUT_S = 120.0
#: ``--workload`` is how the driver calls, and it allows 180 s a call.
CONTRACT_CAP_S = 170.0
MIN_REPEATS, MAX_REPEATS = 5, 24
FULL_GRID = (200, 100)
TOL = 1e-8

#: name -> run flags.  Every workload is 200x100 zones x 2 species on
#: the vector backend at tol 1e-8; see README.md for why these four.
#: A repeat steps for 1.2-1.5 s: on this class of machine the number of
#: samples per unit, not the length of a repeat, is what steadies the
#: floor, and slow phases of 5-15 s must leave several repeats untouched.
WORKLOADS = {
    "paper_spai": {"dt": 5e-4, "precond": "spai", "nsteps": 8, "nprx1": 1,
                   # its output is checked against the analytic Gaussian
                   "l2_max": 2e-2},
    "stiff_jacobi": {"dt": 0.5, "precond": "jacobi", "nsteps": 6, "nprx1": 1},
    "stiff_spai": {"dt": 0.5, "precond": "spai", "nsteps": 4, "nprx1": 1},
    "stiff_jacobi_mp2x1": {"dt": 0.5, "precond": "jacobi", "nsteps": 6, "nprx1": 2},
}
SERIAL, MP = "stiff_jacobi", "stiff_jacobi_mp2x1"
#: The reference run each stiff workload's output is checked against:
#: the other preconditioner or the other transport on the same systems.
REFERENCE = {
    "stiff_jacobi": {"precond": "spai"},
    "stiff_spai": {"precond": "jacobi"},
    MP: {"nprx1": 1},
}
#: Step at which the two preconditioners' fields are compared
#: (``stiff_spai``'s last).
ORACLE_STEP = 4

CHILD_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    PYTHONHASHSEED="0",
    PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
    # Bytecode is cached, as it is for a user, whatever the caller's
    # environment says (compiling ``repro`` afresh is a quarter of a
    # cold start) -- in one ignored directory rather than all over src/.
    PYTHONPYCACHEPREFIX=str(ROOT / ".e2e-pycache"),
)
for _var in ("PYTHONDONTWRITEBYTECODE", "REPRO_TRANSPORT", "REPRO_FLIGHT_DIR",
             "REPRO_TELEMETRY"):
    CHILD_ENV.pop(_var, None)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def pulse_for(seed: int) -> dict:
    """Gaussian-pulse parameters for ``seed``; 0 is the paper's pulse.

    Other seeds move the pulse 0.05-0.10 off centre per axis and jitter
    the species ratio and the pulse age.  The offset band is deliberate:
    the centred pulse is symmetric and converges in ~20 % fewer BiCGSTAB
    iterations, and offsets below 0.05 land in between, which would make
    the work itself -- not the machine -- differ by seed.
    """
    if seed == 0:
        return {}
    rng = random.Random(seed)

    def offset() -> float:
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.10)

    return {
        "center": [0.5 + offset(), 0.5 + offset()],
        "amplitude_ratio": rng.uniform(0.4, 0.6),
        "t0": rng.uniform(0.009, 0.011),
    }


def child_cfg(flags: dict, nx: tuple[int, int], nsteps: int) -> dict:
    return {
        "nx1": nx[0], "nx2": nx[1], "nsteps": nsteps, "dt": flags["dt"],
        "precond": flags["precond"], "tol": TOL,
        "nprx1": flags["nprx1"], "nprx2": 1,
        "transport": "mp" if flags["nprx1"] > 1 else "threads",
    }


def cli_flags(cfg: dict) -> list[str]:
    """The ``repro run`` command line that builds the same config."""
    argv = ["--nx1", cfg["nx1"], "--nx2", cfg["nx2"], "--nsteps", cfg["nsteps"],
            "--dt", cfg["dt"], "--precond", cfg["precond"], "--tol", cfg["tol"]]
    if cfg["nprx1"] > 1:
        argv += ["--transport", "mp", "--nprx1", cfg["nprx1"], "--nprx2", cfg["nprx2"]]
    return [str(a) for a in argv]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
class Launcher:
    """Runs children one at a time; past ``deadline`` none is started."""

    def __init__(self, deadline: float | None = None) -> None:
        self.deadline = deadline

    def launch(self, argv: list[str]) -> tuple[bool, str, float]:
        """Run one child to completion: ``(ok, stdout, wall seconds)``.

        The child leads its own process group so a timeout also takes
        the forked mp ranks down; we always wait for it to end.
        """
        budget = CHILD_TIMEOUT_S
        if self.deadline is not None:
            budget = min(budget, self.deadline - time.monotonic())
        if budget <= 0:
            return False, "", 0.0
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=CHILD_ENV, text=True, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"\n[e2e] killed after {budget:.0f} s"
        wall = time.perf_counter() - t0
        ok = proc.returncode == 0
        if not ok:
            print(f"[e2e] child failed ({proc.returncode}): {' '.join(argv)[:200]}\n"
                  f"{err[-2000:]}", file=sys.stderr)
        return ok, out, wall

    def child(self, spec: dict) -> dict | None:
        ok, out, _ = self.launch([sys.executable, str(HERE / "child.py"), json.dumps(spec)])
        if not ok or not out.strip():
            return None
        return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------
def floor_sum(repeats: list[list[float]]) -> float:
    """Sum over units of the minimum over repeats of that unit."""
    return sum(min(unit) for unit in zip(*repeats, strict=True))


def spread_info(values: list[float]) -> dict:
    """Median, IQR and count of whole-repeat sums: information only."""
    info = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        info["iqr"] = q[2] - q[0]
    return info


# ---------------------------------------------------------------------------
# One workload's samples and what is derived from them
# ---------------------------------------------------------------------------
class Samples:
    """Everything measured for one workload in one pass."""

    def __init__(self, name: str, nx: tuple[int, int], nsteps: int,
                 launcher: Launcher, workdir: Path, pulse: dict) -> None:
        self.name = name
        self.flags = WORKLOADS[name]
        self.nx = nx
        self.nsteps = nsteps
        self.cfg = child_cfg(self.flags, nx, nsteps)
        self.launcher = launcher
        self.workdir = workdir
        self.pulse = pulse
        #: kind ("timed" | "traced" | "noprofile") -> child results.
        self.runs: dict[str, list[dict]] = {"timed": [], "traced": [], "noprofile": []}
        self.span_files: list[Path] = []
        self.setups: list[float] = []
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def serial(self) -> bool:
        return self.flags["nprx1"] == 1

    @property
    def oracle_step(self) -> int:
        return min(ORACLE_STEP, self.nsteps)

    @property
    def field_path(self) -> str:
        return str(self.workdir / f"field.{self.name}.npy")

    # -- collecting ---------------------------------------------------------
    def repeat(self, kind: str) -> None:
        index = len(self.runs[kind])
        spans_path = self.workdir / f"spans.{self.name}.r{index}.json"
        spec = {
            "mode": "run", "workload": self.name, "repeat": index,
            "cfg": self.cfg, "pulse": self.pulse,
            "profile": kind != "noprofile", "traced": kind == "traced",
            "spans_path": str(spans_path),
        }
        if kind == "timed" and index == 0 and self.serial:
            spec["save_field"] = [self.oracle_step, self.field_path]
        self.attempted += self.nsteps
        res = self.launcher.child(spec)
        if res is None:
            self.failed += self.nsteps
            self.problems.append(f"{kind} repeat {index}: child crashed or timed out")
            return
        bad = res["step_ok"].count(False) + (self.nsteps - len(res["step_ok"]))
        if bad:
            self.failed += bad
            self.problems.append(f"{kind} repeat {index}: {bad} step(s) failed")
        self.runs[kind].append(res)
        if kind == "traced":
            self.span_files.append(spans_path)

    def setup_launch(self, record: bool = True) -> None:
        """A cold ``python -m repro run <flags> --nsteps 0``."""
        argv = [sys.executable, "-m", "repro", "run"] + cli_flags({**self.cfg, "nsteps": 0})
        ok, _, wall = self.launcher.launch(argv)
        if not record:
            return
        self.attempted += 1
        if ok:
            self.setups.append(wall)
        else:
            self.failed += 1
            self.problems.append("set-up launch failed")

    def run_reference(self) -> None:
        ref = REFERENCE.get(self.name)
        if ref is None:
            return
        steps = self.oracle_step if self.serial else self.nsteps
        spec = {
            "mode": "run", "workload": self.name + ".reference", "repeat": 0,
            "cfg": child_cfg({**self.flags, **ref}, self.nx, steps), "pulse": self.pulse,
            "profile": True, "traced": False,
        }
        if self.serial:
            spec["compare_field"] = [steps, self.field_path]
        self.reference = self.launcher.child(spec)

    # -- checking -----------------------------------------------------------
    def check(self) -> None:
        """Output correctness; appends to ``problems``."""
        timed = self.runs["timed"]
        if not timed:
            self.problems.append("no successful timed repeat")
            return
        for kind, runs in self.runs.items():
            for key in ("iterations", "counters"):
                if any(r[key] != runs[0][key] for r in runs[1:]):
                    self.problems.append(f"{kind}: {key} differ between repeats")
            if any(r["unconverged"] for r in runs):
                self.problems.append(f"{kind}: unconverged solves")
        first = timed[0]
        l2_max = self.flags.get("l2_max")
        if l2_max is not None and not first["l2_error"] <= l2_max:
            self.problems.append(
                f"L2 error vs analytic Gaussian {first['l2_error']:.3e} > {l2_max}")
        if self.name not in REFERENCE:
            return
        ref = self.reference
        if ref is None:
            self.problems.append("reference run failed")
        elif self.serial:
            if not ref["field_diff"] <= 1e-6:
                self.problems.append(
                    f"field differs from the other preconditioner's by "
                    f"{ref['field_diff']:.3e} (relative L2) at step {self.oracle_step}")
        else:
            for what, mine, theirs in (
                    ("total energy", first["energies"][-1], ref["energies"][-1]),
                    ("L2 error", first["l2_error"], ref["l2_error"])):
                if not abs(mine - theirs) <= 1e-6 * abs(theirs):
                    self.problems.append(f"{what} {mine!r} differs from serial {theirs!r}")

    # -- deriving -----------------------------------------------------------
    def floor(self, kind: str, key: str) -> float:
        return floor_sum([r[key] for r in self.runs[kind]])

    def end_to_end(self) -> dict[str, float]:
        wall = self.floor("timed", "wall")
        return {
            "wall_s": wall,
            "zone_steps_per_s": self.nx[0] * self.nx[1] * 2 * self.nsteps / wall,
            "cpu_s": self.floor("timed", "cpu"),
            "setup_s": min(self.setups),
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in self.runs["timed"]),
        }

    def end_to_end_info(self) -> dict[str, dict]:
        timed = self.runs["timed"]
        return {
            "wall_s": spread_info([sum(r["wall"]) for r in timed]),
            "cpu_s": spread_info([sum(r["cpu"]) for r in timed]),
            "setup_s": spread_info(self.setups),
            "peak_rss_mb": spread_info([r["maxrss_mb"] for r in timed]),
        }

    def best_trace(self) -> list[dict]:
        """Span summary, per rank, of the traced repeat with the least
        total time (one coherent breakdown rather than a mix of repeats)."""
        traced = self.runs["traced"]
        k = min(range(len(traced)), key=lambda i: sum(traced[i]["wall"]))
        with open(self.span_files[k]) as fh:
            return [S.summarize(rank) for rank in json.load(fh)["ranks"]]

    def per_layer(self, summaries: list[dict], shared: dict[str, float],
                  efficiency: float) -> dict[str, float]:
        timed = self.runs["timed"]
        first = timed[0]
        n = self.nsteps

        def per_step(span: str, key: str) -> float:
            """Max over ranks, averaged over steps."""
            return max(s.get(span, {}).get(key, 0.0) for s in summaries) / n

        # The last n units are the steps (mp has the launch before them).
        steps_ms = sorted(1e3 * w for r in timed for w in r["wall"][-n:])
        c = first["counters"]
        nbytes = c["bytes_loaded"] + c["bytes_stored"]
        wall, cpu = self.floor("timed", "wall"), self.floor("timed", "cpu")
        out = dict(shared)
        out.update({
            "v2d.sim_init_ms": 1e3 * min(r["sim_init_s"] for r in timed),
            "v2d.step_self_ms": 1e3 * per_step(S.STEP, "self"),
            "v2d.step_ms_p50": statistics.median(steps_ms),
            "v2d.step_ms_p95": steps_ms[min(len(steps_ms) - 1, int(0.95 * len(steps_ms)))],
            "v2d.step_samples": len(steps_ms),
            "v2d.l2_error": first["l2_error"],
            "v2d.total_energy": first["energies"][-1],
            "transport.build_system_ms": 1e3 * per_step(S.BUILD, "total"),
            "transport.build_system_calls": per_step(S.BUILD, "calls"),
            "linalg.precond_setup_ms": 1e3 * per_step(S.PRECOND_SETUP, "total"),
            "linalg.precond_setup_calls": per_step(S.PRECOND_SETUP, "calls"),
            "linalg.bicgstab_self_ms": 1e3 * per_step(S.BICGSTAB, "self"),
            "linalg.matvec_ms": 1e3 * per_step(S.MATVEC, "total"),
            "linalg.matvec_calls": per_step(S.MATVEC, "calls"),
            "linalg.precond_apply_ms": 1e3 * per_step(S.PRECOND_APPLY, "total"),
            "linalg.precond_apply_calls": per_step(S.PRECOND_APPLY, "calls"),
            "linalg.bicgstab_iterations": sum(first["iterations"]),
            "linalg.iterations_per_solve": sum(first["iterations"]) / len(first["iterations"]),
            "linalg.unconverged_solves": first["unconverged"],
            "kernels.calls_per_step": c["kernel_calls"] / n,
            "kernels.fused_ops_per_step": c["fused_ops"] / n,
            "kernels.flops_per_step": c["flops"] / n,
            "kernels.bytes_per_step": nbytes / n,
            "kernels.flops_per_byte": c["flops"] / nbytes,
            "backend.achieved_gflops": c["flops"] / wall / 1e9,
            "parallel.halo_ms": 1e3 * per_step(S.HALO, "total"),
            "parallel.messages_per_step": c["messages_sent"] / n,
            "parallel.bytes_per_step": c["bytes_sent"] / n,
            "parallel.reductions_per_step": c["reductions"] / n,
            "parallel.halo_exchanges_per_step": c["halo_exchanges"] / n,
            "parallel.spin_cpu_ratio": cpu / wall,
            "parallel.efficiency_2x1": efficiency,
            "monitor.profile_overhead_frac": wall / self.floor("noprofile", "wall") - 1.0,
            "monitor.trace_overhead_frac": self.floor("traced", "wall") / wall - 1.0,
        })
        return out


# ---------------------------------------------------------------------------
# A pass: round-robin repeats of several workloads inside a time budget
# ---------------------------------------------------------------------------
def shared_layer_metrics(launcher: Launcher, nx: tuple[int, int],
                         workdir: Path) -> dict[str, float] | None:
    """Workload-independent per-layer numbers (trace pass only)."""
    out = launcher.child({"mode": "micro", "nx1": nx[0], "nx2": nx[1],
                          "workdir": str(workdir)})
    if out is None:
        return None
    out.pop("env")
    count_repro = ("import repro.__main__, sys; "
                   "print(sum(m.split('.')[0] == 'repro' for m in sys.modules))")
    walls: dict[str, list[float]] = {count_repro: [], "import numpy": []}
    printed = {}
    for _ in range(3):
        for code, samples in walls.items():
            ok, printed[code], wall = launcher.launch([sys.executable, "-c", code])
            if not ok:
                return None
            samples.append(wall)
    out["main.import_ms"] = 1e3 * (min(walls[count_repro]) - min(walls["import numpy"]))
    out["main.repro_modules_imported"] = int(printed[count_repro])
    return out


def measure(names: list[str], seed: int, seconds: float, trace: bool, workdir: Path,
            launcher: Launcher, nx: tuple[int, int] = FULL_GRID,
            max_steps: int | None = None, repeats: int | None = None,
            ) -> tuple[dict[str, Samples], dict | None]:
    """Collect one pass.  Returns the samples per workload (including, in
    a trace pass, the extra workloads ``parallel.efficiency_2x1`` needs)
    and the shared per-layer metrics (trace pass only)."""
    pulse = pulse_for(seed)

    def samples(name: str) -> Samples:
        steps = WORKLOADS[name]["nsteps"]
        return Samples(name, nx, min(steps, max_steps or steps), launcher, workdir, pulse)

    work = {name: samples(name) for name in names}
    extras = {n: samples(n) for n in (SERIAL, MP) if trace and n not in work}
    if not trace:
        # Discarded warm-up, outside the time budget: fills the bytecode
        # cache of a fresh checkout (seconds, once) and pulls the
        # interpreter and NumPy into the page cache.
        work[names[0]].setup_launch(record=False)
    start = time.monotonic()
    shared = shared_layer_metrics(launcher, nx, workdir) if trace else None

    done = 0
    while True:
        cycle_start = time.monotonic()
        for s in work.values():
            if trace:
                for kind in ("timed", "traced", "noprofile"):
                    s.repeat(kind)
            else:
                s.repeat("timed")
                s.setup_launch()
        for s in extras.values():
            s.repeat("timed")
        done += 1
        now = time.monotonic()
        projected = (now - start) + (now - cycle_start)
        if repeats is not None:
            if done >= repeats:
                break
        elif done >= MAX_REPEATS or (
                done >= (2 if trace else MIN_REPEATS)
                and projected > seconds * len(names)):
            break
    for s in work.values():
        s.run_reference()
        s.check()
    for extra in extras.values():
        for s in work.values():
            s.problems += [f"{extra.name} (for parallel.efficiency_2x1): {p}"
                           for p in extra.problems]
    work.update(extras)
    return work, shared


def efficiency_2x1(work: dict[str, Samples]) -> float:
    """Serial wall over twice the 2-rank wall, same steps, same pass."""
    return work[SERIAL].floor("timed", "wall") / (2.0 * work[MP].floor("timed", "wall"))


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def declared() -> dict[str, dict[str, dict]]:
    """Metric name -> declaration, per group, from BENCHMARK.json (the
    one place units, directions and bounds are written down)."""
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {group: {m["name"]: m for m in doc[group]}
            for group in ("end_to_end", "per_layer")}


def with_units(values: dict[str, float], decl: dict[str, dict]) -> dict[str, dict]:
    missing, extra = set(decl) - set(values), set(values) - set(decl)
    if missing or extra:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: "
                         f"missing {sorted(missing)}, undeclared {sorted(extra)}")
    return {name: {"value": values[name], "unit": decl[name]["unit"]} for name in decl}


def print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(f"\n== {title}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")


def print_layers(s: Samples, summary: dict) -> float:
    """The layer table of one rank of a traced repeat; returns coverage."""
    step = summary[S.STEP]["total"]
    rows = {k: v["self"] for k, v in summary.items()}
    unattributed = rows.pop(S.STEP)
    print(f"\n== {s.name}: self time per layer span (rank 0, traced), "
          f"{1e3 * step / s.nsteps:.2f} ms per step")
    for name, t in sorted(rows.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<34} {1e3 * t / s.nsteps:>10.3f} ms/step {100 * t / step:>6.1f} %")
    print(f"  {'unattributed':<34} {1e3 * unattributed / s.nsteps:>10.3f} ms/step "
          f"{100 * unattributed / step:>6.1f} %")
    return 1.0 - unattributed / step


def fingerprint(seed: int, work: dict[str, Samples]) -> dict:
    def git(*args: str) -> str | None:
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    status = git("status", "--porcelain")
    child_env = next((r["env"] for s in work.values() for r in s.runs["timed"]), {})
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "repeats": {n: len(s.runs["timed"]) for n, s in work.items()},
        "steps": {n: s.nsteps for n, s in work.items()},
        **child_env,
    }


def report(names: list[str], seed: int, seconds: float, trace: bool, workdir: Path,
           launcher: Launcher, **size) -> tuple[bool, int, int, dict[str, dict], dict]:
    """Measure one pass and print it: ``(correct, attempted, failed,
    metrics per workload, detail for results.json)``."""
    work, shared = measure(names, seed, seconds, trace, workdir, launcher, **size)
    decl = declared()["per_layer" if trace else "end_to_end"]
    correct, metrics, detail = True, {}, {"environment": fingerprint(seed, work)}
    print(f"\nenvironment {json.dumps(detail['environment'])}")
    for name in names:
        s = work[name]
        if trace and shared is None:
            s.problems.append("layer microbenchmarks failed")
        if not s.problems:
            if trace:
                summaries = s.best_trace()
                metrics[name] = with_units(
                    s.per_layer(summaries, shared, efficiency_2x1(work)), decl)
                coverage = print_layers(s, summaries[0])
                # A statement about paper-sized serial steps: on mp the
                # rank also waits, on the selftest grid glue weighs more.
                if s.serial and s.nx == FULL_GRID and coverage < 0.97:
                    s.problems.append(f"layer spans cover {coverage:.1%} < 97 % of a step")
            else:
                metrics[name] = with_units(s.end_to_end(), decl)
                detail[name] = {"information_only": s.end_to_end_info()}
            print_metrics(f"{name} ({len(s.runs['timed'])} repeats x {s.nsteps} steps, "
                          f"seed {seed})", metrics[name])
        for p in s.problems:
            print(f"[e2e] FAILED {name}: {p}", file=sys.stderr)
        correct = correct and not s.problems
        detail.setdefault(name, {}).update(
            metrics=metrics.get(name), problems=s.problems,
            ops_attempted=s.attempted, ops_failed=s.failed)
    attempted = sum(work[n].attempted for n in names)
    failed = sum(work[n].failed for n in names)
    print(f"\nops_attempted {attempted}  ops_failed {failed}")
    return correct and failed == 0, attempted, failed, metrics, detail


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------
def run_aa(seed: int, seconds: float, workdir: Path, launcher: Launcher) -> int:
    """The full set twice back to back; every difference against its bound."""
    names = list(WORKLOADS)
    decl = declared()["end_to_end"]
    passes = [report(names, seed, seconds, False, workdir, launcher) for _ in range(2)]
    if not all(p[0] for p in passes):
        return 1
    (a, b), worst = (p[3] for p in passes), 0.0
    print(f"\n== A/A\n  {'workload':<20} {'metric':<18} {'first':>12} {'second':>12} "
          f"{'rel diff':>9} {'bound':>6}")
    for name in names:
        for metric, d in decl.items():
            x, y = a[name][metric]["value"], b[name][metric]["value"]
            diff = abs(y - x) / x
            worst = max(worst, diff / d["bound"])
            flag = "  EXCEEDS" if diff > d["bound"] else ""
            print(f"  {name:<20} {metric:<18} {x:>12.5g} {y:>12.5g} "
                  f"{diff:>8.2%} {d['bound']:>6.2f}{flag}")
    print(f"\nworst difference is {worst:.0%} of its bound")
    return 0 if worst <= 1.0 else 1


def run_selftest(workdir: Path, launcher: Launcher) -> int:
    """Small grid, two repeats: every declared metric comes out once,
    named, finite, with unit and direction; and the estimator does what
    the README says on a synthetic bursty series."""
    failures: list[str] = []
    # The trace pass takes one serial and the 2-rank workload: between
    # them they cross every span and every code path of the pass.
    for trace, names in ((False, list(WORKLOADS)), (True, ["stiff_spai", MP])):
        correct, _, _, metrics, _ = report(
            names, 1, 0.0, trace, workdir, launcher,
            nx=(50, 25), max_steps=3, repeats=1 if trace else 2)
        if not correct:
            failures.append(f"trace={int(trace)} pass reported a failed check")
        for name, values in metrics.items():
            for metric, m in values.items():
                if not math.isfinite(m["value"]):
                    failures.append(f"{name}/{metric} is not finite")
    for group in declared().values():
        for metric, d in group.items():
            if not re.fullmatch(r"[A-Za-z0-9_.-]+", metric):
                failures.append(f"bad metric name {metric!r}")
            if not d.get("unit") or d.get("better") not in ("lower", "higher"):
                failures.append(f"{metric} lacks a unit or a direction")

    # 30 units of 100 ms; a quarter of all samples hit a +45 % burst.
    rng = random.Random(0)
    series = [[0.1 * (1.45 if rng.random() < 0.25 else 1.0) for _ in range(30)]
              for _ in range(7)]
    floor, truth = floor_sum(series), 30 * 0.1
    median_of_sums = statistics.median(sum(r) for r in series)
    print(f"\nestimator: true floor {truth:.3f}, floor_sum {floor:.3f}, "
          f"median of sums {median_of_sums:.3f}")
    if abs(floor / truth - 1.0) > 0.02:
        failures.append("floor_sum is not within 2 % of the true floor")
    if abs(median_of_sums / truth - 1.0) <= 0.02:
        failures.append("median of sums was expected to miss the floor by > 2 %")
    for f in failures:
        print(f"[e2e] SELFTEST FAILED: {f}", file=sys.stderr)
    print("selftest", "FAILED" if failures else "ok")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="one workload (the driver's contract); default all four")
    ap.add_argument("--seed", type=int, default=0,
                    help="0 = the paper's pulse; others jitter it (see pulse_for)")
    ap.add_argument("--seconds", type=float, default=28.0,
                    help="time budget of a pass, per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0 = end-to-end pass, 1 = traced per-layer pass; "
                         "default both, one after the other")
    ap.add_argument("--out", metavar="DIR",
                    help="keep results.json and the span files here "
                         "(default: a temp dir in the checkout, removed at exit)")
    ap.add_argument("--aa", action="store_true", help="run the set twice and compare")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"[e2e] no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if (os.cpu_count() or 1) < 2:
        print("[e2e] WARNING: fewer than 2 CPUs -- the timings of "
              f"{MP} mean nothing here", file=sys.stderr)

    launcher = Launcher(time.monotonic() + CONTRACT_CAP_S if args.workload else None)
    if args.out:
        workdir = Path(args.out).resolve()
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        workdir = Path(tempfile.mkdtemp(prefix=".e2e-", dir=ROOT))
    try:
        if args.selftest:
            return run_selftest(workdir, launcher)
        if args.aa:
            return run_aa(args.seed, args.seconds, workdir, launcher)
        names = [args.workload] if args.workload else list(WORKLOADS)
        passes = (0, 1) if args.trace is None else (args.trace,)
        correct, attempted, failed, metrics, detail = True, 0, 0, {}, {}
        for trace in passes:
            ok, att, bad, m, d = report(
                names, args.seed, args.seconds, bool(trace), workdir, launcher)
            correct, attempted, failed = correct and ok, attempted + att, failed + bad
            for name in names:
                metrics.setdefault(name, {}).update(m.get(name, {}))
            detail[f"trace{trace}"] = d
        if args.out:
            with open(workdir / "results.json", "w") as fh:
                json.dump(detail, fh, indent=1)
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics.get(args.workload, {}) if args.workload else metrics,
        }))
        return 0 if correct else 1
    finally:
        if not args.out:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
