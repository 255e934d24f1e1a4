"""Start-up is part of the run: what a launch imports, and when.

A paper-size ``repro run`` used to spend longer importing than stepping.
These tests pin the import diet from both ends:

* a launch loads only the core the run needs (no SciPy, no periphery
  verb, no hydro), and ``import repro`` loads no NumPy;
* a timed unit -- one ``Simulation.step()``, or one ``run_spmd`` launch
  plus a step on two forked ranks -- imports nothing, so no lazy import
  ever lands inside a measured wall or CPU second;
* the CLI still prints the same help for every verb although it builds
  only the verb being run;
* no core module imports the periphery at module level (read with
  ``ast``, so nothing here is imported).

Every check that depends on what a fresh interpreter loads runs in a
subprocess: the test process has long since imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
HELP_GOLDEN = Path(__file__).parent / "data" / "cli_help.json"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(argv: list[str], env: dict[str, str] | None = None) -> str:
    """Run ``argv`` with ``repro`` importable from this checkout; return
    its stdout."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout


def run_python(code: str, env: dict[str, str] | None = None) -> str:
    return run([sys.executable, "-c", code], env)


def run_cli(*argv: str, then: str = "print(json.dumps(sorted(sys.modules)))") -> str:
    """Code for a fresh interpreter: ``python -m repro <argv>`` through
    :mod:`runpy`, which is what ``-m`` does, then ``then``."""
    return (
        "import json, os, runpy, sys\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        f"{then}\n"
    )


# ----------------------------------------------------------------------
# What a launch loads
# ----------------------------------------------------------------------
#: Nothing a radiation run uses; each of these cost start-up time before.
NOT_ON_THE_RUN_PATH = (
    "scipy", "asyncio", "concurrent.futures", "repro.serve", "repro.campaign",
    "repro.perf", "repro.perfmodel", "repro.hydro", "repro.monitor.top",
)


def loaded(modules: list[str], name: str) -> list[str]:
    return [m for m in modules if m == name or m.startswith(name + ".")]


class TestLaunchLoadsOnlyTheCore:
    def test_zero_step_run_loads_no_periphery(self):
        out = run_python(run_cli("run", "--nx1", "20", "--nx2", "10", "--nsteps", "0"))
        modules = json.loads(out.splitlines()[-1])
        assert "repro.v2d.simulation" in modules  # the run did happen
        for name in NOT_ON_THE_RUN_PATH:
            assert not loaded(modules, name), f"{name} loaded by `repro run`"

    def test_import_repro_loads_no_numpy(self):
        out = run_python("import sys, repro\n"
                         "print(sorted(m for m in sys.modules if m.startswith('numpy')))")
        assert out.strip() == "[]"

    def test_package_names_resolve_on_first_use(self):
        out = run_python(
            "import sys, repro\n"
            "from repro import GaussianPulseProblem, JitBackend, Simulation\n"
            "from repro.linalg import SPAIPreconditioner, bicgstab, gmres\n"
            "from repro.monitor import Counters, flight\n"
            "assert callable(bicgstab) and callable(gmres)\n"
            "assert repro.v2d.Simulation is Simulation\n"
            "assert set(repro.__all__) <= set(dir(repro))\n"
            "print('repro.hydro' in sys.modules, 'scipy' in sys.modules)\n"
        )
        assert out.split() == ["False", "False"]


# ----------------------------------------------------------------------
# A timed unit imports nothing
# ----------------------------------------------------------------------
#: The module-level imports of ``benchmarks/e2e/child.py``, then two
#: simulations, a serial step of each, and one mp launch with a step on
#: every rank.  Prints what each timed unit added to ``sys.modules``.
STEP_PROBE = """
import json, sys

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


def config(precond, nprx1=1):
    return V2DConfig(nx1=20, nx2=10, nsteps=2, dt=0.5, nprx1=nprx1, precond=precond,
                     solver_tol=1e-8, transport="mp")


def step_adds(sim):
    before = set(sys.modules)
    sim.step()
    return sorted(set(sys.modules) - before)


def rank(comm):
    cfg = config("jacobi", nprx1=2)
    cart = CartComm.create(comm, nx1=cfg.nx1, nx2=cfg.nx2, nprx1=2, nprx2=1)
    return step_adds(Simulation(cfg, GaussianPulseProblem(), cart=cart))


out = {p: step_adds(Simulation(config(p), GaussianPulseProblem())) for p in ("spai", "jacobi")}
before = set(sys.modules)
out["ranks"] = run_spmd(2, rank, timeout=60.0, transport="mp")
out["launch"] = sorted(set(sys.modules) - before)
print(json.dumps(out))
"""

#: What the first ``run_spmd(..., transport="mp")`` of a process loads
#: for its fork, exactly as it did before the import diet.
FORK_INTERNALS = {"multiprocessing.popen_fork", "multiprocessing.synchronize"}


class TestStepImportsNothing:
    def test_serial_and_mp_steps_add_no_module(self):
        out = json.loads(run_python(STEP_PROBE).splitlines()[-1])
        assert out["spai"] == [] and out["jacobi"] == []
        assert out["ranks"] == [[], []]
        assert set(out["launch"]) <= FORK_INTERNALS, out["launch"]


# ----------------------------------------------------------------------
# The CLI builds only the verb being run, and says the same as before
# ----------------------------------------------------------------------
GOLDEN = json.loads(HELP_GOLDEN.read_text())
VERBS = [verb for verb in GOLDEN if verb]


#: Every ``repro <verb> --help`` in one fresh interpreter: ``main()``
#: builds a new parser per call, and ``prog`` is fixed, so each text is
#: what ``python -m repro <verb> --help`` prints.
HELP_PROBE = """
import contextlib, io, json, sys
from repro.__main__ import main

out = {}
for verb in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main([verb, "--help"])
        except SystemExit as exc:
            out[verb] = [exc.code, buf.getvalue()]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def verb_help() -> dict[str, list]:
    out = run([sys.executable, "-c", HELP_PROBE, json.dumps(VERBS)],
              env={**os.environ, "COLUMNS": "100"})
    return json.loads(out)


class TestCliHelp:
    def test_top_level_help_lists_the_same_verbs(self):
        from repro.__main__ import VERBS as TABLE

        assert len(VERBS) == 17 and list(TABLE) == VERBS
        out = run([sys.executable, "-m", "repro", "--help"],
                  env={**os.environ, "COLUMNS": "100"})
        assert out == GOLDEN[""]

    @pytest.mark.parametrize("verb", VERBS)
    def test_verb_help_text_unchanged(self, verb_help, verb):
        assert verb_help[verb] == [0, GOLDEN[verb]]


# ----------------------------------------------------------------------
# BLAS threads are pinned by the CLI, unless the user chose
# ----------------------------------------------------------------------
BLAS_PROBE = run_cli("--help", then=(
    f"print(json.dumps([os.environ.get(k) for k in {BLAS_VARS!r}]"
    " + ['numpy' in sys.modules]))"))


class TestBlasThreads:
    def _probe(self, **user: str) -> list:
        """The three variables after ``repro --help``, and whether NumPy
        had loaded (it must not have: it reads them once, at load)."""
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        return json.loads(run_python(BLAS_PROBE, env={**env, **user}).splitlines()[-1])

    def test_defaulted_to_one_thread(self):
        assert self._probe() == ["1", "1", "1", False]

    def test_user_setting_wins(self):
        user = self._probe(OPENBLAS_NUM_THREADS="3", MKL_NUM_THREADS="2")
        assert user == ["3", "1", "2", False]


# ----------------------------------------------------------------------
# The import boundary: core modules import no periphery at module level
# ----------------------------------------------------------------------
CORE_PACKAGES = ("grid", "backend", "kernels", "linalg", "parallel", "transport", "v2d", "io")
CORE_MODULES = ("problems/base.py", "problems/gaussian_pulse.py", "monitor/counters.py",
                "monitor/profiler.py", "monitor/trace.py", "monitor/timers.py")

#: Never imported by the core at module level.
FORBIDDEN = ("scipy", "repro.serve", "repro.campaign", "repro.perf", "repro.perfmodel",
             "repro.monitor.top", "repro.hydro")

#: Imported by the core today; each goes when ROADMAP item 1c moves
#: telemetry, flight records, logging and the escalation ladder behind
#: hooks.  Only removals are allowed: an import not listed here fails,
#: and so does a listed one that is gone.
ON_NOTICE = ("repro.monitor.telemetry", "repro.monitor.flight", "repro.monitor.log",
             "repro.resilience")
ALLOWLIST = {
    ("parallel/links/mp.py", "repro.monitor.flight"),
    ("parallel/links/mp.py", "repro.monitor.log"),
    ("parallel/links/mp.py", "repro.monitor.telemetry"),
    ("parallel/links/threaded.py", "repro.monitor.flight"),
    ("parallel/links/threaded.py", "repro.monitor.log"),
    ("parallel/links/threaded.py", "repro.monitor.telemetry"),
    ("transport/integrator.py", "repro.resilience.escalation"),
    ("v2d/config.py", "repro.resilience.config"),
    ("v2d/report.py", "repro.resilience.report"),
    ("v2d/simulation.py", "repro.monitor.flight"),
    ("v2d/simulation.py", "repro.monitor.telemetry"),
    ("v2d/simulation.py", "repro.resilience"),
}


def core_files() -> list[Path]:
    files = [p for pkg in CORE_PACKAGES for p in sorted((SRC / pkg).rglob("*.py"))]
    return files + [SRC / m for m in CORE_MODULES]


def is_repro_module(name: str) -> bool:
    path = SRC.parent.joinpath(*name.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def module_level_imports(tree: ast.Module) -> set[str]:
    """Dotted module names the module-level import statements load,
    including ``pkg.name`` for ``from pkg import name`` when ``name`` is
    a module of this package.  Skips function bodies and ``if
    TYPE_CHECKING:`` blocks, which never run at import."""
    out: set[str] = set()

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                out.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                out.add(node.module)
                out.update(name for name in (f"{node.module}.{a.name}" for a in node.names)
                           if is_repro_module(name))
            elif isinstance(node, ast.If):
                if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                    visit(node.body)
                visit(node.orelse)
            elif isinstance(node, (ast.Try, ast.With)):
                visit(node.body)
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body)
                visit(getattr(node, "orelse", []))
                visit(getattr(node, "finalbody", []))

    visit(tree.body)
    return out


def under(name: str, prefixes: tuple[str, ...]) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def boundary_crossings() -> tuple[list[str], set[tuple[str, str]]]:
    """Forbidden imports as ``file: module``; on-notice ones as pairs."""
    forbidden, on_notice = [], set()
    for path in core_files():
        rel = path.relative_to(SRC).as_posix()
        for name in module_level_imports(ast.parse(path.read_text(), str(path))):
            if under(name, FORBIDDEN):
                forbidden.append(f"{rel}: {name}")
            elif under(name, ON_NOTICE) and name != "repro.resilience.errors":
                on_notice.add((rel, name))
    return sorted(forbidden), on_notice


class TestImportBoundary:
    def test_core_covers_the_run_path(self):
        files = core_files()
        assert all(p.is_file() for p in files)
        assert SRC / "transport" / "integrator.py" in files

    def test_no_forbidden_module_level_import(self):
        forbidden, _ = boundary_crossings()
        assert forbidden == []

    def test_periphery_imports_match_the_allowlist_exactly(self):
        _, on_notice = boundary_crossings()
        assert on_notice - ALLOWLIST == set(), "new periphery import in the core"
        assert ALLOWLIST - on_notice == set(), "gone: shrink ALLOWLIST"

    def test_type_checking_and_function_imports_are_not_module_level(self):
        tree = ast.parse(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    import scipy.sparse\n"
            "def f():\n    import repro.hydro\n"
            "try:\n    from repro.serve import cli\nexcept ImportError:\n    pass\n"
        )
        assert module_level_imports(tree) == {"typing", "repro.serve", "repro.serve.cli"}
