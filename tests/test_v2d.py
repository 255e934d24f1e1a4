"""Integration tests for the V2D driver, problems, and checkpointing."""

import threading

import numpy as np
import pytest

from repro.grid import Mesh2D
from repro.linalg import SPAIPreconditioner
from repro.parallel import CartComm, run_spmd
from repro.problems import (
    GaussianPulseProblem,
    RadiativeShockProblem,
    SedovBlastProblem,
)
from repro.transport import RadiationBasis, RadiationIntegrator
from repro.v2d import RunReport, Simulation, V2DConfig, run_parallel


def small_config(**kw):
    args = dict(
        nx1=24, nx2=16, extent1=(0.0, 1.0), extent2=(0.0, 1.0),
        nsteps=3, dt=2e-4, solver_tol=1e-9, precond="jacobi",
    )
    args.update(kw)
    return V2DConfig(**args)


class TestConfig:
    def test_paper_configuration(self):
        cfg = V2DConfig.paper_test_problem()
        assert (cfg.nx1, cfg.nx2) == (200, 100)
        assert cfg.ncomp == 2
        assert cfg.nunknowns == 40_000
        assert cfg.nsteps == 100
        assert cfg.total_solves == 300

    def test_paper_topologies_all_valid(self):
        for np_, n1, n2 in [(10, 10, 1), (20, 5, 4), (50, 10, 5)]:
            cfg = V2DConfig.paper_test_problem(nprx1=n1, nprx2=n2)
            assert cfg.nranks == np_
            assert cfg.decomposition().nranks == np_

    def test_scaled_configuration(self):
        cfg = V2DConfig.scaled_test_problem(scale=4)
        assert (cfg.nx1, cfg.nx2) == (50, 25)
        with pytest.raises(ValueError):
            V2DConfig.scaled_test_problem(scale=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            V2DConfig(nx1=0)
        with pytest.raises(ValueError):
            V2DConfig(dt=0)
        with pytest.raises(ValueError):
            V2DConfig(nx1=4, nprx1=8)  # over-decomposed
        with pytest.raises(ValueError):
            V2DConfig(checkpoint_interval=2)  # no path
        with pytest.raises(ValueError):
            V2DConfig(species=())


class TestGaussianPulseSerial:
    def test_run_produces_report(self):
        sim = Simulation(small_config(), GaussianPulseProblem())
        report = sim.run()
        assert isinstance(report, RunReport)
        assert report.nsteps == 3
        assert report.total_solves == 9
        assert report.all_converged
        assert report.wall_seconds > 0
        assert "V2D run" in report.summary()

    def test_matches_analytic_solution(self):
        # Resolve the pulse decently and integrate a short time.
        cfg = small_config(nx1=48, nx2=48, nsteps=5, dt=2e-4, solver_tol=1e-10)
        problem = GaussianPulseProblem(t0=0.02, kappa=10.0)
        sim = Simulation(cfg, problem)
        report = sim.run()
        assert report.solution_error is not None
        assert report.solution_error < 0.02, (
            f"L2 error vs Green's function: {report.solution_error:.4f}"
        )

    def test_error_decreases_with_resolution(self):
        # Small dt so spatial error dominates; 4x the resolution must
        # cut the L2 error substantially (sampling aliasing makes the
        # sequence non-monotone in between, so compare the endpoints).
        errs = {}
        for n in (12, 48):
            cfg = small_config(nx1=n, nx2=n, nsteps=4, dt=5e-5, solver_tol=1e-11)
            sim = Simulation(cfg, GaussianPulseProblem(t0=0.02))
            errs[n] = sim.run().solution_error
        assert errs[48] < 0.25 * errs[12]

    def test_energy_decays_through_vacuum_boundaries(self):
        # DIRICHLET0 walls let the pulse leak; total energy must fall
        # monotonically (diffusion is dissipative here).
        sim = Simulation(small_config(nsteps=4, dt=1e-3), GaussianPulseProblem())
        report = sim.run()
        energies = [s.total_energy for s in report.steps]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_scalar_and_vector_backends_agree(self):
        results = {}
        for backend in ("vector", "scalar"):
            cfg = small_config(nx1=10, nx2=8, nsteps=2, backend=backend)
            sim = Simulation(cfg, GaussianPulseProblem())
            sim.run()
            results[backend] = sim.integrator.E.interior.copy()
        np.testing.assert_allclose(
            results["scalar"], results["vector"], rtol=1e-9, atol=1e-12
        )

    def test_profiler_breakdown_available(self):
        sim = Simulation(small_config(), GaussianPulseProblem())
        report = sim.run()
        assert report.matvec_fraction() > 0.0
        assert report.bicgstab_fraction() > 0.0
        assert report.bicgstab_fraction() >= report.matvec_fraction()
        assert "MATVEC" in report.flat_profile()

    def test_paper_size_spai_run_is_attributed(self):
        # ROADMAP 1c: at the paper's size the profile accounts for the
        # wall clock.  SPAI set-up is a region of its own (89.8 % of
        # this run was outside every region before it was).
        cfg = V2DConfig.paper_test_problem(nsteps=5, precond="spai")
        report = Simulation(cfg, GaussianPulseProblem()).run()
        wall, seen = report.wall_seconds, report.profiler.total_time(report.rank)
        assert 0.0 <= wall - seen <= 0.10 * wall
        flat = report.profiler.flat(report.rank)
        assert flat["PRECOND_SETUP"][2] == 5        # one build per step
        summary = report.summary()
        assert "Preconditioner set-up fraction of wall:" in summary
        assert "unattributed:" in summary

    def test_counters_track_workload(self):
        sim = Simulation(small_config(), GaussianPulseProblem())
        report = sim.run()
        assert report.counters.linear_solves == 9
        assert report.counters.matvecs > 0
        assert report.counters.flops > 0


class TestParallelRuns:
    @pytest.mark.parametrize("nprx1,nprx2", [(2, 1), (1, 2), (2, 2)])
    def test_decomposed_matches_serial(self, nprx1, nprx2):
        problem = GaussianPulseProblem()
        serial_cfg = small_config(nsteps=2)
        serial = Simulation(serial_cfg, problem)
        serial.run()
        want = serial.integrator.E.interior

        par_cfg = small_config(nsteps=2, nprx1=nprx1, nprx2=nprx2)
        reports = run_parallel(par_cfg, problem)
        assert len(reports) == nprx1 * nprx2
        assert all(r.all_converged for r in reports)
        # Rebuild the global field from the per-rank integrators is not
        # exposed; compare the scalar diagnostics instead (they are
        # global reductions, identical on every rank).
        for r in reports:
            assert r.final_energy == pytest.approx(
                sum(
                    s.total_energy
                    for s in [serial.step_reports[-1]]
                ),
                rel=1e-10,
            )

    def test_topology_changes_not_the_physics(self):
        problem = GaussianPulseProblem()
        energies = []
        for n1, n2 in [(1, 1), (2, 2), (4, 1)]:
            cfg = small_config(nsteps=2, nprx1=n1, nprx2=n2)
            reports = run_parallel(cfg, problem)
            energies.append(reports[0].final_energy)
        assert energies[0] == pytest.approx(energies[1], rel=1e-10)
        assert energies[0] == pytest.approx(energies[2], rel=1e-10)

    def test_parallel_reports_mpi_traffic(self):
        cfg = small_config(nsteps=2, nprx1=2, nprx2=2)
        reports = run_parallel(cfg, GaussianPulseProblem())
        assert reports[0].counters.messages_sent > 0
        assert reports[0].counters.reductions > 0

    def test_serial_config_with_parallel_entry(self):
        reports = run_parallel(small_config(nsteps=1), GaussianPulseProblem())
        assert len(reports) == 1

    def test_mismatched_topology_rejected(self):
        with pytest.raises(ValueError):
            Simulation(small_config(nprx1=2), GaussianPulseProblem())


class TestHydroProblems:
    def test_sedov_blast_runs_and_expands(self):
        problem = SedovBlastProblem(e_blast=1.0, r_init=0.1, p0=1e-4)
        cfg = small_config(nx1=32, nx2=32, nsteps=2, dt=2e-3)
        sim = Simulation(cfg, problem)
        assert sim.hydro is not None
        mesh = sim.mesh
        sim.run()
        w = sim.hydro.primitive()
        r1 = SedovBlastProblem.shock_radius(mesh, w[0], problem.center)
        assert r1 > problem.r_init * 0.8
        # blast pushed gas outward: radial velocity positive at the rim
        assert w[0].max() > problem.rho0

    def test_sedov_mass_conserved(self):
        problem = SedovBlastProblem()
        cfg = small_config(nx1=24, nx2=24, nsteps=2, dt=1e-3)
        sim = Simulation(cfg, problem)
        m0 = sim.hydro.conserved_totals()[0]
        sim.run()
        assert sim.hydro.conserved_totals()[0] == pytest.approx(m0, rel=1e-12)

    def test_radiative_shock_preheats_upstream(self):
        problem = RadiativeShockProblem()
        cfg = small_config(
            nx1=32, nx2=8, nsteps=3, dt=2e-3,
            couple_matter=True, emission=True, precond="jacobi",
        )
        sim = Simulation(cfg, problem)
        sim.run()
        # Radiation diffusing out of the hot driver must warm the
        # ambient zones just ahead of the interface above their
        # hydro-consistent initial temperature p/rho.
        mesh = sim.mesh
        strip = (mesh.x1c > problem.interface + 0.02) & (
            mesh.x1c < problem.interface + 0.2
        )
        t_strip = sim.integrator.temp[strip, :].mean()
        assert t_strip > problem.t_ambient * 1.001, (
            f"no radiative preheat: {t_strip} vs {problem.t_ambient}"
        )

    def test_radiative_shock_initial_equilibrium(self):
        problem = RadiativeShockProblem()
        mesh = Mesh2D.uniform(16, 4)
        basis = RadiationBasis()
        state = problem.initial_state(mesh, basis)
        # E ~ a T^4 in each region, T = p/rho
        driver = np.isclose(state.temp, problem.t_driver)
        assert driver.any()
        np.testing.assert_allclose(
            state.E[0][driver], problem.t_driver**4, rtol=0.05
        )

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            GaussianPulseProblem(t0=-1.0)
        with pytest.raises(ValueError):
            SedovBlastProblem(e_blast=0.0)
        with pytest.raises(ValueError):
            RadiativeShockProblem(interface=1.5)


class TestCheckpointing:
    def test_checkpoint_roundtrip_serial(self, tmp_path):
        from repro.io import load_checkpoint

        path = tmp_path / "ck"
        cfg = small_config(
            nsteps=2, checkpoint_path=str(path), checkpoint_interval=1
        )
        sim = Simulation(cfg, GaussianPulseProblem())
        sim.run()
        ck = load_checkpoint(f"{path}.step00002.npz")
        assert ck.step == 2
        assert ck.time == pytest.approx(sim.time)
        np.testing.assert_allclose(ck.E, sim.integrator.E.interior)
        assert ck.meta["problem"] == "gaussian-pulse"

    def test_checkpoint_gather_parallel(self, tmp_path):
        from repro.io import load_checkpoint

        path = tmp_path / "pck"
        cfg = small_config(
            nsteps=1, nprx1=2, nprx2=1,
            checkpoint_path=str(path), checkpoint_interval=1,
        )
        run_parallel(cfg, GaussianPulseProblem())
        ck = load_checkpoint(f"{path}.step00001.npz")
        assert ck.shape == (cfg.nx1, cfg.nx2)

        # And it must equal the serial run's state.
        serial = Simulation(small_config(nsteps=1), GaussianPulseProblem())
        serial.run()
        np.testing.assert_allclose(ck.E, serial.integrator.E.interior, rtol=1e-12)


# ---------------------------------------------------------------------------
# The preconditioner is built on the first apply of a solve, or not at all
# ---------------------------------------------------------------------------
class TestLazyPreconditioner:
    TOPOLOGIES = [("", 1, 1), ("threads", 2, 1), ("mp", 2, 1)]

    @staticmethod
    def _run(transport, nprx1, nprx2, calls):
        """Per rank: fields, iterations per step, counters, build count."""
        cfg = small_config(
            nsteps=2, dt=5e-4, solver_tol=1e-8, precond="spai",
            nprx1=nprx1, nprx2=nprx2, transport=transport,
        )

        def body(comm):
            cart = None if comm is None else CartComm.create(
                comm, nx1=cfg.nx1, nx2=cfg.nx2, nprx1=nprx1, nprx2=nprx2)
            # Forked ranks inherit the parent's list; threads share it.
            me, before = threading.get_ident(), len(calls)
            sim = Simulation(cfg, GaussianPulseProblem(), cart=cart)
            sim.run()
            counters = sim.counters.snapshot()
            if comm is not None:
                counters.update(comm=sim.comm.counters.snapshot())
            return {
                "E": sim.integrator.E.interior.copy(),
                "temp": sim.integrator.temp.copy(),
                "iterations": [[sv.iterations for sv in s.solves] for s in sim.step_reports],
                "counters": counters,
                "builds": sum(t == me for t in calls[before:]),
            }

        if nprx1 * nprx2 == 1:
            return [body(None)]
        return run_spmd(nprx1 * nprx2, body, transport=transport)

    @pytest.mark.parametrize("transport,nprx1,nprx2", TOPOLOGIES)
    def test_one_build_per_step_and_same_bits_as_eager(
        self, monkeypatch, transport, nprx1, nprx2
    ):
        calls = []
        real = SPAIPreconditioner.from_stencil.__func__

        def counting(cls, *args, **kwargs):
            calls.append(threading.get_ident())
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(SPAIPreconditioner, "from_stencil", classmethod(counting))
        lazy = self._run(transport, nprx1, nprx2, calls)

        make = RadiationIntegrator._make_preconditioner

        def eager(integrator, system):
            M = make(integrator, system)
            M._M = M._build()
            return M

        monkeypatch.setattr(RadiationIntegrator, "_make_preconditioner", eager)
        up_front = self._run(transport, nprx1, nprx2, calls)

        for got, want in zip(lazy, up_front, strict=True):
            # Solves 2 and 3 start converged, so only solve 1 builds.
            assert all(its[0] > 0 and its[1:] == [0, 0] for its in got["iterations"])
            assert got["builds"] == len(got["iterations"])
            assert want["builds"] == 3 * len(want["iterations"])
            assert got["iterations"] == want["iterations"]
            assert got["counters"] == want["counters"]
            np.testing.assert_array_equal(got["E"], want["E"])
            np.testing.assert_array_equal(got["temp"], want["temp"])
