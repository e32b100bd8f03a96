import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rmplates import (
    BcFamily,
    ConnectingSystem,
    LimitBc,
    MaterialParams,
    assemble_biharmonic_pencil,
    build_interval_mesh,
    build_rect_mesh,
    build_thin_mesh,
    emit_report,
    fit_rate,
    kernel_census,
    korn_constant,
    p2_interpolate,
    poincare_check,
    resolvent_gap,
    solve_gep_smallest,
    sweep_delta,
    sweep_thickness,
)
from rmplates import eigensolve, experiments
from rmplates.errors import ConvergenceError
from rmplates.experiments import CONTROL_RTOL, EXPECTED_KERNELS, SweepConfig, korn_sweep
from rmplates.rm_system import at_one

PARAMS = MaterialParams(E=1.0, sigma=0.3, k=5.0 / 6.0, t=0.1)


class TestFitRate:
    def test_exact_square_law(self):
        pts = [(p, p**2) for p in (0.4, 0.2, 0.1, 0.05)]
        fit = fit_rate(pts)
        assert_allclose(fit["slope"], 2.0, atol=1e-12)
        assert_allclose(fit["r2"], 1.0, atol=1e-12)

    def test_constant_error(self):
        fit = fit_rate([(p, 3.0) for p in (0.4, 0.2, 0.1)])
        assert_allclose(fit["slope"], 0.0, atol=1e-12)

    def test_noisy_square_root(self):
        rng = np.random.default_rng(12)
        ps = np.geomspace(1.0, 1e-3, 12)
        pts = [(p, 3.0 * np.sqrt(p) * (1.0 + 1e-3 * rng.standard_normal())) for p in ps]
        fit = fit_rate(pts)
        assert abs(fit["slope"] - 0.5) < 0.02

    def test_axis_rescaling_shifts_intercept_only(self):
        pts = [(p, 2.0 * p**1.3) for p in (0.4, 0.2, 0.1, 0.05)]
        a = fit_rate(pts)
        b = fit_rate([(7.0 * p, e) for p, e in pts])
        assert abs(a["slope"] - b["slope"]) < 1e-12
        assert abs(a["intercept"] - b["intercept"]) > 0.1

    def test_guards(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.05, 0.5)])
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.05, 0.0), (0.025, 0.1)])


class TestSweepConfig:
    def test_values_must_decrease(self):
        with pytest.raises(ValueError):
            SweepConfig(kind="delta", values=(0.1, 0.2))

    def test_kind_must_be_a_sweep(self):
        # the kind picks the keys a report echoes; a typo fails before the sweep runs
        with pytest.raises(ValueError, match="'thick'"):
            SweepConfig(kind="thick", values=(0.2, 0.1))

    def test_profile_spec(self):
        cfg = SweepConfig(
            kind="delta",
            values=(0.2, 0.1),
            profile={"x": [0.0, 1.0], "f1": [0.5, 0.5], "f2": [0.5, 1.0]},
        )
        spec = cfg.spec_at(0.1)
        assert_allclose(spec.g(np.array([0.0, 1.0])), [1.0, 1.5])


class TestKernelCensus:
    @pytest.mark.parametrize("n", [4, 8])
    def test_mesh_independent(self, n):
        table = kernel_census(PARAMS, build_rect_mesh(1, 1, n, n))
        assert table == {bc.value: dim for bc, dim in EXPECTED_KERNELS.items()}

    def test_one_solve_per_family(self, monkeypatch):
        from rmplates import rm_system

        calls = []
        solve = rm_system.solve_gep_smallest

        def counted(A, B, opts=None):
            calls.append(A.shape)
            return solve(A, B, opts)

        monkeypatch.setattr(rm_system, "solve_gep_smallest", counted)
        table = kernel_census(PARAMS, build_rect_mesh(1, 1, 8, 8))
        assert table == {bc.value: dim for bc, dim in EXPECTED_KERNELS.items()}
        assert len(calls) == len(EXPECTED_KERNELS)

    @settings(max_examples=16, deadline=None)
    @given(nx=st.integers(1, 16), ny=st.integers(1, 16), length=st.sampled_from([1, 4]))
    @example(nx=1, ny=5, length=1)
    @example(nx=7, ny=1, length=1)
    @example(nx=16, ny=16, length=4)
    def test_every_rectangle(self, nx, ny, length):
        # on a mesh one cell wide every node is on the boundary, so the
        # hard-clamped pencil has no free dofs, and no kernel
        table = kernel_census(PARAMS, build_rect_mesh(length, 1, nx, ny))
        assert table == {bc.value: dim for bc, dim in EXPECTED_KERNELS.items()}


class TestKorn:
    def test_rotation_rayleigh_quotient_is_three(self):
        # eta = (y, -x): int |D eta|^2 = 2, eps(eta) = 0, int |eta|^2 = 2/3
        from rmplates.assemble import assemble_from_local, element_batch, mass_density, stiffness_density, strain_blocks
        from rmplates.spaces import Q1_SCALAR, Q1_VECTOR2, build_dofmap

        mesh = build_rect_mesh(1, 1, 8, 8)
        dm = build_dofmap(mesh, Q1_VECTOR2)
        batch = element_batch(mesh, Q1_SCALAR)
        strain, _ = strain_blocks(batch)
        grad, mass = np.zeros((2,) + strain.shape)
        grad[:, :4, :4] = grad[:, 4:, 4:] = stiffness_density(batch)
        mass[:, :4, :4] = mass[:, 4:, 4:] = mass_density(batch)
        A, B = assemble_from_local(dm, lambda cells: (grad[cells], (strain + mass)[cells]))
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        eta = np.concatenate([y, -x])
        q = (eta @ (A @ eta)) / (eta @ (B @ eta))
        assert_allclose(q, 3.0, rtol=1e-12)

    def test_matches_dense_largest_eigenvalue(self):
        import scipy.linalg

        from rmplates.assemble import assemble_from_local, element_batch, mass_density, stiffness_density, strain_blocks
        from rmplates.spaces import Q1_SCALAR, Q1_VECTOR2, build_dofmap

        mesh = build_rect_mesh(1.0, 0.4, 6, 3)
        batch = element_batch(mesh, Q1_SCALAR)
        strain, _ = strain_blocks(batch)
        # |D eta|^2 and |eta|^2 are the scalar stiffness and mass of each component
        scalar = build_dofmap(mesh, Q1_SCALAR)
        K, M = (m.toarray() for m in assemble_from_local(scalar, lambda cells: (stiffness_density(batch)[cells], mass_density(batch)[cells])))
        A = scipy.linalg.block_diag(K, K)
        B = assemble_from_local(build_dofmap(mesh, Q1_VECTOR2), lambda cells: (strain[cells],)).toarray() + scipy.linalg.block_diag(M, M)
        oracle = scipy.linalg.eigh(A, B, eigvals_only=True)[-1]
        assert_allclose(korn_constant(mesh), oracle, rtol=1e-12)

    def test_unit_square_constant_stable(self):
        c16 = korn_constant(build_rect_mesh(1, 1, 16, 16))
        c32 = korn_constant(build_rect_mesh(1, 1, 32, 32))
        assert c16 >= 3.0 and c32 >= 3.0
        assert abs(c32 - c16) / c16 <= 0.05

    def test_thin_sweep_increases(self):
        cfg = SweepConfig(kind="korn", values=(0.4, 0.2, 0.1), mesh_n=32, mesh_ny=6)
        rep = korn_sweep(cfg)
        assert rep["checks"]["strictly_increasing"]
        assert rep["unit_square_constant"] >= 3.0


class TestPoincare:
    def test_blowup_and_square_value(self):
        rep = poincare_check((0.4, 0.2, 0.1), mesh_n=24, mesh_ny=8)
        assert rep["fit"]["slope"] <= -1.9
        assert abs(rep["square_extrapolated"] - 2 * np.pi**2) / (2 * np.pi**2) <= 0.01
        assert all(e > 0 for e in rep["eigenvalues"])


class TestSweeps:
    def test_thickness_sweep_small(self):
        cfg = SweepConfig(
            kind="thickness", values=(0.2, 0.1, 0.05), mesh_n=16, num_eigs=2, bc=BcFamily.HARD_CLAMPED
        )
        rep = sweep_thickness(cfg)
        assert rep["checks"]["gaps_strictly_decreasing"]
        assert len(rep["gaps"]) == 3 and len(rep["gaps"][0]) == 2

    def test_thickness_sweep_solves_each_morley_level_once(self, monkeypatch):
        # the references at n and n/2 share the n/2 level: levels n/4, n/2
        # and n are each assembled and solved once
        levels = []

        def counting(mesh, *args):
            levels.append(int(round(np.sqrt(mesh.n_elements / 2))))
            return assemble_biharmonic_pencil(mesh, *args)

        monkeypatch.setattr(experiments, "assemble_biharmonic_pencil", counting)
        cfg = SweepConfig(kind="thickness", values=(0.2, 0.1, 0.05), mesh_n=8, num_eigs=2, bc=BcFamily.HARD_CLAMPED)
        rep = sweep_thickness(cfg)
        assert sorted(levels) == [2, 4, 8]
        monkeypatch.undo()
        lam = [experiments._morley_eigenvalues(level, cfg.params, LimitBc.CLAMPED, 2) for level in (4, 8)]
        reference = experiments._richardson(*lam)
        assert rep["reference_eigenvalues"] == reference.tolist()

    @pytest.mark.parametrize("bc", [BcFamily.FREE, BcFamily.SOFT_RIGID])
    def test_thickness_sweep_reports_eigenvalues_above_the_kernel(self, bc):
        # the kernel at 1 is common to every t and to the limit: reporting it
        # would give references of 1 and gaps of round-off
        cfg = SweepConfig(kind="thickness", values=(0.2, 0.1, 0.05), mesh_n=16, num_eigs=2, bc=bc)
        rep = sweep_thickness(cfg)
        reported = np.concatenate([rep["reference_eigenvalues"], np.ravel(rep["rm_eigenvalues"])])
        assert len(rep["reference_eigenvalues"]) == 2 and np.shape(rep["rm_eigenvalues"]) == (3, 2)
        assert not np.any(at_one(reported))
        assert np.min(rep["gaps"]) > 1e-3 and np.min(rep["gaps_control"]) > 1e-3

    def test_thickness_sweep_refuses_a_kernel_it_does_not_find(self, monkeypatch):
        monkeypatch.setitem(EXPECTED_KERNELS, BcFamily.FREE, 2)
        cfg = SweepConfig(kind="thickness", values=(0.2, 0.1, 0.05), mesh_n=8, num_eigs=2, bc=BcFamily.FREE)
        with pytest.raises(ConvergenceError, match="kernel of 2"):
            sweep_thickness(cfg)

    def test_thickness_sweep_rejects_mesh_it_cannot_halve_twice(self):
        # mesh_n = 10 would solve Morley levels 2, 5 and 10, and the control
        # reference would be a Richardson step between h = 1/2 and 1/5
        cfg = SweepConfig(kind="thickness", values=(0.2, 0.1, 0.05), mesh_n=10, num_eigs=2, bc=BcFamily.HARD_CLAMPED)
        with pytest.raises(ValueError, match="mesh_n = 10"):
            sweep_thickness(cfg)

    def test_thickness_sweep_rejects_nonstandard_limit(self):
        from rmplates.errors import UnsupportedLimitError

        cfg = SweepConfig(kind="thickness", values=(0.2, 0.1, 0.05), mesh_n=8, bc=BcFamily.HARD_RIGID)
        with pytest.raises(UnsupportedLimitError):
            sweep_thickness(cfg)

    def test_delta_sweep_small(self):
        cfg = SweepConfig(kind="delta", values=(0.4, 0.2, 0.1), mesh_n=32, mesh_ny=4)
        rep = sweep_delta(cfg)
        assert rep["checks"]["resolvent_monotone"]
        assert len(rep["resolvent_gaps"]) == 3
        assert all(len(p["eig_gap_sums"]) == 3 for p in rep["points"])
        # the signed cluster gap is bounded by the absolute one, and equals
        # it up to sign for a single-eigenvalue cluster; the constant-profile
        # limit spectrum is simple, so every cluster here is one of those
        for level in ("points", "points_control"):
            for p in rep[level]:
                assert np.array_equal(np.abs(p["eig_gap_signed"]), p["eig_gap_sums"])
        # a cluster's rate is fitted only when the control level reproduces
        # its gaps within CONTROL_RTOL
        fine = np.array([p["eig_gap_sums"] for p in rep["points"]])
        coarse = np.array([p["eig_gap_sums"] for p in rep["points_control"]])
        for j, fit in enumerate(rep["eig_gap_fits"]):
            agree = np.all(np.abs(fine[:, j] - coarse[:, j]) <= CONTROL_RTOL * fine[:, j])
            assert (fit is None) == (not agree)

    def test_delta_sweep_explicit_load_matches_default(self):
        # the sweep's data is (0, sin(pi x)) interpolated on each level's own
        # interval mesh, the control level included
        cfg = SweepConfig(kind="delta", values=(0.4, 0.2, 0.1), mesh_n=16, mesh_ny=2)
        rep = sweep_delta(cfg)
        for level, nx, ny in (("points", 16, 2), ("points_control", 8, 1)):
            interval = build_interval_mesh(0.0, 1.0, nx)
            f0 = p2_interpolate(interval, lambda x: np.sin(np.pi * x))
            for point in rep[level]:
                spec = cfg.spec_at(point["delta"])
                system = ConnectingSystem(build_thin_mesh(spec, nx, ny), interval, spec)
                explicit = resolvent_gap(system, cfg.params, np.zeros_like(f0), f0)
                assert_allclose(point["resolvent_gap"], explicit, rtol=1e-9)

    def test_delta_sweep_rejects_odd_mesh(self):
        # the control level is documented as half the mesh; 15 would give 7
        cfg = SweepConfig(kind="delta", values=(0.4, 0.2, 0.1), mesh_n=15, mesh_ny=2)
        with pytest.raises(ValueError, match="mesh_n = 15"):
            sweep_delta(cfg)

    def test_delta_sweep_rejects_odd_mesh_ny(self):
        # 3 rows have no half level: rounding to 1 or 2 rows would make the
        # control y-spacing other than twice the fine one, and the Richardson
        # step in h between the two levels would have no basis
        cfg = SweepConfig(kind="delta", values=(0.4, 0.2, 0.1), mesh_n=16, mesh_ny=3)
        with pytest.raises(ValueError, match="mesh_ny = 3"):
            sweep_delta(cfg)

    def test_delta_sweep_factors_each_matrix_once(self, monkeypatch):
        # per delta point one LU of the thin A serves the source solve and
        # the Lanczos run, and per level one LU of the limit A does the
        # same; every factorize call is counted
        cfg = SweepConfig(kind="delta", values=(0.4, 0.2, 0.1), mesh_n=16, mesh_ny=2)
        thin_shapes, limit_shapes, factored = [], [], []
        assemble, factorize = experiments.assemble_rm_pencil, eigensolve.factorize
        assemble_limit = experiments.assemble_limit_pencil

        def assembled(*args, **kwargs):
            pencil = assemble(*args, **kwargs)
            thin_shapes.append(pencil.A.shape)
            return pencil

        def assembled_limit(*args, **kwargs):
            pencil = assemble_limit(*args, **kwargs)
            limit_shapes.append(pencil.A.shape)
            return pencil

        def counted(M, *args, **kwargs):
            factored.append(M.shape)
            return factorize(M, *args, **kwargs)

        monkeypatch.setattr(experiments, "assemble_rm_pencil", assembled)
        monkeypatch.setattr(experiments, "assemble_limit_pencil", assembled_limit)
        for name, module in list(sys.modules.items()):
            if name.startswith("rmplates.") and getattr(module, "factorize", None) is factorize:
                monkeypatch.setattr(module, "factorize", counted)
        sweep_delta(cfg)
        assert len(thin_shapes) == 2 * len(cfg.values) and len(limit_shapes) == 2
        assert sorted(factored) == sorted(thin_shapes + limit_shapes)

    def test_delta_sweep_eigenpairs_match_separate_solve(self, monkeypatch):
        # the shared LU is the one a separate eigensolve makes, so the thin
        # eigenpairs of every point and the limit ones of both levels keep
        # every bit
        cfg = SweepConfig(kind="delta", values=(0.4, 0.2, 0.1), mesh_n=16, mesh_ny=2)
        solved = []
        solve = experiments.solve_gep_smallest

        def recorded(A, B, opts, factor=None):
            res = solve(A, B, opts, factor)
            if factor is not None:
                solved.append((A, B, opts, res))
            return res

        monkeypatch.setattr(experiments, "solve_gep_smallest", recorded)
        sweep_delta(cfg)
        assert len(solved) == 2 * len(cfg.values) + 2
        for A, B, opts, res in solved:
            ref = solve_gep_smallest(A, B, opts)
            for got, want in ((res.eigenvalues, ref.eigenvalues), (res.eigenvectors, ref.eigenvectors), (res.residuals, ref.residuals)):
                assert np.array_equal(got, want)
            assert {k: v for k, v in res.info.items() if k != "factor_s"} == {k: v for k, v in ref.info.items() if k != "factor_s"}

    def test_delta_sweep_trapezoid_convergence_only(self):
        # general profiles are outside the cylinder rate theorem: assert
        # convergence of the gaps, not a rate
        cfg = SweepConfig(
            kind="delta",
            values=(0.3, 0.15, 0.075),
            mesh_n=48,
            mesh_ny=4,
            bc=BcFamily.FREE,
            profile={"x": [0.0, 1.0], "f1": [0.5, 0.5], "f2": [0.5, 1.0]},
        )
        rep = sweep_delta(cfg)
        assert rep["checks"]["resolvent_monotone"]
        rel = np.array(rep["relative_eig_gaps"])
        assert np.all(rel[-1] <= 0.01)
        assert np.max(rep["max_angles"][-1]) <= 0.05

    def test_free_bc_kernel_eigenvalues_t_independent(self):
        # the three unit eigenvalues are exact at every thickness
        from rmplates.eigensolve import EigOptions, solve_gep_smallest
        from rmplates import assemble_rm_pencil

        mesh = build_rect_mesh(1, 1, 8, 8)
        for t in (0.2, 0.1, 0.05, 0.025):
            pen = assemble_rm_pencil(mesh, MaterialParams(E=1.0, sigma=0.3, t=t), BcFamily.FREE)
            lam = solve_gep_smallest(pen.A, pen.B, EigOptions(k=3)).eigenvalues
            assert np.abs(lam - 1.0).max() <= 1e-8


class TestEmitReport:
    def _small_report(self):
        cfg = SweepConfig(
            kind="thickness", values=(0.2, 0.1, 0.05), mesh_n=8, num_eigs=2, bc=BcFamily.HARD_CLAMPED
        )
        return sweep_thickness(cfg)

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report({}, tmp_path)
        with pytest.raises(ValueError):
            emit_report({"parameter_values": []}, tmp_path)

    def test_round_trip_bit_for_bit(self, tmp_path):
        rep = self._small_report()
        paths = emit_report(rep, tmp_path)
        back = json.loads(open(paths["json"]).read())
        if rep["fit"] is not None:
            assert back["fit"]["slope"] == rep["fit"]["slope"]
        assert back["gaps"] == rep["gaps"]

    def test_csv_schema(self, tmp_path):
        import csv

        rep = self._small_report()
        paths = emit_report(rep, tmp_path)
        rows = list(csv.reader(open(paths["csv"])))
        k = len(rep["gaps"][0])
        assert rows[0] == ["sweep", "parameter"] + [f"gap_eig_{j+1}" for j in range(k)] + [
            "resolvent_gap",
            "fitted_slope",
        ]
        assert len(rows[0]) == 2 + k + 1 + 1
        assert len(rows) == 1 + len(rep["parameter_values"])

    def test_korn_and_poincare_csv_carry_their_values(self, tmp_path):
        import csv

        korn = korn_sweep(SweepConfig(kind="korn", values=(0.4, 0.2, 0.1), mesh_n=8, mesh_ny=2))
        poincare = poincare_check((0.4, 0.2, 0.1), mesh_n=8, mesh_ny=4)
        assert (poincare["mesh_n"], poincare["mesh_ny"]) == (8, 4)
        for rep, measured in ((korn, korn["constants"]), (poincare, poincare["eigenvalues"])):
            rows = list(csv.reader(open(emit_report(rep, tmp_path / rep["kind"])["csv"])))
            assert rows[0][-1] == "value"
            assert [float(row[-1]) for row in rows[1:]] == measured, rep["kind"]


class TestVersion:
    @pytest.mark.skipif(shutil.which("git") is None, reason="needs the git executable")
    def test_version_ignores_working_directory(self, tmp_path, monkeypatch):
        # run from inside another repository, the report still names the
        # package's own version, not that repository's commit
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "other")
        other = git("rev-parse", "HEAD")
        monkeypatch.chdir(tmp_path)
        version = experiments._version_string()
        assert version.split("-")[0] not in other
