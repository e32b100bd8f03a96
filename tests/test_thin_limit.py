import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rmplates import (
    BcFamily,
    ConnectingSystem,
    MaterialParams,
    assemble_limit_pencil,
    assemble_rm_pencil,
    build_interval_mesh,
    build_thin_mesh,
    constant_profile_spec,
    divgrad_consistency_gap,
    limit_div_coefficient,
    p2_dof_points,
    p2_evaluate,
    p2_interpolate,
    qjj_value,
    resolvent_gap,
    solve_extended_source,
)
from rmplates import assemble, eigensolve, experiments, rm_system, thin_limit
from rmplates.assemble import ElementBatch, element_batch
from rmplates.eigensolve import EigOptions, solve_gep_smallest
from rmplates.geometry import PiecewiseLinear, ThinDomainSpec
from rmplates.quadrature import quad_rule
from rmplates.rm_system import FieldPair
from rmplates.spaces import Q1_SCALAR
from rmplates.thin_limit import solve_limit_source

PARAMS = MaterialParams(E=1.0, sigma=0.3, k=5.0 / 6.0, t=0.1)


def trapezoid_spec(delta):
    return ThinDomainSpec(
        (0.0, 1.0),
        PiecewiseLinear.constant(0.5, 0, 1),
        PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.5, 1.0])),
        delta,
    )


def make_system(spec, nx=16, ny=4):
    thin = build_thin_mesh(spec, nx, ny)
    interval = build_interval_mesh(*spec.base_interval, nx)
    return ConnectingSystem(thin, interval, spec)


class TestCoefficients:
    def test_div_coefficient_values(self):
        assert limit_div_coefficient(0.0, 3) == 0.0
        assert_allclose(limit_div_coefficient(0.5, 1), 0.25, atol=1e-15)
        assert_allclose(limit_div_coefficient(0.3, 2), 0.21 / 1.3, atol=1e-15)

    def test_div_coefficient_rejects_bad_d(self):
        with pytest.raises(ValueError):
            limit_div_coefficient(0.3, 0)

    def test_qjj_values(self):
        assert qjj_value(0.0, 2, 5.0) == 0.0
        assert_allclose(qjj_value(0.3, 2, 1.0), -0.3 / 1.3, atol=1e-15)

    def test_qjj_rejects_bad_d(self):
        # the one checked denominator of both coefficients
        with pytest.raises(ValueError, match="positive integer"):
            qjj_value(0.3, 0, 1.0)

    def test_qjj_defining_relation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sigma = float(rng.uniform(-0.4, 0.9))
            d = int(rng.integers(1, 5))
            div = float(rng.standard_normal())
            q = qjj_value(sigma, d, div)
            assert abs((1 - sigma) * q + sigma * d * q + sigma * div) < 1e-14

    def test_strong_form_coefficient_consistent_with_weak(self):
        # the strong-form grad-div coefficient agrees exactly with the one
        # implied by the weak form once 2 eps:eps = |grad|^2 + div^2 is used
        for sigma in (-0.3, 0.0, 0.3, 0.7):
            for d in (1, 2, 3):
                assert abs(divgrad_consistency_gap(1.7, sigma, d)) < 1e-14


class TestLimitPencil:
    def test_constants_unit_eigenpair(self):
        mesh = build_interval_mesh(0, 1, 12)
        pen = assemble_limit_pencil(mesh, constant_profile_spec(0, 1, 0.5, 0.1), PARAMS)
        x = np.concatenate([np.zeros(25), np.ones(25)])
        r = pen.A @ x - pen.B @ x
        assert np.abs(r).max() < 1e-12

    def test_rigid_pair_unit_eigenpair(self):
        mesh = build_interval_mesh(0, 1, 12)
        pen = assemble_limit_pencil(mesh, trapezoid_spec(0.1), PARAMS)
        pts = p2_dof_points(mesh)
        Phi, phi = np.full_like(pts, -0.7), -0.7 * pts + 0.4
        x = np.concatenate([Phi, phi])
        r = pen.A @ x - pen.B @ x
        assert np.abs(r).max() < 1e-12 * max(1.0, np.abs(x).max())

    def test_kernel_dimension_two_dense_oracle(self):
        # (N - d) + 1 = 2 rigid pairs for the 1D limit; brute-force dense
        # eigendecomposition of a coarse pencil as the oracle
        import scipy.linalg

        mesh = build_interval_mesh(0, 1, 8)
        pen = assemble_limit_pencil(mesh, constant_profile_spec(0, 1, 0.5, 0.1), PARAMS)
        lam = scipy.linalg.eigh(pen.A.toarray(), pen.B.toarray(), eigvals_only=True)
        assert np.sum(np.abs(lam - 1.0) <= 1e-8) == 2
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
        assert np.sum(np.abs(res.eigenvalues - 1.0) <= 1e-8) == 2

    def test_weight_linearity(self):
        mesh = build_interval_mesh(0, 1, 9)
        base = assemble_limit_pencil(mesh, constant_profile_spec(0, 1, 0.5, 0.1), PARAMS)
        scaled = assemble_limit_pencil(mesh, constant_profile_spec(0, 1, 1.5, 0.1), PARAMS)
        assert_allclose(scaled.A.toarray(), 3.0 * base.A.toarray(), rtol=1e-12, atol=1e-12)
        assert_allclose(scaled.B.toarray(), 3.0 * base.B.toarray(), rtol=1e-12, atol=1e-15)

    def test_nonpositive_weight_rejected(self):
        # a profile spike between the constructor's validation samples can
        # still reach the assembler; it must refuse non-positive g values
        class SpikedSpec:
            base_interval = (0.0, 1.0)
            delta = 0.1
            d = 1

            def g(self, x):
                return 1.0 - 200.0 * np.maximum(0.0, 0.01 - np.abs(np.asarray(x) - 0.77))

        with pytest.raises(ValueError):
            assemble_limit_pencil(build_interval_mesh(0, 1, 40), SpikedSpec(), PARAMS)


class TestConnectingSystem:
    @pytest.mark.parametrize("spec_fn", [lambda d: constant_profile_spec(0, 1, 0.5, d), trapezoid_spec])
    @pytest.mark.parametrize("delta", [0.4, 0.1])
    def test_norm_identity(self, spec_fn, delta):
        cs = make_system(spec_fn(delta))
        rng = np.random.default_rng(1)
        n = len(p2_dof_points(cs.interval_mesh))
        for _ in range(5):
            Phi, phi = rng.standard_normal(n), rng.standard_normal(n)
            a = cs.hdelta_norm_extended(Phi, phi)
            b = cs.h0_norm(Phi, phi)
            assert abs(a - b) <= 1e-12 * b

    @pytest.mark.parametrize("spec_fn", [lambda d: constant_profile_spec(0, 1, 0.5, d), trapezoid_spec])
    def test_adjoint_identity(self, spec_fn):
        cs = make_system(spec_fn(0.2))
        rng = np.random.default_rng(2)
        n = len(p2_dof_points(cs.interval_mesh))
        for _ in range(5):
            u = rng.standard_normal(cs.thin_mesh.n_nodes)
            v = rng.standard_normal(n)
            lhs = cs.adjoint_lhs(u, v)
            rhs = cs.adjoint_rhs(u, v)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @settings(max_examples=10, deadline=None)
    @given(
        kinks=st.lists(st.floats(0.05, 0.95), max_size=3, unique=True),
        heights=st.lists(st.floats(0.05, 1.0), min_size=10, max_size=10),
        delta=st.floats(0.01, 0.5),
        nx=st.integers(2, 12),
        ny=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_identities_on_random_profiles(self, kinks, heights, delta, nx, ny, seed):
        # both identities are exact at the quadrature level for every
        # positive piecewise-linear profile, not only the two specs above
        xs = np.array([0.0, *sorted(kinks), 1.0])
        f1, f2 = np.array(heights[: len(xs)]), np.array(heights[5 : 5 + len(xs)])
        spec = ThinDomainSpec((0.0, 1.0), PiecewiseLinear(xs, f1), PiecewiseLinear(xs, f2), delta)
        cs = make_system(spec, nx, ny)
        rng = np.random.default_rng(seed)
        n = len(p2_dof_points(cs.interval_mesh))
        Phi, phi = rng.standard_normal(n), rng.standard_normal(n)
        b = cs.h0_norm(Phi, phi)
        assert abs(cs.hdelta_norm_extended(Phi, phi) - b) <= 1e-12 * b
        u = rng.standard_normal(cs.thin_mesh.n_nodes)
        lhs, rhs = cs.adjoint_lhs(u, phi), cs.adjoint_rhs(u, phi)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_average_of_constant(self):
        cs = make_system(trapezoid_spec(0.3))
        got = cs.average_to_p2(np.full(cs.thin_mesh.n_nodes, 2.5))
        assert_allclose(got, 2.5, atol=1e-13)

    def test_average_of_odd_function_vanishes(self):
        cs = make_system(constant_profile_spec(0, 1, 0.5, 0.2))
        got = cs.average_to_p2(cs.thin_mesh.nodes[:, 1])
        assert np.abs(got).max() < 1e-14

    def test_average_of_x_function_exact_at_nodes(self):
        cs = make_system(trapezoid_spec(0.2))
        vals = cs.thin_mesh.nodes[:, 0] ** 2
        got = cs.section_average(vals, cs.xs)
        assert_allclose(got, cs.xs**2, atol=1e-13)

    def test_average_of_nodal_extension_exact_at_vertices(self):
        cs = make_system(trapezoid_spec(0.25))
        rng = np.random.default_rng(5)
        n = len(p2_dof_points(cs.interval_mesh))
        Phi, phi = rng.standard_normal(n), rng.standard_normal(n)
        # nodal Q1 interpolant of the extension (Phi(x), 0, phi(x))
        x = cs.thin_mesh.nodes[:, 0]
        bx = p2_evaluate(cs.interval_mesh, Phi, x)
        pair = FieldPair(np.concatenate([bx, np.zeros_like(bx)]), p2_evaluate(cs.interval_mesh, phi, x))
        Phi_bar, phi_bar = cs.average_pair(pair)
        bII_bar = cs.average_to_p2(pair.beta[cs.thin_mesh.n_nodes :])
        nv = cs.interval_mesh.n_nodes
        assert_allclose(Phi_bar[:nv], Phi[:nv], atol=1e-12)
        assert_allclose(phi_bar[:nv], phi[:nv], atol=1e-12)
        assert np.abs(bII_bar).max() < 1e-13

    def test_keeps_only_the_rule_data_it_reads(self):
        # of the thin-side batch the system reads the points' x, the weights
        # and the basis values; the points' y and the Jacobians, which the
        # batch's lazy gradient holds, are not kept
        cs = make_system(trapezoid_spec(0.2))
        batch = element_batch(cs.thin_mesh, Q1_SCALAR, quad_rule(3, 2))
        assert not any(isinstance(v, ElementBatch) and v.w.shape == batch.w.shape for v in vars(cs).values())
        rng = np.random.default_rng(3)
        nodal = rng.standard_normal(cs.thin_mesh.n_nodes)
        coeffs = rng.standard_normal(len(p2_dof_points(cs.interval_mesh)))
        vals = rng.standard_normal(batch.w.shape)
        xq = batch.x[..., 0]
        assert np.array_equal(cs.q1_at_rule(nodal), np.einsum("eqi,ei->eq", batch.phi, nodal[cs.thin_mesh.elements]))
        assert np.array_equal(cs.p2x_at_rule(coeffs), p2_evaluate(cs.interval_mesh, coeffs, xq.ravel()).reshape(xq.shape))
        assert cs.integrate_thin(vals) == float(np.sum(batch.w * vals))

    def test_misaligned_interval_rejected(self):
        spec = constant_profile_spec(0, 1, 0.5, 0.2)
        thin = build_thin_mesh(spec, 16, 4)
        with pytest.raises(ValueError):
            ConnectingSystem(thin, build_interval_mesh(0, 1, 12), spec)

    def test_mesh_of_another_spec_rejected(self):
        # the section averages and norms read the profiles off the mesh, so a
        # spec that did not build it (another profile, another delta) would
        # give wrong gaps without an error
        thin = build_thin_mesh(constant_profile_spec(0, 1, 0.5, 0.1), 48, 6)
        interval = build_interval_mesh(0, 1, 48)
        for spec in (trapezoid_spec(0.1), constant_profile_spec(0, 1, 0.5, 0.2)):
            with pytest.raises(ValueError, match="not built with this spec"):
                ConnectingSystem(thin, interval, spec)
        for spec in (trapezoid_spec(0.1), constant_profile_spec(0, 1, 0.5, 0.1)):
            ConnectingSystem(build_thin_mesh(spec, 48, 6), interval, spec)


class TestResolventGap:
    def test_constant_data_gap_tiny(self):
        cs = make_system(constant_profile_spec(0, 1, 0.5, 0.2), nx=24, ny=3)
        n = len(p2_dof_points(cs.interval_mesh))
        gap = resolvent_gap(cs, PARAMS, np.zeros(n), np.ones(n))
        assert gap < 1e-10

    def test_rigid_data_gap_tiny(self):
        cs = make_system(constant_profile_spec(0, 1, 0.5, 0.2), nx=24, ny=3)
        pts = p2_dof_points(cs.interval_mesh)
        F, f = np.full_like(pts, 0.8), 0.8 * pts - 0.3
        gap = resolvent_gap(cs, PARAMS, F, f)
        assert gap < 1e-10

    def test_generic_data_sweep_decreases(self):
        gaps = []
        for delta in (0.4, 0.2, 0.1, 0.05):
            cs = make_system(constant_profile_spec(0, 1, 0.5, delta), nx=48, ny=4)
            f0 = p2_interpolate(cs.interval_mesh, lambda x: np.sin(np.pi * x))
            gaps.append(resolvent_gap(cs, PARAMS, np.zeros_like(f0), f0))
        assert np.all(np.diff(gaps) < 0)
        slope = np.polyfit(np.log([0.4, 0.2, 0.1, 0.05]), np.log(gaps), 1)[0]
        assert slope >= 0.45

    def test_rotation_block_data_sweep_decreases(self):
        # data in the rotation block exercises the t^2/12 load path
        gaps = []
        for delta in (0.4, 0.2, 0.1, 0.05):
            cs = make_system(constant_profile_spec(0, 1, 0.5, delta), nx=48, ny=4)
            F0 = p2_interpolate(cs.interval_mesh, lambda x: np.cos(np.pi * x))
            gaps.append(resolvent_gap(cs, PARAMS, F0, np.zeros_like(F0)))
        assert np.all(np.diff(gaps) < 0)
        slope = np.polyfit(np.log([0.4, 0.2, 0.1, 0.05]), np.log(gaps), 1)[0]
        assert slope >= 0.45

    def test_zero_data_rejected(self):
        cs = make_system(constant_profile_spec(0, 1, 0.5, 0.2))
        n = len(p2_dof_points(cs.interval_mesh))
        with pytest.raises(ValueError):
            resolvent_gap(cs, PARAMS, np.zeros(n), np.zeros(n))

    def test_zero_data_rejected_before_any_solve(self, monkeypatch):
        # the data norm needs only the connecting system, so no LU is made
        def no_lu(*args, **kwargs):
            raise AssertionError("factorize called for zero data")

        monkeypatch.setattr(eigensolve, "factorize", no_lu)
        monkeypatch.setattr(assemble, "factorize", no_lu)
        cs = make_system(constant_profile_spec(0, 1, 0.5, 0.2))
        n = len(p2_dof_points(cs.interval_mesh))
        with pytest.raises(ValueError, match="nonzero"):
            resolvent_gap(cs, PARAMS, np.zeros(n), np.zeros(n))

    def test_extended_load_needs_a_pencil_on_the_thin_mesh(self):
        cs = make_system(constant_profile_spec(0, 1, 0.5, 0.2))
        other = assemble_rm_pencil(build_thin_mesh(cs.spec, cs.nx, cs.ny), PARAMS, BcFamily.FREE)
        zeros = np.zeros(len(p2_dof_points(cs.interval_mesh)))
        with pytest.raises(ValueError, match="thin mesh"):
            cs.extended_load(other, PARAMS, zeros, zeros)


def test_every_source_solve_runs_through_the_one_solve(monkeypatch):
    # `rm_system.solve_source` is where a reduced load meets a pencil's LU,
    # so each source solve makes exactly one call of its `sparse_solve`
    calls = []

    def counted(A, load, factor):
        calls.append(A.shape)
        return eigensolve.sparse_solve(A, load, factor)

    monkeypatch.setattr(rm_system, "sparse_solve", counted)
    cs = make_system(constant_profile_spec(0, 1, 0.5, 0.2))
    thin = assemble_rm_pencil(cs.thin_mesh, PARAMS, BcFamily.FREE)
    limit = assemble_limit_pencil(cs.interval_mesh, cs.spec, PARAMS)
    f0 = p2_interpolate(cs.interval_mesh, lambda x: np.sin(np.pi * x))
    zeros = np.zeros(2 * cs.thin_mesh.n_nodes)
    solves = {
        "solve_rm_source": lambda: rm_system.solve_rm_source(thin, zeros, np.ones(cs.thin_mesh.n_nodes)),
        "solve_limit_source": lambda: solve_limit_source(limit, np.zeros_like(f0), f0),
        "solve_extended_source": lambda: solve_extended_source(cs, thin, PARAMS, np.zeros_like(f0), f0),
    }
    for name, solve in solves.items():
        calls.clear()
        solve()
        assert len(calls) == 1, (name, calls)


def test_no_nine_point_tabulation_of_a_thin_mesh(monkeypatch):
    # the thin load of extended data is built on the connecting system's 3x2
    # rule, so neither the delta sweep nor a standalone gap tabulates a thin
    # mesh on the 3x3 rule of a callable load
    rules = []

    def recorded(mesh, space, quad=None, cells=slice(None)):
        rules.append((mesh.meta.get("kind"), None if quad is None else len(quad.points)))
        return element_batch(mesh, space, quad, cells)

    for module in (rm_system, thin_limit, experiments):
        monkeypatch.setattr(module, "element_batch", recorded)
    config = experiments.SweepConfig(kind="delta", values=(0.4, 0.2, 0.1), mesh_n=16, mesh_ny=2)
    experiments.sweep_delta(config)
    cs = make_system(constant_profile_spec(0, 1, 0.5, 0.2))
    f0 = p2_interpolate(cs.interval_mesh, lambda x: np.sin(np.pi * x))
    resolvent_gap(cs, PARAMS, np.zeros_like(f0), f0)
    thin = [n for kind, n in rules if kind == "thin"]
    assert 6 in thin and 8 in thin  # the norm rule and the pencil's Gauss and shear points
    assert len(quad_rule(3).points) not in thin


class TestThinStrainRelaxation:
    def test_transverse_rotation_slope_matches_qjj(self):
        # the computed 2D solution realizes d(beta_y)/dy = q_jj * div Phi
        # through the thickness; this ties the limit-coefficient algebra to
        # the actual thin solve
        delta = 0.05
        cs = make_system(constant_profile_spec(0, 1, 0.5, delta), nx=96, ny=6)
        f0 = p2_interpolate(cs.interval_mesh, lambda x: np.sin(np.pi * x))
        pen = assemble_rm_pencil(cs.thin_mesh, PARAMS, BcFamily.FREE)
        pair = solve_extended_source(cs, pen, PARAMS, np.zeros_like(f0), f0)
        lp = assemble_limit_pencil(cs.interval_mesh, cs.spec, PARAMS)
        Phi0, _ = solve_limit_source(lp, np.zeros_like(f0), f0)

        nv = cs.thin_mesh.n_nodes
        by = pair.beta[nv:].reshape(cs.ny + 1, cs.nx + 1)
        dy = cs.Y[1, 0] - cs.Y[0, 0]
        mid = cs.ny // 2
        slope_y = (by[mid + 1] - by[mid]) / dy  # d beta_y / dy at midplane
        x_in = cs.xs[8:-8]
        h = 1e-6
        dPhi = (p2_evaluate(cs.interval_mesh, Phi0, x_in + h) - p2_evaluate(cs.interval_mesh, Phi0, x_in - h)) / (2 * h)
        measured = np.interp(x_in, 0.5 * (cs.xs[:-1] + cs.xs[1:]), 0.5 * (slope_y[:-1] + slope_y[1:]))
        q = qjj_value(PARAMS.sigma, 1, 1.0)  # per unit divergence
        assert_allclose(measured / dPhi, q, rtol=0.02)


class TestScaledGapFloor:
    def test_scaled_thin_block_converges_to_relaxation_constant(self):
        # with the 1/delta scaling on the transverse block the gap cannot
        # vanish: beta_y -> q(x) * y with q = -sigma * Phi0', so the block
        # contributes ||q||_{L2(g)} / sqrt(12) for every small delta
        from rmplates.assemble import element_batch
        from rmplates.spaces import P2_1D

        delta = 0.05
        cs = make_system(constant_profile_spec(0, 1, 0.5, delta), nx=96, ny=8)
        f0 = p2_interpolate(cs.interval_mesh, lambda x: np.sin(np.pi * x))
        F0 = np.zeros_like(f0)
        lp = assemble_limit_pencil(cs.interval_mesh, cs.spec, PARAMS)
        Phi0, phi0 = solve_limit_source(lp, F0, f0)

        batch = element_batch(cs.interval_mesh, P2_1D)
        e2g = lp.dofmap.element_to_global[:, :3]  # the Phi block
        dPhi = np.einsum("eqi,ei->eq", batch.grad[..., 0], Phi0[e2g])
        q_norm = np.sqrt(np.sum(batch.w * (PARAMS.sigma * dPhi) ** 2))
        floor = q_norm / np.sqrt(12.0) / cs.h0_norm(F0, f0)

        # the distance of `resolvent_gap` with the thin rotation block divided by delta
        pen = assemble_rm_pencil(cs.thin_mesh, PARAMS, BcFamily.FREE)
        pair = solve_extended_source(cs, pen, PARAMS, F0, f0)
        nv = cs.thin_mesh.n_nodes
        bI = cs.q1_at_rule(pair.beta[:nv]) - cs.p2x_at_rule(Phi0)
        bII = cs.q1_at_rule(pair.beta[nv:]) / delta
        wg = cs.q1_at_rule(pair.w) - cs.p2x_at_rule(phi0)
        scaled = np.sqrt(cs.integrate_thin(bI**2 + bII**2 + wg**2) / delta) / cs.h0_norm(F0, f0)
        plain = resolvent_gap(cs, PARAMS, F0, f0)
        assert abs(scaled - floor) / floor < 5e-3
        assert plain < 0.1 * scaled


def energy(pen, pair, delta, load=None):
    """Thin-domain energy 1/2 a_shifted(pair, pair) - load(pair), times
    delta^{-d} (d = 1); the source solve is its minimizer."""
    x = pen.dofmap.restrict(pair.concat())
    val = 0.5 * float(x @ (pen.A @ x))
    if load is not None:
        val -= float(load @ x)
    return val / delta


class TestEnergyFunctional:
    def test_homogeneous_coercivity(self):
        cs = make_system(constant_profile_spec(0, 1, 0.5, 0.2), nx=12, ny=3)
        pen = assemble_rm_pencil(cs.thin_mesh, PARAMS, BcFamily.FREE)
        nv = cs.thin_mesh.n_nodes
        zeros = np.zeros(len(p2_dof_points(cs.interval_mesh)))
        rng = np.random.default_rng(6)
        c = min(PARAMS.t**2 / 24.0, 0.5)
        for _ in range(20):
            pair = FieldPair(rng.standard_normal(2 * nv), rng.standard_normal(nv))
            hom = energy(pen, pair, cs.delta)
            norm2 = cs.hdelta_gap_norm(pair, zeros, zeros) ** 2
            assert hom >= c * norm2 - 1e-12 * max(1.0, norm2)

    def test_solution_minimizes(self):
        cs = make_system(constant_profile_spec(0, 1, 0.5, 0.2), nx=16, ny=3)
        pen = assemble_rm_pencil(cs.thin_mesh, PARAMS, BcFamily.FREE)
        f0 = p2_interpolate(cs.interval_mesh, lambda x: np.sin(np.pi * x))
        load = cs.extended_load(pen, PARAMS, np.zeros_like(f0), f0)

        sol = solve_extended_source(cs, pen, PARAMS, np.zeros_like(f0), f0)
        e_min = energy(pen, sol, cs.delta, load)
        rng = np.random.default_rng(7)
        nv = cs.thin_mesh.n_nodes
        for _ in range(10):
            other = FieldPair(
                sol.beta + 0.1 * rng.standard_normal(2 * nv), sol.w + 0.1 * rng.standard_normal(nv)
            )
            assert energy(pen, other, cs.delta, load) > e_min
