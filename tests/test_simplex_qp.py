import numpy as np
import pytest

from hmmar.simplex_qp import (QpProblem, SimplexPoint, _project_simplex,
                              _projected_gradient, brute_force_solve,
                              is_positive_definite, objective, solve_kkt)


def random_pd_problem(rng, M):
    A = rng.normal(size=(M, M))
    C = A @ A.T + 0.1 * np.eye(M)
    c = rng.uniform(0.1, 2.0, size=M)
    return QpProblem(C=C, c=c)


def kkt_residuals(p, sol):
    """Stationarity / complementary-slackness / dual-feasibility residuals.

    Uses the normalization in which the stationarity rows read
    C u - lambda + lambda_eq = c.
    """
    stat = p.C @ sol.u - sol.lam[:-1] + sol.lam[-1] - p.c
    comp = sol.lam[:-1] * sol.u
    dual = np.minimum(sol.lam[:-1], 0.0)
    return (np.max(np.abs(stat)), np.max(np.abs(comp)), np.max(np.abs(dual)))


class TestQpProblem:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QpProblem(C=np.array([[1.0, 0.2], [0.1, 1.0]]), c=np.array([1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            QpProblem(C=np.eye(2), c=np.array([1.0, 2.0, 3.0]))


class TestSimplexPoint:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint(u=np.array([-0.1, 1.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexPoint(u=np.array([0.6, 0.6]))

    @pytest.mark.parametrize("u", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_rejects_nan(self, u):
        with pytest.raises(ValueError):
            SimplexPoint(u=np.array(u))


class TestSolveKkt:
    def test_symmetric_instance(self):
        sol = solve_kkt(QpProblem(C=np.eye(2), c=np.array([0.3, 0.3])))
        np.testing.assert_allclose(sol.u, [0.5, 0.5], atol=1e-12)
        assert not sol.fallback

    def test_vertex_solution(self):
        p = QpProblem(C=np.eye(2), c=np.array([1.0, 0.0]))
        sol = solve_kkt(p)
        np.testing.assert_allclose(sol.u, [1.0, 0.0], atol=1e-12)
        grid = brute_force_solve(p, step=0.001)
        np.testing.assert_allclose(grid.u, [1.0, 0.0], atol=1e-12)

    def test_interior_solution(self):
        # stationarity with the equality constraint: 2u1 - 1.2 + lam = 0,
        # 2u2 - 0.8 + lam = 0, u1 + u2 = 1  =>  u = (0.6, 0.4)
        p = QpProblem(C=np.eye(2), c=np.array([0.6, 0.4]))
        sol = solve_kkt(p)
        np.testing.assert_allclose(sol.u, [0.6, 0.4], atol=1e-12)
        grid = brute_force_solve(p, step=0.001)
        assert objective(p, sol.u) <= objective(p, grid.u) + 1e-12

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_pd_problem(rng, 3)
            sol = solve_kkt(p)
            grid = brute_force_solve(p, step=0.005)
            assert objective(p, sol.u) <= objective(p, grid.u) + 1e-6

    def test_never_beaten_by_random_simplex_points(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            M = int(rng.integers(2, 5))
            p = random_pd_problem(rng, M)
            sol = solve_kkt(p)
            best = objective(p, sol.u)
            samples = rng.dirichlet(np.ones(M), size=1000)
            vals = np.einsum("ij,jk,ik->i", samples, p.C, samples) - 2.0 * samples @ p.c
            assert best <= vals.min() + 1e-8

    def test_kkt_certificate(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            M = int(rng.integers(2, 6))
            p = random_pd_problem(rng, M)
            sol = solve_kkt(p)
            assert not sol.fallback
            stat, comp, dual = kkt_residuals(p, sol)
            assert stat < 1e-8
            assert comp < 1e-10
            assert dual < 1e-10

    def test_deterministic(self):
        p = random_pd_problem(np.random.default_rng(37), 4)
        u1 = solve_kkt(p).u
        u2 = solve_kkt(p).u
        assert np.array_equal(u1, u2)

    def test_on_simplex_always(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            M = int(rng.integers(2, 6))
            p = random_pd_problem(rng, M)
            u = solve_kkt(p).u
            assert np.all(u >= 0.0)
            assert abs(u.sum() - 1.0) < 1e-10

    def test_singular_c_falls_back_symmetrically(self):
        # rank-1 C: objective is constant in directions (1,-1); the
        # projected-gradient fallback keeps the symmetric point
        p = QpProblem(C=np.ones((2, 2)), c=np.array([1.0, 1.0]))
        sol = solve_kkt(p)
        assert sol.fallback
        np.testing.assert_allclose(sol.u, [0.5, 0.5], atol=1e-9)

    def test_rejects_single_state(self):
        with pytest.raises(ValueError):
            solve_kkt(QpProblem(C=np.eye(1), c=np.array([1.0])))


class TestBruteForce:
    def test_symmetric_lattice_point(self):
        p = QpProblem(C=np.eye(3), c=np.full(3, 1.0 / 3.0))
        sol = brute_force_solve(p, step=1.0 / 3.0)
        np.testing.assert_allclose(sol.u, [1/3, 1/3, 1/3], atol=1e-12)

    def test_lexicographic_tie_break(self):
        # constant objective: every lattice point ties, first in lex order wins
        p = QpProblem(C=np.zeros((3, 3)), c=np.zeros(3))
        sol = brute_force_solve(p, step=0.5)
        np.testing.assert_allclose(sol.u, [0.0, 0.0, 1.0], atol=1e-12)

    def test_gap_to_kkt_bounded_by_lipschitz_step(self):
        rng = np.random.default_rng(43)
        step = 0.02
        for _ in range(100):
            M = int(rng.integers(2, 4))
            p = random_pd_problem(rng, M)
            kkt = solve_kkt(p)
            grid = brute_force_solve(p, step=step)
            lip = 2.0 * (np.abs(p.C).sum(axis=1).max() + np.abs(p.c).max())
            gap = objective(p, grid.u) - objective(p, kkt.u)
            assert -1e-9 <= gap <= 2.0 * lip * step

    def test_rejects_bad_step(self):
        p = QpProblem(C=np.eye(2), c=np.zeros(2))
        with pytest.raises(ValueError):
            brute_force_solve(p, step=0.0)
        with pytest.raises(ValueError):
            brute_force_solve(p, step=0.7)


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_all_ones_rank_one(self):
        assert not is_positive_definite(np.ones((3, 3)))

    def test_duplicated_emission_states(self):
        from hmmar.filters import emission_mixture_problem
        from hmmar.model import ArStateParams, SwitchingArModel, TransitionMatrix
        chain = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        states = [ArStateParams(0.5, [0.2], 0.3), ArStateParams(0.5, [0.2], 0.3)]
        rng = np.random.default_rng(47)
        x = rng.normal(size=60)
        model = SwitchingArModel(chain, states)
        p = emission_mixture_problem(x, n=60, model=model, tau=2, l=1, h=0.4)
        assert not is_positive_definite(p.C)
        # distinct states give a PD matrix
        states[1] = ArStateParams(1.5, [0.1], 0.4)
        model = SwitchingArModel(chain, states)
        p2 = emission_mixture_problem(x, n=60, model=model, tau=2, l=1, h=0.4)
        assert is_positive_definite(p2.C)


class TestProjectedGradient:
    def test_matches_kkt_on_pd_instance(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            p = random_pd_problem(rng, 3)
            u_pg = _projected_gradient(p.C, p.c)
            u_kkt = solve_kkt(p).u
            assert objective(p, u_pg) <= objective(p, u_kkt) + 1e-6

    def test_projection_properties(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            v = rng.normal(scale=3.0, size=5)
            u = _project_simplex(v)
            assert np.all(u >= 0.0)
            assert u.sum() == pytest.approx(1.0, abs=1e-12)
            # no random simplex point is closer to v
            others = rng.dirichlet(np.ones(5), size=200)
            d_u = np.sum((u - v) ** 2)
            d_o = np.sum((others - v) ** 2, axis=1)
            assert d_u <= d_o.min() + 1e-12

    def test_projection_fixes_simplex_points(self):
        u = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(_project_simplex(u), u, atol=1e-12)
