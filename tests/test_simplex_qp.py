from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hmmar.harness import load_config, run_experiment
from hmmar.simplex_qp import (SimplexPoint, _active_set_table, _project_simplex,
                              _projected_gradient, is_positive_definite,
                              solve_kkt)
from lattice_oracle import (brute_force_solve, objective, reference_enumerate_kkt,
                            reference_mask_order)


def random_pd_problem(rng, M):
    A = rng.normal(size=(M, M))
    C = A @ A.T + 0.1 * np.eye(M)
    c = rng.uniform(0.1, 2.0, size=M)
    return C, c


def kkt_residuals(C, c, sol):
    """Stationarity / complementary-slackness / dual-feasibility residuals.

    Uses the normalization in which the stationarity rows read
    C u - lambda + lambda_eq = c.
    """
    stat = C @ sol.u - sol.lam[:-1] + sol.lam[-1] - c
    comp = sol.lam[:-1] * sol.u
    dual = np.minimum(sol.lam[:-1], 0.0)
    return (np.max(np.abs(stat)), np.max(np.abs(comp)), np.max(np.abs(dual)))


DATA = Path(__file__).parent / "data"


def assert_same_point(sol, ref):
    """Equal u and lambda, bit for bit: np.array_equal alone takes -0.0 for 0.0."""
    for got, want in ((sol.u, ref.u), (sol.lam, ref.lam)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestSolveKktRejects:
    def test_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_kkt(np.array([[1.0, 0.2], [0.1, 1.0]]), np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="length 2"):
            solve_kkt(np.eye(2), np.array([1.0, 2.0, 3.0]))

    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            solve_kkt(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("where", ["C diagonal", "C off-diagonal", "c"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, where, value):
        C, c = np.eye(3) + 0.1, np.array([0.5, 0.3, 0.2])
        if where == "C diagonal":
            C[1, 1] = value
        elif where == "C off-diagonal":
            C[0, 2] = C[2, 0] = value
        else:
            c[1] = value
        with pytest.raises(ValueError, match="finite"):
            solve_kkt(C, c)


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

    def test_rejects_a_matrix(self):
        # and an empty vector, whose minimum numpy cannot take
        for u, shape in (([[1.0]], r"\(1, 1\)"), ([], r"\(0,\)")):
            with pytest.raises(ValueError, match=rf"^u must be a non-empty vector, got shape "
                                                 rf"{shape}$"):
                SimplexPoint(u=u)


class TestSolveKkt:
    def test_no_residual_passing_row_falls_back(self, monkeypatch):
        # every reduced solution off by 1.0: each system's last row, sum(u) = 1, misses by at
        # least 1, so no active set is accepted and the projected gradient answers
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: solve(A, b) + 1.0)
        sol = solve_kkt(np.eye(2), np.array([0.3, 0.3]))
        assert sol.fallback and sol.lam is None
        np.testing.assert_allclose(sol.u, [0.5, 0.5], atol=1e-9)

    def test_symmetric_instance(self):
        sol = solve_kkt(np.eye(2), np.array([0.3, 0.3]))
        np.testing.assert_allclose(sol.u, [0.5, 0.5], atol=1e-12)
        assert not sol.fallback

    def test_vertex_solution(self):
        C, c = np.eye(2), np.array([1.0, 0.0])
        sol = solve_kkt(C, c)
        np.testing.assert_allclose(sol.u, [1.0, 0.0], atol=1e-12)
        grid = brute_force_solve(C, c, step=0.001)
        np.testing.assert_allclose(grid.u, [1.0, 0.0], atol=1e-12)

    def test_interior_solution(self):
        # stationarity with the equality constraint: 2u1 - 1.2 + lam = 0,
        # 2u2 - 0.8 + lam = 0, u1 + u2 = 1  =>  u = (0.6, 0.4)
        C, c = np.eye(2), np.array([0.6, 0.4])
        sol = solve_kkt(C, c)
        np.testing.assert_allclose(sol.u, [0.6, 0.4], atol=1e-12)
        grid = brute_force_solve(C, c, step=0.001)
        assert objective(C, c, sol.u) <= objective(C, c, grid.u) + 1e-12

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            C, c = random_pd_problem(rng, 3)
            sol = solve_kkt(C, c)
            grid = brute_force_solve(C, c, step=0.005)
            assert objective(C, c, sol.u) <= objective(C, c, grid.u) + 1e-6

    def test_never_beaten_by_random_simplex_points(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            M = int(rng.integers(2, 5))
            C, c = random_pd_problem(rng, M)
            sol = solve_kkt(C, c)
            best = objective(C, c, sol.u)
            samples = rng.dirichlet(np.ones(M), size=1000)
            vals = np.einsum("ij,jk,ik->i", samples, C, samples) - 2.0 * samples @ c
            assert best <= vals.min() + 1e-8

    def test_kkt_certificate(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            M = int(rng.integers(2, 6))
            C, c = random_pd_problem(rng, M)
            sol = solve_kkt(C, c)
            assert not sol.fallback
            stat, comp, dual = kkt_residuals(C, c, sol)
            assert stat < 1e-8
            assert comp < 1e-10
            assert dual < 1e-10

    def test_deterministic(self):
        C, c = random_pd_problem(np.random.default_rng(37), 4)
        u1 = solve_kkt(C, c).u
        u2 = solve_kkt(C, c).u
        assert np.array_equal(u1, u2)

    def test_on_simplex_always(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            M = int(rng.integers(2, 6))
            u = solve_kkt(*random_pd_problem(rng, M)).u
            assert np.all(u >= 0.0)
            assert abs(u.sum() - 1.0) < 1e-10

    def test_exactly_singular_reduced_system_falls_back(self):
        # C = a * ones is singular, but the rounding of its Cholesky factor leaves
        # a last pivot of 4.3e-5; its square, 1.85e-9, is below the scaled floor
        # 1e-12 * 8912896, so the definiteness test rejects C and the step falls back
        C, c = np.full((2, 2), 8912896.0), np.array([1.0, 3.0])
        assert np.linalg.cholesky(C)[1, 1] ** 2 > 1e-12
        assert not is_positive_definite(C)
        sol = solve_kkt(C, c)
        u = _projected_gradient(C, c)
        assert sol.fallback and sol.lam is None
        assert np.array_equal(sol.u, u / u.sum())

    def test_raising_stacked_solve_falls_back(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")
        C, c = np.eye(2), np.array([1.0, 3.0])
        monkeypatch.setattr(np.linalg, "solve", singular)
        sol = solve_kkt(C, c)
        u = _projected_gradient(C, c)
        assert sol.fallback and sol.lam is None
        assert np.array_equal(sol.u, u / u.sum())

    def test_singular_c_falls_back_symmetrically(self):
        # rank-1 C: objective is constant in directions (1,-1); the
        # projected-gradient fallback keeps the symmetric point
        sol = solve_kkt(np.ones((2, 2)), np.array([1.0, 1.0]))
        assert sol.fallback
        np.testing.assert_allclose(sol.u, [0.5, 0.5], atol=1e-9)

    def test_single_state_is_a_certificate(self):
        # the one reduced system [[C00, 1], [1, 0]] gives u = [1] and lambda_eq = c0 - C00
        for C00, c0 in ((1.0, 1.0), (0.28, -3.0), (2.5, 0.7)):
            C, c = np.array([[C00]]), np.array([c0])
            sol = solve_kkt(C, c)
            assert np.array_equal(sol.u, [1.0]) and not sol.fallback
            stat, comp, dual = kkt_residuals(C, c, sol)
            assert stat < 1e-12 and comp == 0.0 and dual == 0.0
        with pytest.raises(ValueError, match="^need at least 1 state, got M = 0$"):
            solve_kkt(np.zeros((0, 0)), np.zeros(0))

    def test_more_states_than_the_limit_are_refused_before_any_table(self):
        # each state doubles the table of 2^M - 1 systems; past MAX_STATES = 12 none is built
        cached = _active_set_table.cache_info().currsize
        with pytest.raises(ValueError, match="^need at most 12 states, got M = 13$"):
            solve_kkt(np.eye(13), np.zeros(13))
        assert _active_set_table.cache_info().currsize == cached


class TestStackedEnumeration:
    def test_mask_table_follows_reference_order(self):
        for M in range(2, 7):
            masks = np.array(_active_set_table(M)[0], dtype=int) @ (1 << np.arange(M))
            assert masks.tolist() == reference_mask_order(M)[:-1]  # all-active dropped

    def test_bit_identical_to_per_mask_reference(self):
        # a third each: interior optimum u0, vertex optimum e_j, random c
        rng = np.random.default_rng(61)
        kinds = {"interior": 0, "vertex": 0, "face": 0}
        for trial in range(300):
            M = int(rng.integers(2, 7))
            A = rng.normal(size=(M, M))
            C = A @ A.T + 0.05 * np.eye(M)
            lam_eq = rng.normal()
            if trial % 3 == 0:
                c = C @ rng.dirichlet(np.ones(M)) + lam_eq
            elif trial % 3 == 1:
                j = int(rng.integers(M))
                lam = rng.uniform(0.01, 1.0, size=M)
                lam[j] = 0.0
                c = C[:, j] - lam + lam_eq
            else:
                c = rng.uniform(-1.0, 2.0, size=M)
            sol, ref = solve_kkt(C, c), reference_enumerate_kkt(C, c)
            assert ref is not None and not sol.fallback
            assert_same_point(sol, ref)
            free = int(np.count_nonzero(sol.u))
            kinds["interior" if free == M else "vertex" if free == 1 else "face"] += 1
        assert min(kinds.values()) >= 50, kinds

    def test_free_coordinate_solved_to_minus_zero_clips_to_plus_zero(self):
        # the all-free system solves u_1 to -0.0; the clip must give +0.0, as
        # np.maximum does (Python's max(-0.0, 0.0) is -0.0)
        C, c = np.array([[3.0, -4.0], [-4.0, 9.0]]), np.array([-4.5, 8.5])
        sol = solve_kkt(C, c)
        assert_same_point(sol, reference_enumerate_kkt(C, c))
        assert sol.u.tolist() == [0.0, 1.0] and not np.signbit(sol.u).any()

    @pytest.mark.parametrize("name", ["golden_example", "golden_qp_dense"])
    def test_filter_qps_match_per_mask_reference(self, name, monkeypatch):
        # every QP the nonparametric filter solves in two repeats of a golden config
        import hmmar.filters as filters
        qps = []

        def recorded(C, c):
            qps.append((C, c))
            return solve_kkt(C, c)

        monkeypatch.setattr(filters, "solve_kkt", recorded)
        run_experiment(replace(load_config(DATA / f"{name}.json"), repeats=2))
        assert len(qps) >= 400
        for C, c in qps:
            sol, ref = solve_kkt(C, c), reference_enumerate_kkt(C, c)
            assert sol.fallback == (ref is None)
            if ref is not None:
                assert_same_point(sol, ref)


class TestBruteForce:
    def test_symmetric_lattice_point(self):
        sol = brute_force_solve(np.eye(3), np.full(3, 1.0 / 3.0), step=1.0 / 3.0)
        np.testing.assert_allclose(sol.u, [1/3, 1/3, 1/3], atol=1e-12)

    def test_lexicographic_tie_break(self):
        # constant objective: every lattice point ties, first in lex order wins
        sol = brute_force_solve(np.zeros((3, 3)), np.zeros(3), step=0.5)
        np.testing.assert_allclose(sol.u, [0.0, 0.0, 1.0], atol=1e-12)

    def test_gap_to_kkt_bounded_by_lipschitz_step(self):
        rng = np.random.default_rng(43)
        step = 0.02
        for _ in range(100):
            M = int(rng.integers(2, 4))
            C, c = random_pd_problem(rng, M)
            kkt = solve_kkt(C, c)
            grid = brute_force_solve(C, c, step=step)
            lip = 2.0 * (np.abs(C).sum(axis=1).max() + np.abs(c).max())
            gap = objective(C, c, grid.u) - objective(C, c, kkt.u)
            assert -1e-9 <= gap <= 2.0 * lip * step

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            brute_force_solve(np.eye(2), np.zeros(2), step=0.0)
        with pytest.raises(ValueError):
            brute_force_solve(np.eye(2), np.zeros(2), step=0.7)


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
        C, _ = emission_mixture_problem(x, n=60, means=model.ar_means(x[-2:-1]), model=model,
                                        tau=2, l=1, h=0.4)
        assert not is_positive_definite(C)
        # distinct states give a PD matrix
        states[1] = ArStateParams(1.5, [0.1], 0.4)
        model = SwitchingArModel(chain, states)
        C2, _ = emission_mixture_problem(x, n=60, means=model.ar_means(x[-2:-1]), model=model,
                                         tau=2, l=1, h=0.4)
        assert is_positive_definite(C2)


class TestProjectedGradient:
    def test_matches_kkt_on_pd_instance(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            C, c = random_pd_problem(rng, 3)
            u_pg = _projected_gradient(C, c)
            u_kkt = solve_kkt(C, c).u
            assert objective(C, c, u_pg) <= objective(C, c, u_kkt) + 1e-6

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
