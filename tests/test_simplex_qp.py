from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hmmar.harness import load_config, run_experiment
import hmmar.simplex_qp as simplex_qp
from hmmar.simplex_qp import (SimplexPoint, _project_simplex, _projected_gradient,
                              _table_order, is_positive_definite, solve_kkt)
from lattice_oracle import (brute_force_solve, objective, reference_enumerate_kkt,
                            reference_mask_order)


def random_pd_problem(rng, M):
    A = rng.normal(size=(M, M))
    C = A @ A.T + 0.1 * np.eye(M)
    c = rng.uniform(0.1, 2.0, size=M)
    return C, c


def random_families(rng, trials):
    """``(C, c)`` pairs, M in 2..12, whose optima are interior, vertices or random faces."""
    for trial in range(trials):
        M = int(rng.integers(2, 13))
        C, c = random_pd_problem(rng, M)
        if trial % 3 == 0:
            c = C @ rng.dirichlet(np.ones(M)) + rng.normal()
        elif trial % 3 == 1:
            j = int(rng.integers(M))
            lam = rng.uniform(0.01, 1.0, size=M)
            lam[j] = 0.0
            c = C[:, j] - lam + rng.normal()
        yield C, c


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


def assert_same_face(sol, ref, C, c, noise=()):
    """``sol`` is the per-mask reference's answer: the same fallback flag (``ref`` None), the
    same active set (the nonzero multipliers) and zero pattern of u, and u and lambda within
    1e-12 times the scale of C and c.  A coordinate in ``noise`` is left out of the zero
    pattern: both solves leave it a rounding error of either sign, which the clip may zero."""
    assert sol.fallback == (ref is None)
    if ref is None:
        return
    scale = max(1.0, np.abs(C).max(), np.abs(c).max())
    assert np.array_equal(sol.lam[:-1] != 0.0, ref.lam[:-1] != 0.0)
    keep = np.ones(len(c), dtype=bool)
    keep[list(noise)] = False
    assert np.array_equal((sol.u == 0.0)[keep], (ref.u == 0.0)[keep])
    assert np.abs(sol.u - ref.u).max() <= 1e-12 * scale
    assert np.abs(sol.lam - ref.lam).max() <= 1e-12 * scale


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
        # every face's point off by 1.0: its sum(u) = 1 row misses by at least 1, so the
        # residual test fails and the projected gradient answers
        face_point = simplex_qp._face_point

        def off_by_one(*args):
            u, lam_eq = face_point(*args)
            return [v + 1.0 for v in u], lam_eq

        monkeypatch.setattr(simplex_qp, "_face_point", off_by_one)
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
        # C = a * ones is singular, but the rounding of its Cholesky factor (LAPACK's and
        # the solver's own alike) leaves a last squared pivot of 1.86e-9, below the scaled
        # floor 1e-12 * 8912896, so the definiteness test rejects C and the step falls back
        C, c = np.full((2, 2), 8912896.0), np.array([1.0, 3.0])
        assert np.linalg.cholesky(C)[1, 1] ** 2 > 1e-12
        assert not is_positive_definite(C)
        sol = solve_kkt(C, c)
        u = _projected_gradient(C, c)
        assert sol.fallback and sol.lam is None
        assert np.array_equal(sol.u, u / u.sum())

    def test_raising_stacked_solve_falls_back(self, monkeypatch):
        # the all-free face gives u = (-0.5, 1.5), so the method moves to the face u_1 = 0;
        # that face's factor reads a zeroed C and meets a pivot of 0, and the step falls back
        factor = simplex_qp._factor

        def singular_faces(rows, c, free, *rest):
            if len(free) < len(rows):
                rows = [[0.0] * len(row) for row in rows]
            return factor(rows, c, free, *rest)

        C, c = np.eye(2), np.array([1.0, 3.0])
        monkeypatch.setattr(simplex_qp, "_factor", singular_faces)
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
        # the one face gives u = [1] and lambda_eq = c0 - C00
        for C00, c0 in ((1.0, 1.0), (0.28, -3.0), (2.5, 0.7)):
            C, c = np.array([[C00]]), np.array([c0])
            sol = solve_kkt(C, c)
            assert np.array_equal(sol.u, [1.0]) and not sol.fallback
            stat, comp, dual = kkt_residuals(C, c, sol)
            assert stat < 1e-12 and comp == 0.0 and dual == 0.0
        with pytest.raises(ValueError, match="^need at least 1 state, got M = 0$"):
            solve_kkt(np.zeros((0, 0)), np.zeros(0))

    def test_more_states_than_the_limit_are_refused_before_any_table(self):
        # past MAX_STATES = 12 the input is refused before any face is solved or ordered
        cached = _table_order.cache_info().currsize
        with pytest.raises(ValueError, match="^need at most 12 states, got M = 13$"):
            solve_kkt(np.eye(13), np.zeros(13))
        assert _table_order.cache_info().currsize == cached

    def test_the_solve_calls_no_lapack(self, monkeypatch):
        # outside the projected-gradient fallback the solve is Python floats: with LAPACK's
        # solve and Cholesky raising, every random problem is still solved without fallback
        def lapack(*args, **kwargs):
            raise AssertionError("solve_kkt called LAPACK")
        monkeypatch.setattr(np.linalg, "solve", lapack)
        monkeypatch.setattr(np.linalg, "cholesky", lapack)
        for C, c in random_families(np.random.default_rng(67), 60):
            assert not solve_kkt(C, c).fallback


class TestStackedEnumeration:
    """The active-set method returns the face that the per-mask enumeration accepts first."""

    def test_mask_table_follows_reference_order(self):
        for M in range(2, 7):
            assert list(_table_order((1 << M) - 1)) == reference_mask_order(M)

    def test_bit_identical_to_per_mask_reference(self, monkeypatch):
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
            assert_same_face(sol, ref, C, c)
            free = int(np.count_nonzero(sol.u))
            kinds["interior" if free == M else "vertex" if free == 1 else "face"] += 1
        assert min(kinds.values()) >= 50, kinds

        # weakly active: u_j = 0 with lambda_j = 0 at the optimum, next to a bound u_k = 0
        # with lambda_k > 0.  The faces {k} and {j, k} both pass, and the table order picks
        # {k}; in some trials the method's path passes {j, k} first and the order moves it
        moved = []
        first_in_table_order = simplex_qp._first_in_table_order

        def recorded(rows, c, scale, free, u, lam):
            got = first_in_table_order(rows, c, scale, free, u, lam)
            moved.append(got[0] is not u)
            return got

        monkeypatch.setattr(simplex_qp, "_first_in_table_order", recorded)
        rng = np.random.default_rng(71)
        for _ in range(300):
            M = int(rng.integers(3, 7))
            A = rng.normal(size=(M, M))
            C = A @ A.T + 0.05 * np.eye(M)
            j, k = rng.choice(M, size=2, replace=False)
            u = rng.dirichlet(np.ones(M))
            u[[j, k]] = 0.0
            lam = np.zeros(M)
            lam[k] = rng.uniform(0.01, 1.0)
            c = C @ (u / u.sum()) - lam + rng.normal()
            sol, ref = solve_kkt(C, c), reference_enumerate_kkt(C, c)
            assert ref is not None and ref.lam[j] == 0.0 and ref.lam[k] > 0.0
            assert_same_face(sol, ref, C, c, noise=[j])
        assert sum(moved) >= 5, sum(moved)

    def test_free_coordinate_solved_to_minus_zero_clips_to_plus_zero(self):
        # the all-free face solves u_1 to exactly 0 here (LAPACK's per-mask solve gives -0.0);
        # the clip must give +0.0 either way, as np.maximum does (Python's max(-0.0, 0.0)
        # is -0.0)
        C, c = np.array([[3.0, -4.0], [-4.0, 9.0]]), np.array([-4.5, 8.5])
        sol = solve_kkt(C, c)
        assert_same_face(sol, reference_enumerate_kkt(C, c), C, c)
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
            assert_same_face(solve_kkt(C, c), reference_enumerate_kkt(C, c), C, c)


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
