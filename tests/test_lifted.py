import json

import numpy as np
import pytest

from cgilc import (
    LiftedSystem,
    LiftingError,
    Signal,
    StateSpace,
    generate_system,
    lift,
    load_system,
    save_system,
)
from conftest import rel_err, simulate_response, small_system
from reference import TimeReversal, adjoint_apply, apply, time_reverse


def static_gain_ss(gain=2.0):
    return StateSpace(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                      C=np.zeros((1, 0)), D=np.array([[gain]]))


def delay_ss():
    # one-sample delay: D=0, CB=1, CA^k B = 0 for k >= 1
    return StateSpace(A=np.array([[0.0]]), B=np.array([[1.0]]),
                      C=np.array([[1.0]]), D=np.array([[0.0]]))


class TestStateSpace:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="spectral radius"):
            StateSpace(A=np.array([[1.0]]), B=np.array([[1.0]]),
                       C=np.array([[1.0]]), D=np.array([[0.0]]))

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(ValueError):
            StateSpace(A=np.eye(2) * 0.5, B=np.ones((2, 1)),
                       C=np.ones((1, 2)), D=np.ones((2, 2)))

    @pytest.mark.parametrize("A,B,C,match", [
        (np.zeros((2, 3)), np.ones((2, 1)), np.ones((1, 2)), "square"),
        (np.eye(2) * 0.5, np.ones((3, 1)), np.ones((1, 2)), "rows"),
        (np.eye(2) * 0.5, np.ones((2, 1)), np.ones((1, 3)), "columns"),
        (np.eye(2) * 0.5, np.array([[1.0], [np.nan]]), np.ones((1, 2)), "finite"),
        (np.eye(2) * 0.5, np.ones((2, 1)), np.array([[np.inf, 1.0]]), "finite"),
    ], ids=["non_square_A", "B_rows", "C_columns", "nan_in_B", "inf_in_C"])
    def test_rejects_malformed_matrices(self, A, B, C, match):
        with pytest.raises(ValueError, match=match):
            StateSpace(A=A, B=B, C=C, D=np.zeros((1, 1)))

    def test_dimension_metadata(self):
        ss = generate_system(5, 2, 3, seed=0)
        assert (ss.n_x, ss.n_i, ss.n_o) == (5, 2, 3)

    def test_caller_arrays_stay_writeable(self, rng):
        arrays = [np.array([[0.5]]), np.array([[1.0, -1.0]]), np.array([[1.0], [2.0]]),
                  np.array([[0.0, 1.0], [1.0, 0.0]])]
        ss = StateSpace(*arrays)
        assert all(a.flags.writeable for a in arrays)
        u = rng.standard_normal(8)
        before = lift(ss, 4).product(u)
        for a in arrays:
            a[...] = 0.25
        assert ss.A.tolist() == [[0.5]] and ss.D.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert np.array_equal(lift(ss, 4).product(u), before)


class TestSignal:
    def test_length_must_match(self):
        with pytest.raises(ValueError, match="length"):
            Signal(np.zeros(5), "input", N=3, channels=2)

    def test_copies_the_callers_array(self):
        a = np.zeros(4)
        s = Signal(a, "input", 2, 2)
        a[0] = 5.0
        assert s.data.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert a.flags.writeable
        with pytest.raises(ValueError):
            s.data[0] = 1.0

    def test_immutable(self):
        s = Signal(np.zeros(4), "input", N=4, channels=1)
        with pytest.raises(ValueError):
            s.data[0] = 1.0

    @pytest.mark.parametrize("N,channels,match", [
        (0, 2, "N must be >= 1, got 0"),
        (2, 0, "channels must be >= 1, got 0"),
        (True, 2, "N must be an integer, got True"),
        (2.0, 1, "N must be an integer, got 2.0"),
    ])
    def test_sizes_checked(self, N, channels, match):
        with pytest.raises(ValueError, match=match):
            Signal(np.zeros(int(N * channels)), "output", N, channels)

    def test_space_tag_checked(self):
        with pytest.raises(ValueError, match="space"):
            Signal(np.zeros(4), "sideways", N=4, channels=1)


class TestLift:
    def test_static_gain_is_scaled_identity(self):
        J = lift(static_gain_ss(2.0), N=3)
        assert np.array_equal(J.matrix, 2.0 * np.eye(3))

    def test_single_sample_trial_equals_feedthrough(self):
        ss = generate_system(3, 2, 2, seed=7)
        J = lift(ss, N=1)
        assert np.allclose(J.matrix, ss.D, rtol=0, atol=0)

    def test_delay_puts_ones_on_subdiagonal(self):
        J = lift(delay_ss(), N=3)
        expected = np.diag([1.0, 1.0], k=-1)
        assert np.array_equal(J.matrix, expected)

    def test_columns_match_impulse_simulation(self):
        # independent oracle: impulse responses from the state recursion
        ss, J = small_system(seed=3, n_x=5, n_i=2, n_o=3, N=6)
        N = 6
        for m in range(ss.n_i):
            for k in range(N):
                u = np.zeros((ss.n_i, N))
                u[m, k] = 1.0
                y = simulate_response(ss, u)
                col = J.matrix[:, m * N + k]
                assert rel_err(col, y.reshape(-1)) < 1e-13

    def test_toeplitz_causal_structure(self):
        ss, J = small_system(seed=11, n_x=6, n_i=2, n_o=2, N=7)
        N = J.N
        for l in range(ss.n_o):
            for m in range(ss.n_i):
                blk = J.matrix[l * N:(l + 1) * N, m * N:(m + 1) * N]
                assert np.array_equal(np.triu(blk, k=1), np.zeros_like(blk))
                assert np.allclose(blk[:-1, :-1], blk[1:, 1:], rtol=0, atol=0)

    def test_nonfinite_markov_raises(self):
        ss = StateSpace(A=np.array([[0.5]]), B=np.array([[1e300]]),
                        C=np.array([[1e300]]), D=np.array([[0.0]]))
        with np.errstate(over="ignore"), pytest.raises(LiftingError):
            lift(ss, N=4)

    def test_requires_positive_length(self):
        with pytest.raises(ValueError):
            lift(static_gain_ss(), N=0)

    def test_requires_integer_length(self):
        with pytest.raises(ValueError, match="N must be an integer"):
            lift(static_gain_ss(), N=2.0)


class TestLiftedSystem:
    def test_shape_comes_from_the_markov_parameters(self):
        J = LiftedSystem(np.zeros((5, 3, 2)))
        assert (J.N, J.n_o, J.n_i) == (5, 3, 2)
        assert J.matrix.shape == (15, 10)

    @pytest.mark.parametrize("shape", [(4, 4), (0, 2, 2), (4, 0, 2), (4, 2, 0)])
    def test_rejects_malformed_arrays(self, shape):
        with pytest.raises(ValueError, match="shape"):
            LiftedSystem(np.zeros(shape))

    def test_rejects_nonfinite_entries(self):
        markov = np.zeros((4, 2, 2))
        markov[2, 1, 0] = np.nan
        with pytest.raises(LiftingError):
            LiftedSystem(markov)

    def test_dense_matrix_is_built_on_first_use(self):
        J = lift(generate_system(3, 2, 2, seed=1), 6)
        assert "matrix" not in vars(J)
        assert J.matrix is J.matrix
        assert not J.matrix.flags.writeable

    def test_caller_array_stays_writeable(self, rng):
        markov = rng.standard_normal((4, 2, 3))
        reference = LiftedSystem(markov.copy())
        J = LiftedSystem(markov)
        assert markov.flags.writeable
        assert not J.markov.flags.writeable
        markov[...] = 0.0  # before the dense matrix exists
        u = rng.standard_normal(12)
        assert np.array_equal(J.product(u), reference.product(u))
        assert np.array_equal(J.matrix, reference.matrix)


class TestApply:
    def test_zero_input_zero_output(self):
        _, J = small_system()
        y = apply(J, Signal(np.zeros(J.N * J.n_i), "input", J.N, J.n_i))
        assert np.array_equal(y.data, np.zeros(J.N * J.n_o))

    def test_static_gain_scales(self, rng):
        J = lift(static_gain_ss(2.0), N=4)
        f = Signal(rng.standard_normal(4), "input", 4, 1)
        assert np.allclose(apply(J, f).data, 2.0 * f.data, rtol=1e-15)

    def test_linearity(self, rng):
        _, J = small_system(seed=5)
        f1 = Signal(rng.standard_normal(J.N * J.n_i), "input", J.N, J.n_i)
        f2 = Signal(rng.standard_normal(J.N * J.n_i), "input", J.N, J.n_i)
        lhs = apply(J, Signal(f1.data + f2.data, "input", J.N, J.n_i)).data
        rhs = apply(J, f1).data + apply(J, f2).data
        assert rel_err(lhs, rhs) < 1e-12

    def test_matches_state_recursion(self, rng):
        ss, J = small_system(seed=9, n_x=6, n_i=3, n_o=2, N=10)
        u = rng.standard_normal((ss.n_i, 10))
        y_sim = simulate_response(ss, u)
        y_lift = apply(J, Signal(u.reshape(-1), "input", 10, ss.n_i))
        assert rel_err(y_lift.data, y_sim.reshape(-1)) < 1e-12

    def test_dimension_mismatch(self):
        _, J = small_system()
        with pytest.raises(ValueError):
            apply(J, Signal(np.zeros((J.N + 1) * J.n_i), "input", J.N + 1, J.n_i))
        with pytest.raises(ValueError):
            apply(J, Signal(np.zeros(J.N * J.n_o), "output", J.N, J.n_o))


class TestTimeReversal:
    def test_single_channel(self):
        s = Signal([1.0, 2.0, 3.0], "output", 3, 1)
        assert time_reverse(s).data.tolist() == [3.0, 2.0, 1.0]

    def test_involution(self, rng):
        s = Signal(rng.standard_normal(12), "input", 4, 3)
        assert np.array_equal(time_reverse(time_reverse(s)).data, s.data)

    def test_per_channel(self):
        s = Signal([1.0, 2.0, 3.0, 4.0], "output", 2, 2)
        assert time_reverse(s).data.tolist() == [2.0, 1.0, 4.0, 3.0]

    def test_matrix_is_involutory_permutation(self):
        T = TimeReversal(N=4, channels=2).matrix()
        assert np.array_equal(T @ T, np.eye(8))
        assert np.array_equal(np.sort(T.sum(axis=0)), np.ones(8))


class TestAdjoint:
    def test_inner_product_identity(self, rng):
        _, J = small_system(seed=2, n_x=5, n_i=2, n_o=3, N=6)
        for _ in range(100):
            f = Signal(rng.standard_normal(J.N * J.n_o), "output", J.N, J.n_o)
            g = Signal(rng.standard_normal(J.N * J.n_i), "input", J.N, J.n_i)
            lhs = f.data.dot(apply(J, g).data)
            rhs = adjoint_apply(J, f).data.dot(g.data)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_siso_adjoint_by_double_reversal(self, rng):
        # J^T v = T J T v for SISO
        _, J = small_system(seed=6, n_x=4, n_i=1, n_o=1, N=9)
        v = Signal(rng.standard_normal(9), "output", 9, 1)
        direct = adjoint_apply(J, v)
        tv = Signal(time_reverse(v).data, "input", 9, 1)
        alt = time_reverse(apply(J, tv))
        assert rel_err(direct.data, alt.data) < 1e-12

    def test_mimo_adjoint_via_block_transpose(self, rng):
        ss, J = small_system(seed=8, n_x=5, n_i=2, n_o=2, N=6)
        N = J.N
        # block-transposed grid: block (l, m) of the new operator is J^{ml}
        Jt = np.zeros((N * J.n_i, N * J.n_o))
        for l in range(J.n_i):
            for m in range(J.n_o):
                l_rows, m_rows = slice(l * N, (l + 1) * N), slice(m * N, (m + 1) * N)
                Jt[l_rows, m_rows] = J.matrix[m_rows, l_rows]
        Ti = TimeReversal(N, J.n_i).matrix()
        To = TimeReversal(N, J.n_o).matrix()
        v = Signal(rng.standard_normal(N * J.n_o), "output", N, J.n_o)
        lhs = adjoint_apply(J, v).data
        rhs = Ti @ (Jt @ (To @ v.data))
        assert rel_err(lhs, rhs) < 1e-12

    def test_plain_double_reversal_fails_for_mimo(self, rng):
        # premise for why MIMO needs masked estimates: T J T != J^T
        _, J = small_system(seed=12, n_x=5, n_i=2, n_o=2, N=6)
        Ti = TimeReversal(J.N, J.n_i).matrix()
        To = TimeReversal(J.N, J.n_o).matrix()
        diff = Ti @ J.matrix @ To - J.matrix.T
        assert np.max(np.abs(diff)) > 1e-6

    def test_dimension_mismatch(self):
        _, J = small_system()
        with pytest.raises(ValueError):
            adjoint_apply(J, Signal(np.zeros(J.N * J.n_i), "input", J.N, J.n_i))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ss = generate_system(5, 2, 3, seed=21)
        path = tmp_path / "sys.json"
        save_system(path, ss, N=12)
        ss2, N = load_system(path)
        assert N == 12
        for a, b in ((ss.A, ss2.A), (ss.B, ss2.B), (ss.C, ss2.C), (ss.D, ss2.D)):
            assert np.array_equal(a, b)
        assert np.array_equal(lift(ss, 12).matrix, lift(ss2, 12).matrix)

    def test_save_rejects_bad_length_and_writes_nothing(self, tmp_path):
        path = tmp_path / "sys.json"
        with pytest.raises(ValueError, match="N must be >= 1, got 0"):
            save_system(path, static_gain_ss(), N=0)
        assert not path.exists()

    def test_document_schema(self, tmp_path):
        ss = generate_system(3, 1, 2, seed=4)
        path = tmp_path / "sys.json"
        save_system(path, ss, N=5)
        doc = json.loads(path.read_text())
        assert set(doc) == {"n_x", "n_i", "n_o", "N", "A", "B", "C", "D"}
        assert doc["n_x"] == 3 and doc["n_i"] == 1 and doc["n_o"] == 2 and doc["N"] == 5
