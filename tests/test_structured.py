"""The structured (FFT block-convolution) apply of large lifted operators.

``LiftedSystem.product`` applies operators of at least
``STRUCTURED_MIN_ENTRIES`` entries by FFT convolution of their Markov
parameters.  Small plants take that path here with the constant patched to
0; ``lifted.apply`` (the dense product) is the reference throughout.  The
golden grid on this path is in ``test_golden_traces.py``.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import cgilc.lifted
import cgilc.oracle
from cgilc import (
    LiftedSystem,
    NoiseModel,
    PlantOracle,
    Signal,
    StateSpace,
    apply,
    generate_system,
    lift,
    make_step_disturbance,
)
from conftest import rel_err

TOL = 1e-13

SMALL_PLANTS = {
    "siso": lambda: lift(generate_system(3, 1, 1, 4), 16),
    "n_x0": lambda: lift(generate_system(0, 2, 3, 2), 10),
    "N1": lambda: lift(generate_system(2, 2, 2, 3), 1),
    "n_i3_n_o2": lambda: lift(generate_system(4, 3, 2, 5), 12),
    "zero": lambda: LiftedSystem(np.zeros((8, 8)), N=4, n_i=2, n_o=2),
}


@pytest.fixture
def structured(monkeypatch):
    monkeypatch.setattr(cgilc.lifted, "STRUCTURED_MIN_ENTRIES", 0)


@pytest.fixture(scope="module")
def figure_plant():
    return lift(generate_system(84, 21, 21, 0, feedthrough_gain=185), 100)


def check_products(system, rng):
    assert system._spectrum is not None, "the structured path was not taken"
    n = system.N * system.n_i
    x = rng.standard_normal(n)
    ref = apply(system, Signal(x, "input", system.N, system.n_i)).data
    y = system.product(x)
    assert y.shape == ref.shape
    assert rel_err(y, ref) <= TOL
    # more columns than one FFT chunk, so the chunk loop runs more than once
    X = rng.standard_normal((n, cgilc.lifted.FFT_BATCH_COLUMNS + 6))
    Y = system.product(X)
    assert Y.shape == (system.N * system.n_o, X.shape[1])
    R = system.product_rows(list(X.T))
    assert R.shape == (X.shape[1], system.N * system.n_o)
    for k in range(X.shape[1]):
        ref = apply(system, Signal(X[:, k], "input", system.N, system.n_i)).data
        assert rel_err(Y[:, k], ref) <= TOL
        assert rel_err(R[k], ref) <= TOL


@pytest.mark.parametrize("name", sorted(SMALL_PLANTS))
def test_structured_matches_dense(structured, rng, name):
    check_products(SMALL_PLANTS[name](), rng)


def test_zero_plant_gives_exact_zeros(structured, rng):
    system = SMALL_PLANTS["zero"]()
    assert not system.product(rng.standard_normal((8, 3))).any()


def test_figure_plant_is_structured_by_default(figure_plant, rng):
    assert figure_plant.matrix.size >= cgilc.lifted.STRUCTURED_MIN_ENTRIES
    check_products(figure_plant, rng)


def test_small_plant_keeps_the_dense_product(rng):
    system = SMALL_PLANTS["n_i3_n_o2"]()
    assert system._spectrum is None
    X = rng.standard_normal((system.N * system.n_i, 5))
    assert np.array_equal(system.product(X), system.matrix @ X)
    assert np.array_equal(system.product_rows(list(X.T)), (system.matrix @ X).T)


def test_products_do_not_depend_on_earlier_calls(figure_plant, rng):
    """The reused work arrays give the same bits however wide an earlier batch made them."""
    n = figure_plant.N * figure_plant.n_i
    x = rng.standard_normal(n)
    X = rng.standard_normal((n, 70))
    cgilc.lifted._scratch.__dict__.clear()
    first_single, first_batch = figure_plant.product(x), figure_plant.product(X)
    arrays = cgilc.lifted._scratch.arrays
    assert np.array_equal(figure_plant.product(x), first_single)
    assert np.array_equal(figure_plant.product(X), first_batch)
    assert cgilc.lifted._scratch.arrays is arrays, "a repeated batch allocated new work arrays"
    cgilc.lifted._scratch.__dict__.clear()
    assert np.array_equal(figure_plant.product(X), first_batch)


def test_threads_keep_their_own_work_arrays(structured, rng):
    system = SMALL_PLANTS["n_i3_n_o2"]()
    inputs = [rng.standard_normal((system.N * system.n_i, k)) for k in (9, 5)]
    expected = [system.product(X) for X in inputs]
    errors = []

    def work(X, ref):
        for _ in range(300):
            if not np.array_equal(system.product(X), ref):
                errors.append(X.shape)
                return

    threads = [threading.Thread(target=work, args=args) for args in zip(inputs, expected)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


@pytest.mark.parametrize("defect", ["dense", "upper_entry", "broken_diagonal"])
def test_non_toeplitz_matrix_keeps_exact_products(rng, defect):
    if defect == "dense":
        matrix = rng.standard_normal((512, 512))
    else:
        matrix = lift(generate_system(6, 8, 8, 1), 64).matrix.copy()
        if defect == "upper_entry":
            matrix[64 + 3, 128 + 40] = 1e-3  # above the diagonal of block (1, 2)
        else:
            matrix[64 + 40, 128 + 3] += 1e-3  # one entry off its diagonal's value
    system = LiftedSystem(matrix, N=64, n_i=8, n_o=8)  # 2^18 entries
    assert system.matrix.size >= cgilc.lifted.STRUCTURED_MIN_ENTRIES
    assert system._spectrum is None
    u = Signal(rng.standard_normal(512), "input", 64, 8)
    oracle = PlantOracle(system, make_step_disturbance(64, 8))
    assert np.array_equal(oracle.probe(u).data, system.matrix @ u.data)
    U = rng.standard_normal((512, 3))
    assert np.array_equal(system.product(U), system.matrix @ U)


def test_structure_is_decided_once_per_system(rng, monkeypatch):
    system = lift(generate_system(6, 8, 8, 1), 64)
    system.product(rng.standard_normal(512))
    assert system.__dict__["_spectrum"] is not None

    def fail(*args, **kwargs):
        raise AssertionError("the structure check ran again")

    monkeypatch.setattr(np, "array_equal", fail)
    system.product(rng.standard_normal((512, 2)))


def _dyadic_plant():
    """n_x = 1 plant whose Markov parameters are small integers times powers of 1/2.

    With integer inputs every product is exact in floating point, so any
    summation order gives the same bits.
    """
    ss = StateSpace(A=[[0.5]], B=[[1.0, -2.0]], C=[[1.0], [3.0]], D=[[2.0, 0.0], [1.0, -1.0]])
    return lift(ss, 8)


@pytest.mark.parametrize("branch", ["dense", "structured"])
def test_noisy_probe_many_equals_sequential_probes(monkeypatch, rng, branch):
    if branch == "structured":
        monkeypatch.setattr(cgilc.lifted, "STRUCTURED_MIN_ENTRIES", 0)
        # FFT products are not exact, so only zero inputs compare bit for bit;
        # the outputs are then the noise alone
        data = np.zeros((5, 16))
    else:
        data = rng.integers(-3, 4, size=(5, 16)).astype(float)
    noise = NoiseModel("gaussian", 0.3, seed=11)
    inputs = [Signal(d, "input", 8, 2) for d in data]

    def oracle():
        system = _dyadic_plant()
        assert (system._spectrum is not None) == (branch == "structured")
        return PlantOracle(system, make_step_disturbance(8, 2), noise)

    single = oracle()
    sequential = [single.probe(u) for u in inputs]
    for noise_rows in (64, 2):  # 2: the 5 probes' noise comes in three draws
        monkeypatch.setattr(cgilc.oracle, "NOISE_BATCH_ROWS", noise_rows)
        batch = oracle().probe_many(inputs)
        for b, s in zip(batch, sequential):
            assert np.array_equal(b.data, s.data)
        assert any(b.data.any() for b in batch)


class TestFreeTrueCost:
    def test_trial_input_reuses_the_trial_product(self, rng, monkeypatch):
        system = SMALL_PLANTS["n_i3_n_o2"]()
        oracle = PlantOracle(system, make_step_disturbance(12, 2),
                             NoiseModel("gaussian", 0.1, seed=2))
        f = Signal(rng.standard_normal(36), "input", 12, 3)
        oracle.run_trial(f)
        expected = PlantOracle(system, make_step_disturbance(12, 2)).true_cost(f)
        monkeypatch.setattr(LiftedSystem, "product", lambda self, x: pytest.fail("product called"))
        assert oracle.true_cost(f) == expected

    def test_other_inputs_are_applied(self, rng):
        system = SMALL_PLANTS["n_i3_n_o2"]()
        r = make_step_disturbance(12, 2)
        oracle = PlantOracle(system, r)
        f = Signal(rng.standard_normal(36), "input", 12, 3)
        oracle.run_trial(f)
        g = Signal(f.data.copy(), "input", 12, 3)  # equal data, a different signal
        h = Signal(rng.standard_normal(36), "input", 12, 3)
        e = r.data - system.matrix @ h.data
        assert oracle.true_cost(h) == float(e @ e)
        assert oracle.true_cost(g) == oracle.true_cost(f)


def test_structured_apply_imports_no_scipy():
    """The runtime depends on numpy alone; scipy is installed here but not declared."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from cgilc import generate_system, lift\n"
        "system = lift(generate_system(6, 8, 8, 1), 64)\n"
        "assert system._spectrum is not None\n"
        "system.product(np.ones(512))\n"
        "system.product(np.ones((512, 3)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cgilc.lifted.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
