"""The structured (FFT block-convolution) apply of large lifted operators.

``LiftedSystem.product`` and ``LiftedSystem.adjoint`` apply
operators of at least ``STRUCTURED_MIN_ENTRIES`` entries by FFT convolution
of their Markov parameters.  Small plants take that path here with the
constant patched to 0; ``lifted.apply`` (the dense product) is the reference
throughout.  The golden grid on this path is in ``test_golden_traces.py``.
"""

import ast
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cgilc.lifted
from cgilc import (
    LiftedSystem,
    NoiseModel,
    PlantOracle,
    Signal,
    SolverConfig,
    deterministic_gradient,
    generate_system,
    lift,
    make_step_disturbance,
    run_solver,
)
from conftest import rel_err, simulate_response
from reference import adjoint_apply, apply

TOL = 1e-13
ADJOINT_TOL = 1e-12

SMALL_PLANTS = {
    "siso": lambda: lift(generate_system(3, 1, 1, 4), 16),
    "n_x0": lambda: lift(generate_system(0, 2, 3, 2), 10),
    "N1": lambda: lift(generate_system(2, 2, 2, 3), 1),
    "n_i3_n_o2": lambda: lift(generate_system(4, 3, 2, 5), 12),
    "zero": lambda: LiftedSystem(np.zeros((4, 2, 2))),
}


@pytest.fixture
def structured(monkeypatch):
    monkeypatch.setattr(cgilc.lifted, "STRUCTURED_MIN_ENTRIES", 0)


@pytest.fixture(scope="module")
def figure_plant():
    return lift(generate_system(84, 21, 21, 0, feedthrough_gain=185), 100)


def check_products(system, rng):
    assert system._spectrum is not None, "the structured path was not taken"
    N, n_i, n_o = system.N, system.n_i, system.n_o
    X = rng.standard_normal((N * n_i, 8))
    for x in X.T:
        ref = apply(system, Signal(x, "input", N, n_i)).data.reshape(n_o, N)
        y = system.product(x.reshape(n_i, N))
        assert y.shape == ref.shape
        assert rel_err(y, ref) <= TOL
    oracle = PlantOracle(system, make_step_disturbance(N, n_o))
    e = rng.standard_normal((n_o, N))
    g = deterministic_gradient(oracle, e)
    exact = -2.0 * adjoint_apply(system, Signal(e, "output", N, n_o)).data
    assert rel_err(g, exact.reshape(n_i, N)) <= TOL
    assert oracle.snapshot_count() == n_i * n_o


@pytest.mark.parametrize("name", sorted(SMALL_PLANTS))
def test_structured_matches_dense(structured, rng, name):
    check_products(SMALL_PLANTS[name](), rng)


def check_adjoint(system, rng):
    """<J x, y> = <x, J^T y>, and J^T y is the reference's dense transpose product."""
    N, n_i, n_o = system.N, system.n_i, system.n_o
    for _ in range(4):
        x = rng.standard_normal((n_i, N))
        y = rng.standard_normal((n_o, N))
        Jty = system.adjoint(y)
        assert Jty.shape == (n_i, N)
        Jx = system.product(x)
        scale = max(np.linalg.norm(Jx) * np.linalg.norm(y), 1e-300)
        assert abs(np.vdot(Jx, y) - np.vdot(x, Jty)) <= ADJOINT_TOL * scale
        ref = adjoint_apply(system, Signal(y, "output", N, n_o)).data.reshape(n_i, N)
        assert rel_err(Jty, ref) <= ADJOINT_TOL


@pytest.mark.parametrize("branch", ["dense", "structured"])
@pytest.mark.parametrize("name", sorted(SMALL_PLANTS))
def test_adjoint_is_the_transpose(monkeypatch, rng, name, branch):
    if branch == "structured":
        monkeypatch.setattr(cgilc.lifted, "STRUCTURED_MIN_ENTRIES", 0)
    system = SMALL_PLANTS[name]()
    assert (system._spectrum is not None) == (branch == "structured")
    check_adjoint(system, rng)


def test_figure_plant_adjoint_builds_no_dense_matrix(rng):
    system = lift(generate_system(84, 21, 21, 0, feedthrough_gain=185), 100)
    assert system._spectrum is not None
    system.adjoint(rng.standard_normal((21, 100)))
    assert "matrix" not in vars(system)
    check_adjoint(system, rng)  # the reference builds it


@pytest.mark.parametrize("branch", ["dense", "structured"])
def test_zero_plant_gives_exact_zeros(monkeypatch, rng, branch):
    if branch == "structured":
        monkeypatch.setattr(cgilc.lifted, "STRUCTURED_MIN_ENTRIES", 0)
    system = SMALL_PLANTS["zero"]()
    assert (system._spectrum is not None) == (branch == "structured")
    for x in rng.standard_normal((3, 2, 4)):
        assert not system.product(x).any()
        assert not system.adjoint(x).any()


def test_figure_plant_is_structured_by_default(figure_plant, rng):
    assert figure_plant.matrix.size >= cgilc.lifted.STRUCTURED_MIN_ENTRIES
    check_products(figure_plant, rng)


def test_small_plant_keeps_the_dense_product(rng):
    system = SMALL_PLANTS["n_i3_n_o2"]()
    assert system._spectrum is None
    for x in rng.standard_normal((system.N * system.n_i, 5)).T:
        y = (system.matrix @ x).reshape(system.n_o, system.N)
        assert np.array_equal(system.product(x.reshape(system.n_i, system.N)), y)


def test_figure_runs_never_build_the_dense_matrix():
    system = lift(generate_system(84, 21, 21, 0, feedthrough_gain=185), 100)
    r = make_step_disturbance(100, 21)
    run_solver(PlantOracle(system, r), SolverConfig("stoch_cg", max_iterations=3, seed=0))
    noisy = PlantOracle(system, r, NoiseModel("gaussian", 0.05, seed=1))
    e, _, _ = noisy.run_trial(np.zeros((21, 100)))
    deterministic_gradient(noisy, e)
    assert "matrix" not in vars(system)


def peak_of_gradient(oracle, e):
    """The gradient and the peak of the memory traced while it is computed."""
    tracemalloc.start()
    try:
        g = deterministic_gradient(oracle, e)
        return g, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gradient_bytes(system):
    """Bytes of one (n_i, N) gradient."""
    return 8 * system.n_i * system.N


@pytest.mark.parametrize("noisy", [False, True])
def test_a_gradient_peaks_below_eight_times_its_own_size(figure_plant, rng, noisy):
    """The adjoint's FFT temporaries, the noise and the gradient itself."""
    noise = NoiseModel("gaussian", 0.05, seed=1) if noisy else NoiseModel()
    oracle = PlantOracle(figure_plant, make_step_disturbance(100, 21), noise)
    e, _, _ = oracle.run_trial(rng.standard_normal((21, 100)))  # the plant's spectrum is built here
    g, peak = peak_of_gradient(oracle, e)
    assert peak < 8 * gradient_bytes(figure_plant)
    assert np.isfinite(g).all()


def test_long_trial_runs_from_the_markov_parameters(rng):
    """21x21 channels at N=1000: the dense operator would take 3.5 GB."""
    ss = generate_system(84, 21, 21, 0, feedthrough_gain=185)
    N = 1000
    u = rng.standard_normal((21, N))
    tracemalloc.start()
    try:
        system = lift(ss, N)
        y = system.product(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert rel_err(y, simulate_response(ss, u)) <= 1e-12
    oracle = PlantOracle(system, make_step_disturbance(N, 21))
    trace = run_solver(oracle, SolverConfig("stoch_cg", max_iterations=5, seed=0))
    assert len(trace.records) == 5
    assert trace.records[-1].cost_true < trace.records[0].cost_true
    noisy = PlantOracle(system, make_step_disturbance(N, 21), NoiseModel("gaussian", 0.05, seed=1))
    e, _, _ = noisy.run_trial(trace.final_input.data.reshape(21, N))
    g, peak = peak_of_gradient(noisy, e)
    assert peak < 8 * gradient_bytes(system)
    assert noisy.snapshot_count() == 1 + 441
    assert np.isfinite(g).all()
    assert "matrix" not in vars(system)


def _send_gradient(system, r, noise, e, conn):
    conn.send(deterministic_gradient(PlantOracle(system, r, noise), e))
    conn.close()


def test_noisy_gradients_still_run_in_a_forked_child(rng):
    """A forked child draws the same noisy gradient as its parent."""
    system = lift(generate_system(6, 8, 8, 4), 64)  # the golden grid's FFT plant
    assert system._spectrum is not None
    r = make_step_disturbance(64, 8)
    noise = NoiseModel("gaussian", 0.1, seed=3)
    e = rng.standard_normal((8, 64))
    g = deterministic_gradient(PlantOracle(system, r, noise), e)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_gradient, args=(system, r, noise, e, send))
    child.start()
    send.close()
    try:
        assert receive.poll(10), "the forked child sent no gradient within 10 s"
        g_child = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert np.array_equal(g_child, g)


@pytest.mark.parametrize("branch", ["dense", "structured"])
def test_noise_free_probe_selectors_sum_single_probes(monkeypatch, rng, branch):
    if branch == "structured":
        monkeypatch.setattr(cgilc.lifted, "STRUCTURED_MIN_ENTRIES", 0)
    system = SMALL_PLANTS["n_i3_n_o2"]()
    assert (system._spectrum is not None) == (branch == "structured")
    N, n_i, n_o = system.N, system.n_i, system.n_o
    oracle = PlantOracle(system, make_step_disturbance(N, n_o))
    te = rng.standard_normal((n_o, N))
    sums = oracle.probe_selectors(te)
    assert sums.shape == (n_i, N)
    assert oracle.snapshot_count() == n_i * n_o
    for l in range(n_i):
        readings = []
        for m in range(n_o):  # experiment (l, m): te[m] on input l alone, output m read
            u = np.zeros((n_i, N))
            u[l] = te[m]
            readings.append(oracle.probe(u)[m])
        assert rel_err(sums[l], np.sum(readings, axis=0)) <= ADJOINT_TOL
    assert oracle.snapshot_count() == 2 * n_i * n_o


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("branch", ["dense", "structured"])
def test_trial_returns_its_noise_free_cost_from_one_product(monkeypatch, rng, branch, noisy):
    if branch == "structured":
        monkeypatch.setattr(cgilc.lifted, "STRUCTURED_MIN_ENTRIES", 0)
    system = SMALL_PLANTS["n_i3_n_o2"]()
    assert (system._spectrum is not None) == (branch == "structured")
    r = make_step_disturbance(12, 2)
    oracle = PlantOracle(system, r, NoiseModel("gaussian", 0.1, seed=2) if noisy
                         else NoiseModel())
    f = Signal(rng.standard_normal(36), "input", 12, 3)
    expected = PlantOracle(system, r).true_cost(f)
    products = []
    product = LiftedSystem.product
    monkeypatch.setattr(LiftedSystem, "product",
                        lambda self, x: products.append(x) or product(self, x))
    e, cost, cost_true = oracle.run_trial(f.data.reshape(3, 12))
    assert len(products) == 1
    assert cost_true == expected
    assert cost == float(np.vdot(e, e))
    assert (cost == cost_true) != noisy  # noise-free, the measured cost is the true one
    d = r.data - apply(system, f).data
    assert rel_err(cost_true, float(d @ d)) <= TOL


def test_structured_apply_imports_no_scipy():
    """The runtime depends on numpy alone; scipy is installed here but not declared."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from cgilc import PlantOracle, generate_system, lift, make_step_disturbance\n"
        "system = lift(generate_system(6, 8, 8, 1), 64)\n"
        "assert system._spectrum is not None\n"
        "system.product(np.ones((8, 64)))\n"
        "PlantOracle(system, make_step_disturbance(64, 8)).probe_selectors(np.ones((8, 64)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cgilc.lifted.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_public_api_is_exactly_this_list():
    """Re-exporting a name means editing this list; a helper only tests call stays private."""
    assert set(cgilc.__all__) == {
        "IterationRecord", "LiftedSystem", "NoiseModel", "PlantOracle",
        "RunTrace", "Signal", "SolverConfig", "StateSpace", "default_noise_sigma",
        "deterministic_gradient", "generate_system", "lift", "load_system",
        "make_step_disturbance", "markov_parameters", "run_solver", "save_system",
        "stochastic_gradient",
    }
    assert all(hasattr(cgilc, name) for name in cgilc.__all__)


def test_package_modules_use_every_name_they_import():
    """The project runs no linter; this catches an import that a deletion left behind."""
    package = os.path.dirname(cgilc.lifted.__file__)
    unused = []
    for module in sorted(os.listdir(package)):
        if not module.endswith(".py") or module == "__init__.py":
            continue
        with open(os.path.join(package, module)) as fh:
            tree = ast.parse(fh.read())
        imported = {alias.asname or alias.name.split(".")[0]: node.lineno
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}:{line} {name}" for name, line in imported.items()
                   if name not in used and name != "annotations"]
    assert unused == []
