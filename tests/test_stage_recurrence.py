"""The RKL2 stage recurrence of `solver._Engine` against a textbook step,
the spacelike check in the scaled complement form, and the BLAS call the
recurrence makes.

The engine evaluates the operator on raw differences (its speed rows hold
F/4) and forms each stage as one matrix-vector product.  The reference
below keeps the arithmetic of the physical form: u' and u'' scaled by
0.5/h and 1/h^2, the operator written out with w^{-2}, and each stage
combined by separate array operations.  The two agree to rounding.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mcflow
from mcflow import solver
from mcflow.geometry import (RadialOperator, SpacelikeViolationError,
                             radial_factors)
from mcflow.scenarios import ScenarioConfig, build_field_from_config
from mcflow.solver import SolverConfig, rkl2_stages, run_flow

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def load_config(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return ScenarioConfig.from_dict(json.load(fh))


def line_case():
    cfg = load_config("decay_study.json")  # 8,001 nodes
    return build_field_from_config(cfg, "line"), cfg.metric, cfg.solver


def axis_ball_case():
    cfg = load_config("dirichlet_sweep.json")  # n = 3, 257 nodes to r = 16
    return (build_field_from_config(cfg, "radial", outer=16.0), cfg.metric,
            cfg.solver)


def curved_case():
    cfg = load_config("no_lift_off.json")  # 991 nodes on a = 0.5, tau = 1
    return build_field_from_config(cfg, "radial"), cfg.metric, cfg.solver


CASES = {"line": line_case, "axis_ball": axis_ball_case,
         "curved": curved_case}
SIZES = {"line": 8001, "axis_ball": 257, "curved": 991}


class ReferenceStep:
    """A textbook RKL2 step: the physical speed F and the stage
    increments combined one array operation at a time."""

    def __init__(self, field, metric):
        self.field, self.h = field, field.h
        self.line = field.kind == "line"
        self.n = 1 if self.line else metric.n
        if not self.line:
            self.r = field.nodes[1:-1]
            self.w, self.fp = radial_factors(metric, self.r)

    def speed(self, u):
        h, d = self.h, np.diff(u)
        du = (d[1:] + d[:-1]) * (0.5 / h)
        d2u = (d[1:] - d[:-1]) * (1.0 / (h * h))
        out = np.zeros_like(u)
        if self.line:
            out[1:-1] = d2u / (1.0 - du * du)
        else:
            comp = 1.0 - (du / self.w) ** 2
            drift = (self.n - 1) * (1.0 / self.r + self.fp)
            out[1:-1] = ((d2u - self.fp * du) / comp + drift * du) \
                / (self.w * self.w)
        if self.field.axis:
            out[0] = self.n * 2.0 * d[0] / (h * h)
        return out

    def hold_ends(self, u, cand):
        left, right = (t == "dirichlet_zero" for t in self.field.bc)
        if left:
            cand[0] = 0.0
        elif not self.field.axis:
            cand[0] = u[0]
        cand[-1] = 0.0 if right else u[-1]

    def step(self, u, tau, s):
        """(candidate, its speed, error estimate) of one s-stage step."""
        w1 = 4.0 / (s * s + s - 2)
        f0 = self.speed(u)
        prev, older = f0 * (w1 * tau / 3.0), np.zeros_like(u)
        b_older = b_prev = 1.0 / 3.0
        for j in range(2, s + 1):
            f = self.speed(u + prev)
            b = (j * j + j - 2) / (2.0 * j * (j + 1))
            mu = (2 * j - 1) / j * b / b_prev
            nu = -(j - 1) / j * b / b_older
            mu_tau = mu * w1 * tau
            new = older * nu + prev * mu + f * mu_tau \
                + f0 * (-(1.0 - b_prev) * mu_tau)
            prev, older = new, prev
            b_older, b_prev = b_prev, b
        cand = u + prev
        self.hold_ends(u, cand)
        f_cand = self.speed(cand)
        est = 0.5 * tau * (f0 + f_cand) - prev
        return cand, f_cand, 0.8 * float(np.max(np.abs(est)))


#: The engine's scratch rows: nothing a step reads before writing it.
SCRATCH = ("cand", "f_cand", "stage", "stage_prev", "d_cand", "s", "q",
           "comp", "work", "slope")


def prepared_engine(field, metric):
    """An engine with its state's speed and coefficient formed, as
    `super_step` forms them."""
    engine = solver._Engine(field, metric)
    engine.step_bounds(0.9)
    return engine


def rel(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("s", [2, 3, 17])
def test_engine_step_matches_the_textbook_recurrence(case, s):
    field, metric, config = CASES[case]()
    assert field.nodes.size == SIZES[case]
    engine = prepared_engine(field, metric)
    dt_fe = config.cfl_safety * field.h ** 2 / (2.0 * engine.coeff)
    tau = dt_fe * (s * s + s - 2) / 4.0  # the longest step of s stages
    assert rkl2_stages(tau, dt_fe) == s
    for name in SCRATCH:  # stage 2 must not read a stale row
        getattr(engine, name).fill(np.nan)
    est = engine.rkl2(tau, dt_fe)
    cand, f_cand, est_ref = ReferenceStep(field, metric).step(
        field.values, tau, s)
    increment = cand - field.values
    assert rel(engine.cand - field.values, increment) <= 1e-12
    assert rel(4.0 * engine.f_cand, f_cand) <= 1e-12
    # the estimate is a difference of terms the size of the increment, a
    # thousandth of it on the shortest steps: it agrees to their rounding
    assert abs(est - est_ref) <= 1e-12 * float(np.max(np.abs(increment)))
    # the state and its speed are not written
    assert engine.u.tobytes() == field.values.tobytes()
    assert rel(4.0 * engine.f, ReferenceStep(field, metric).speed(
        field.values)) <= 1e-12


def test_the_stage_combination_is_one_contiguous_block():
    field, metric, _ = curved_case()
    engine = solver._Engine(field, metric)
    block = engine.block
    assert block.shape == (4, field.nodes.size)
    assert block.flags.c_contiguous
    rows = (engine.f, engine.f_cand, engine.stage, engine.stage_prev)
    for i, row in enumerate(rows):
        assert np.shares_memory(row, block[i])
    engine.f_cand.fill(1.0)
    engine._accept()  # the state's speed moves to the other row
    assert np.shares_memory(engine.f, block[engine.f_row])
    assert engine.f_row == 1 and engine.f[0] == 1.0


# ---------------------------------------------------------------------------
# violation and NaN messages in the scaled form
# ---------------------------------------------------------------------------

def bump(nodes, centre, slope, width=0.1):
    """A Gaussian bump at `centre` whose steepest central difference is
    `slope`; the nodes' slopes differ by far more than rounding, so one
    node is the steepest."""
    values = np.exp(-((nodes - centre) / width) ** 2)
    steepest = np.max(np.abs(values[2:] - values[:-2])) / (nodes[2] - nodes[0])
    return values * (slope / steepest)


def test_stage_violation_names_the_node_of_the_smallest_complement(
        monkeypatch):
    # on a curved grid C = 4 h^2 w^2 (1 - (u'/w)^2) and 1 - (u'/w)^2 have
    # their minima at different nodes: a bump at r = 0.8 with slope^2 =
    # 1.6 w^2 has the smaller C, one at r = 40 with slope^2 = 2 w^2 the
    # smaller 1 - (u'/w)^2, and the message names the latter
    field, metric, config = curved_case()
    nodes, h = field.nodes, field.h
    engine = prepared_engine(field, metric)
    stage = field.values \
        + bump(nodes, 0.8, math.sqrt(1.6) * float(metric.w(0.8))) \
        + bump(nodes, 40.0, math.sqrt(2.0) * float(metric.w(40.0)))
    slope = (stage[2:] - stage[:-2]) / (2.0 * h)
    w = metric.w(nodes[1:-1])
    complement = 1.0 - (slope / w) ** 2
    scaled = 4.0 * h * h * w * w - (stage[2:] - stage[:-2]) ** 2
    assert complement.min() < -0.5 and complement.argmin() != scaled.argmin()
    x = nodes[1 + complement.argmin()]
    assert abs(x - 40.0) < 0.25
    assert abs(nodes[1 + scaled.argmin()] - 0.8) < 0.25
    # a first stage D_1 = (4/3) w1 tau f, so the state's speed row sets it
    dt_fe = config.cfl_safety * h * h / (2.0 * engine.coeff)
    tau = 4.0 * dt_fe
    s = rkl2_stages(tau, dt_fe)
    engine.f[:] = (stage - field.values) / (4.0 / (s * s + s - 2)
                                            * 4.0 * tau / 3.0)
    monkeypatch.setattr(solver, "MAX_DT_HALVINGS", 0)
    with pytest.raises(SpacelikeViolationError) as info:
        engine.super_step(tau, tau, config.cfl_safety, math.inf)
    message = str(info.value)
    assert f"at x = {x:.6g} (last dt" in message
    low = float(message.split("1 - (u'/w)^2 = ")[1].split(" ")[0])
    assert low == pytest.approx(complement.min(), rel=1e-5)


def test_a_nan_on_a_curved_grid_names_the_first_nan_node(monkeypatch):
    # the state's speed gets a NaN at node m + 1; the first stage carries it
    # into the slopes of nodes m, m + 1 and m + 2, and the run halts at
    # once as non_finite, naming node m
    field, metric, config = curved_case()
    m = field.nodes.size // 3
    rhs, calls = RadialOperator.rhs, []

    def poisoned(self, s, q, comp, out, work):
        rhs(self, s, q, comp, out, work)
        if not calls:
            out[m] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(RadialOperator, "rhs", poisoned)
    traj = run_flow(metric, field, SolverConfig(t_end=1.0))
    assert traj.termination == "non_finite" and traj.steps == 0
    assert traj.message.startswith(
        f"non-finite slope at x = {field.nodes[m]:.6g}")
    assert len(calls) == 1  # the state's speed; the first stage halts


# ---------------------------------------------------------------------------
# the BLAS call: same bytes at any thread count, and no scipy.linalg
# ---------------------------------------------------------------------------

def simulate_in_subprocess(config_path, out_dir, threads):
    code = "\n".join([
        "import json, sys",
        "from mcflow.cli import main",
        f"code = main(['simulate', {config_path!r}, '--output-dir', "
        f"{out_dir!r}])",
        "print(json.dumps({'code': code,",
        "                  'scipy_linalg': 'scipy.linalg' in sys.modules}))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcflow.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads))
    env.pop("OMP_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_bytes(root):
    out = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    with open(os.path.join(CONFIG_DIR, "decay_study.json")) as fh:
        raw = json.load(fh)
    raw["solver"].update(t_end=20.0, snapshot_every=10.0, record_every=0.5)
    raw["fit_window"] = [2.0, 20.0]
    config_path = str(tmp_path / "decay_line.json")
    with open(config_path, "w") as fh:
        json.dump(raw, fh)
    trees = []
    for threads in (1, 2):
        out_dir = str(tmp_path / f"threads{threads}")
        result = simulate_in_subprocess(config_path, out_dir, threads)
        assert result["code"] in (0, 1)  # the short fit may miss its range
        assert not result["scipy_linalg"], "scipy.linalg was imported"
        trees.append(tree_bytes(out_dir))
    assert trees[0] and "summary.json" in trees[0]
    assert trees[0] == trees[1]


@pytest.mark.parametrize("size", [257, 1025, 4097, 8001])
def test_a_window_of_64_columns_keeps_the_whole_grid_product(size):
    # the engine steps the window [0, m) of a grid with a pinned outer end,
    # m a multiple of 64, with np.dot of the four weights and block[:, :m]:
    # its entries must be those of the whole grid's product.  OpenBLAS takes
    # the tail columns apart; at 4,097 nodes some m that are not multiples
    # of 4 differ in their last columns.
    rng = np.random.default_rng(size)
    block = rng.uniform(-1.0, 1.0, (4, size)) * 10.0 ** rng.integers(
        -300, 0, (4, size))
    weights = rng.uniform(-2.0, 2.0, 4)
    whole = np.dot(weights, block)
    out = np.empty(size)
    for m in range(64, size, 64):
        window = np.dot(weights, block[:, :m], out=out[:m])
        assert window.tobytes() == whole[:m].tobytes(), m


@pytest.mark.parametrize("s", [2, 3, 17, 100, 285])
@pytest.mark.parametrize("f_row", [0, 1])
def test_the_cached_stage_weights_are_the_recurrence_bit_for_bit(s, f_row):
    # the weights `rkl2` builds from the cached table against the
    # recurrence's own arithmetic, stage by stage: the same bytes
    tau, w1 = 0.37, 4.0 / (s * s + s - 2)
    table = solver._rkl2_weights(1 << (s - 2).bit_length())[:s - 1]
    weights = table[:, :4].copy()
    mu_tau = np.multiply(table[:, 4], w1, out=weights[:, 1 - f_row])
    mu_tau *= tau
    np.multiply(table[:, 5], mu_tau, out=weights[:, f_row])
    i_prev, i_older, b_older, b_prev = 2, 3, 1.0 / 3.0, 1.0 / 3.0
    for j in range(2, s + 1):
        b = (j * j + j - 2) / (2.0 * j * (j + 1))
        mu = (2 * j - 1) / j * b / b_prev
        expected = np.empty(4)
        expected[i_prev] = mu
        expected[i_older] = -(j - 1) / j * b / b_older
        expected[1 - f_row] = 4.0 * mu * w1 * tau
        expected[f_row] = -(1.0 - b_prev) * expected[1 - f_row]
        assert weights[j - 2].tobytes() == expected.tobytes(), j
        i_prev, i_older = i_older, i_prev
        b_older, b_prev = b_prev, b
