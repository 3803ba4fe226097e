"""The package's BDF stepper against scipy.integrate.BDF, the
implementation it ports: both are stepped side by side and agree exactly
after every step, on every path where scipy does not raise."""

import numpy as np
import pytest
from scipy.integrate import BDF as ScipyBDF

import penaltyflow as pf
from penaltyflow.bdf import BDF
from penaltyflow.binary import BINARY_Q


def _seeded_binary():
    # criterion 7's draw for seed 7
    rng = np.random.default_rng(7)
    H = rng.standard_normal((6, 6))
    return pf.binary_quadratic(0.5 * (H + H.T), rng.standard_normal(6))


def _packed_flow(problem, params):
    # the closures ``solve`` hands the stepper
    return (lambda t, y: pf.flow_rhs(problem, y, params),
            lambda t, y: pf.flow_jacobian(problem, y, params))


def _wall(t, y):
    # y' = -y up to t = 1 and no finite value beyond: the steps shrink
    # onto t = 1 until the stepper fails
    return -y if t <= 1.0 else np.full_like(y, np.nan)


def _cases():
    """(rhs, jac, y0, t_bound, status after at most 400 steps)."""
    qp = pf.qp_problem(pf.generate_random_qp(15, 20, seed=3)[0])
    halfspace = pf.qp_problem(pf.QpData(
        H=np.eye(2), F=np.zeros(2), A=np.array([[-1.0, 0.0]]),
        B=np.array([-1.0])))
    binary = pf.binarize(_seeded_binary())
    return {
        "qp": (*_packed_flow(qp, pf.FlowParams()), np.zeros(16), 1e24,
               "running"),
        # y0 != 0 enters the first-step rule's scale and trial step
        "warm": (*_packed_flow(qp, pf.FlowParams()),
                 np.r_[np.full(15, 0.5), 0.0], 1e24, "running"),
        # the binarized Hessian hook at q = 4
        "binary": (*_packed_flow(binary, pf.FlowParams(q=BINARY_Q)),
                   np.full(7, 0.5), 1e24, "finished"),
        # the last step is cut to t_bound
        "clipped": (*_packed_flow(halfspace, pf.FlowParams()), np.zeros(3),
                    1.0, "finished"),
        # the rule picks 1e-4 here, so the first step is the horizon
        "short": (*_packed_flow(halfspace, pf.FlowParams()), np.zeros(3),
                  1e-5, "finished"),
        "wall": (_wall, lambda t, y: -np.eye(2), np.ones(2), 1e24, "failed"),
    }


@pytest.mark.parametrize("case", ["qp", "warm", "binary", "clipped",
                                  "short", "wall"])
def test_steps_match_scipy_bdf(case):
    # neither is given a first step: both size it from rhs
    rhs, jac, y0, t_bound, status = _cases()[case]
    ours, ref = (cls(rhs, 0.0, y0.copy(), t_bound=t_bound, jac=jac,
                     rtol=1e-3, atol=1e-9)
                 for cls in (BDF, ScipyBDF))
    assert (ours.h_abs, ours.nfev) == (ref.h_abs, ref.nfev)
    for k in range(400):
        ours.step()
        ref.step()
        where = f"{case} step {k}"
        assert ours.status == ref.status, where
        assert ours.t == ref.t, where
        np.testing.assert_array_equal(ours.y, ref.y, err_msg=where)
        assert (ours.order, ours.nfev, ours.njev, ours.nlu) \
            == (ref.order, ref.nfev, ref.njev, ref.nlu), where
        if ref.status != "running":
            break
    assert ours.status == status
    if case in ("clipped", "short"):
        assert ours.t == t_bound
    if case == "short":
        assert k == 0


def _decay():
    # y' = -y
    return BDF(lambda t, y: -y, 0.0, np.ones(2), t_bound=1.0,
               jac=lambda t, y: -np.eye(2), rtol=1e-3, atol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_jacobian_fails_the_step(bad):
    # every Newton matrix I - cJ is non-finite, so every update is: the
    # step is retried and halved until it fails, and nothing raises
    stepper = BDF(lambda t, y: -y, 0.0, np.ones(2), t_bound=1.0,
                  jac=lambda t, y: np.full((2, 2), bad), rtol=1e-3,
                  atol=1e-9)
    with np.errstate(over="ignore"):
        stepper.step()
    assert stepper.status == "failed"
    assert stepper.t == 0.0


def test_singular_lu_is_silent():
    # the suite turns warnings into errors; the non-finite update solved
    # from these factors fails the Newton iteration, and the
    # factorization itself says nothing
    _decay().lu(np.ones((2, 2)))


def test_zero_first_step_fails():
    # the trial step sees f jump to 1e300, so the first-step rule gives
    # h = 0, and the step fails instead of dividing by it
    with np.errstate(over="ignore"):
        stepper = BDF(lambda t, y: np.where(y == 0, 1.0, 1e300), 0.0,
                      np.zeros(2), t_bound=1.0,
                      jac=lambda t, y: np.zeros((2, 2)), rtol=1e-3,
                      atol=1e-9)
        assert stepper.h_abs == 0.0
        stepper.step()
    assert stepper.status == "failed"
    assert stepper.t == 0.0
