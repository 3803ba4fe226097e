"""The package's BDF stepper against scipy.integrate.BDF, the
implementation it ports: both are stepped side by side and must agree
exactly after every step."""

import numpy as np
import pytest
from scipy.integrate import BDF as ScipyBDF
from scipy.linalg import LinAlgWarning

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
        # the binarized Hessian hook at q = 4
        "binary": (*_packed_flow(binary, pf.FlowParams(q=BINARY_Q)),
                   np.full(7, 0.5), 1e24, "finished"),
        # the last step is cut to t_bound
        "clipped": (*_packed_flow(halfspace, pf.FlowParams()), np.zeros(3),
                    1.0, "finished"),
        "wall": (_wall, lambda t, y: -np.eye(2), np.ones(2), 1e24, "failed"),
    }


@pytest.mark.parametrize("case", ["qp", "binary", "clipped", "wall"])
def test_steps_match_scipy_bdf(case):
    rhs, jac, y0, t_bound, status = _cases()[case]
    ours, ref = (cls(rhs, 0.0, y0.copy(), t_bound=t_bound, jac=jac,
                     rtol=1e-3, atol=1e-9, first_step=1e-6)
                 for cls in (BDF, ScipyBDF))
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
    if case == "clipped":
        assert ours.t == t_bound


def _decay():
    # y' = -y
    return BDF(lambda t, y: -y, 0.0, np.ones(2), t_bound=1.0,
               jac=lambda t, y: -np.eye(2), rtol=1e-3, atol=1e-9,
               first_step=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_lu_input_and_rhs_refused(bad):
    stepper = _decay()
    with pytest.raises(ValueError, match="infs or NaNs"):
        stepper.lu(np.array([[1.0, bad], [0.0, 1.0]]))
    LU = stepper.lu(np.eye(2))
    with pytest.raises(ValueError, match="infs or NaNs"):
        stepper.solve_lu(LU, np.array([1.0, bad]))


def test_singular_lu_warns():
    with pytest.warns(LinAlgWarning, match="Diagonal number 2"):
        _decay().lu(np.ones((2, 2)))
