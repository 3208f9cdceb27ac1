"""Central finite-difference gradient oracle, independent of the tape.

The checker evaluates the forward function as plain numbers (no gradient
recording) at perturbed inputs, so it shares no code with the backward rules
it verifies.
"""

from __future__ import annotations

import numpy as np

from semtrack.autodiff import Matrix, Tape

STEP = 1e-4
REL_TOL = 1e-4
ABS_TOL = 1e-6


def finite_diff(f, x: np.ndarray, indices=None, step: float = STEP) -> dict:
    """Central differences of scalar f at x, at all or selected flat indices."""
    flat = x.reshape(-1)
    if indices is None:
        indices = range(flat.size)
    out = {}
    for i in indices:
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += step
        xm[i] -= step
        out[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * step)
    return out


def assert_grad_close(analytic: float, numeric: float, label: str = "") -> None:
    err = abs(analytic - numeric)
    if abs(numeric) >= 1.0:
        assert err / abs(numeric) < REL_TOL, (
            f"{label}: rel err {err / abs(numeric):.3e} (analytic {analytic}, fd {numeric})")
    else:
        assert err < ABS_TOL, f"{label}: abs err {err:.3e} (analytic {analytic}, fd {numeric})"


def check_against_fd(build, arrays: list[np.ndarray], sample: int | None = None,
                     seed: int = 0, label: str = "") -> None:
    """Verify tape gradients of build(*matrices) -> 1x1 Matrix against FD.

    ``sample`` limits the checked coordinates per input (None = all).
    """
    mats = [Matrix(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(*mats)
        tape.backward(loss)

    rng = np.random.default_rng(seed)
    for k, (mat, arr) in enumerate(zip(mats, arrays)):
        grad = mat.grad
        assert grad is not None, f"{label}: input {k} received no gradient"

        def f(x, k=k):
            vals = [Matrix(a) for a in arrays]
            vals[k] = Matrix(x)
            return build(*vals).item()

        n = arr.size
        if sample is not None and sample < n:
            indices = sorted(rng.choice(n, size=sample, replace=False).tolist())
        else:
            indices = None
        fd = finite_diff(f, arr, indices=indices)
        flat_grad = grad.reshape(-1)
        for i, numeric in fd.items():
            assert_grad_close(flat_grad[i], numeric, f"{label}: input {k} flat[{i}]")


def weighted_scalar(op):
    """Turn a matrix-valued op into a scalar via a fixed random weighting."""
    from semtrack import autodiff as ad

    cache = {}

    def build(*mats):
        out = op(*mats)
        key = out.shape
        if key not in cache:
            cache[key] = Matrix(np.random.default_rng(991).standard_normal(key))
        return ad.sum_all(ad.multiply(out, cache[key]))

    return build


def mse(a: Matrix, b: Matrix) -> Matrix:
    """Mean over all elements of (a - b)^2 as a 1x1 node, built from the
    tape's elementwise ops: the tests' scalar loss."""
    from semtrack import autodiff as ad

    diff = ad.sub(a, b)
    return ad.scale(ad.sum_all(ad.multiply(diff, diff)), 1.0 / diff.data.size)
