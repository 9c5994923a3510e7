"""Finite-difference check of tape gradients, shared by the model tests."""

from dataclasses import dataclass

import numpy as np

from htmem.autodiff import Tape, evaluate


@dataclass
class GradCheckReport:
    per_param: list
    max_rel_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def grad_check(build_loss, params, delta=1e-5, tol=1e-4) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    ``build_loss(tape)`` must rebuild the loss deterministically and bind
    the arrays in ``params`` via ``tape.watch`` (model loss functions do).
    Every tape the check builds is released before it returns.
    """
    tape = Tape()
    tape.backward(build_loss(tape))
    analytic = [tape.grad(p).copy() for p in params]
    tape.release()

    per_param = []
    for arr, grad in zip(params, analytic):
        flat = arr.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + delta
            up = evaluate(build_loss)
            flat[i] = orig - delta
            down = evaluate(build_loss)
            flat[i] = orig
            fd[i] = (up - down) / (2.0 * delta)
        fd = fd.reshape(arr.shape)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-3)
        per_param.append(float(np.max(np.abs(grad - fd) / denom)) if arr.size else 0.0)
    worst = max(per_param) if per_param else 0.0
    return GradCheckReport(per_param, worst, tol)
