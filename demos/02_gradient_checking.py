"""Verify every layer's backward pass against central finite differences.

All layers here (dense, embedding, LSTM, convolution, pooling, the fused
average and the classification head) ship hand-written gradients, so each one
is probed numerically: perturb every parameter element by +-1e-5 (+-1e-4 in
the whole-model check, whose smallest LSTM gradients would otherwise drown in
rounding error), difference the loss, and compare with the analytic gradient.
The suite runs the same fragments as ``baitradar grad-check``; a corrupted
backward pass shows what a failure looks like.
"""

import numpy as np

from baitradar.checks import run_gradient_checks
from baitradar.nncore import Parameter, dense_backward, dense_forward, grad_check

print("fragment            max relative error")
for name, report in run_gradient_checks():
    flag = "ok" if report.passes(1e-4) else "FAIL"
    print(f"{name:<19} {report.max_rel_err:.3e}  {flag}")

# now break a gradient on purpose: double the weight gradient of a dense layer
rng = np.random.default_rng(0)
w = Parameter("w", rng.normal(size=(3, 2)))
x = rng.normal(size=(4, 3))
proj = rng.normal(size=(4, 2))


def corrupted():
    out, cache = dense_forward(x, w.value, np.zeros(2))
    _, dw, _ = dense_backward(proj, cache)
    w.grad += 2.0 * dw  # bug planted here
    return float((out * proj).sum())


report = grad_check(corrupted, [w])
print(f"\nwith a doubled weight gradient the checker reports "
      f"max_rel_err={report.max_rel_err:.3f} (an obvious failure)")
