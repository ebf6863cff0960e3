"""Base kernels and gram matrices.

Evaluates each built-in kernel on a pair of histograms, then builds gram
matrices and shows they are symmetric positive semidefinite, which is the
premise every later construction relies on.
"""

import numpy as np

from dmapnet import KernelSpec, eval_kernel, gram_matrix

rng = np.random.default_rng(0)

x = np.array([0.2, 0.5, 0.3])
y = np.array([0.4, 0.4, 0.2])
specs = [
    KernelSpec("linear"),
    KernelSpec("polynomial", degree=2, offset=1.0),
    KernelSpec("rbf", gamma=2.0),
    KernelSpec("histogram_intersection"),
]

print("kernel values for one pair of histograms:")
for spec in specs:
    print(f"  {spec.kind:25s} k(x, y) = {eval_kernel(spec, x, y):.6f}")

X = rng.dirichlet(np.ones(3), size=6)  # six random histograms
print("\ngram matrices over six histograms:")
for spec in specs:
    gm = gram_matrix(spec, X)
    eigs = np.linalg.eigvalsh(gm.values)
    print(f"  {spec.kind:25s} shape {gm.shape}, "
          f"min eigenvalue {eigs.min():+.2e}, max {eigs.max():.2e}")

# a single kernel evaluation is the 1x1 case of the gram computation
entry = gram_matrix(KernelSpec("rbf", gamma=2.0), X[0], X[1]).values[0, 0]
single = eval_kernel(KernelSpec("rbf", gamma=2.0), X[0], X[1])
print("\neval_kernel equals the gram entry bitwise:", entry == single)
