"""From an implicit kernel network to explicit maps.

Builds a three-layer kernel network over a set of anchor samples, converts
every unit into an explicit finite-dimensional map by eigendecomposition,
and verifies that the maps reproduce the network's kernel values.
"""

import numpy as np

from dmapnet import (AnchorSet, build_dmn, default_architecture,
                     default_input_kernels, reconstruction_errors)

rng = np.random.default_rng(1)

# anchors drawn at a small scale keep every layer's gram well conditioned
anchors = AnchorSet(samples=rng.uniform(0.0, 0.05, size=(30, 6)))
arch = default_architecture(default_input_kernels(), seed=1)
print(f"architecture: {arch.num_layers} layers with widths {arch.widths}")

model = build_dmn(arch, anchors, clip_ratio=1e-10)
print("\neigenvalue clipping per unit (each unit's clip report):")
for l, units in enumerate(model.layers, start=1):
    for p, unit in enumerate(units, start=1):
        report = unit.clip_report
        print(f"  layer {l} unit {p}: retained {report.retained}, discarded "
              f"{report.discarded} (max |eig| {report.discarded_max_abs:.3e})")

print("\nper-unit map widths after clipping:")
for l, units in enumerate(model.layers, start=1):
    print(f"  layer {l}: " + ", ".join(str(u.width) for u in units))

# each unit's map gram must equal the network's kernel gram on the anchors
errors = reconstruction_errors(model)
print("\nrelative reconstruction error per unit:")
for l, layer in enumerate(errors, start=1):
    line = ", ".join(f"{e:.2e}" for e in layer)
    print(f"  layer {l}: {line}")
worst = max(max(layer) for layer in errors)
print(f"worst unit: {worst:.3e}")

# a coarser clip trades fidelity for smaller, better conditioned maps
coarse = build_dmn(arch, anchors, clip_ratio=1e-4)
coarse_worst = max(max(layer) for layer in reconstruction_errors(coarse))
total = sum(u.width for units in coarse.layers for u in units)
print(f"\nclip_ratio 1e-4: total map width {total}, "
      f"worst reconstruction {coarse_worst:.3e}")
