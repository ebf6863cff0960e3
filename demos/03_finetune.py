"""Supervised fine-tuning of the maps.

Generates multi-label data, builds a map network on a subset of anchors,
cross-validates the error trade-off, then alternates exact classifier
solves with gradient steps on the map parameters.  The F-measures before
and after show what fine-tuning buys.
"""

import numpy as np

from dmapnet import (AnchorSet, ClassifierHead, SyntheticSpec, TrainConfig,
                     build_dmn, cross_validate_C, default_architecture,
                     default_input_kernels, evaluate, forward_batch,
                     generate_synthetic, svm_solve, train_with_guard)

spec = SyntheticSpec(num_samples=120, num_features=6, num_classes=3,
                     clusters=1, noise=0.1, seed=4)
data = generate_synthetic(spec)
print(f"dataset: {data.num_samples} samples, {data.num_features} features, "
      f"{data.num_classes} concepts")

anchors = AnchorSet(samples=data.features[:40], ids=data.ids[:40])
arch = default_architecture(default_input_kernels(), seed=4)
# a moderate clip keeps the training landscape well conditioned
model = build_dmn(arch, anchors, clip_ratio=1e-6)

C = cross_validate_C(data, model, folds=3)
print("cross-validated trade-offs per concept:", C)

maps, _ = forward_batch(model, data.features)
omega = svm_solve(maps, data.labels, C)
before = evaluate(maps @ omega.T, data.labels)
print(f"before fine-tuning: MF-S {before.mf_samples:.4f}, "
      f"MF-C {before.mf_concepts:.4f}, mean AP {before.mean_ap:.4f}")

head = ClassifierHead.random(data.num_classes, model.final_width,
                             trade_off=C, seed=4)
cfg = TrainConfig(max_iters=120, c_policy=C, convergence_tol=1e-7, seed=4)
trained, trained_head, history, eta = train_with_guard(model, head, data, cfg)
halvings = round(np.log2(cfg.learning_rate / eta))
print(f"\nfinal learning rate {eta:.3e} after {halvings} halvings")
print(f"objective: {history[0].objective:.2f} (iteration 1) -> "
      f"{history[-1].objective:.2f} (iteration {history[-1].iteration})")
increases = sum(1 for a, b in zip(history, history[1:])
                if b.objective > a.objective)
print(f"objective increases in the log: {increases}")

maps_t, _ = forward_batch(trained, data.features)
after = evaluate(maps_t @ trained_head.normals.T, data.labels)
print(f"after fine-tuning:  MF-S {after.mf_samples:.4f}, "
      f"MF-C {after.mf_concepts:.4f}, mean AP {after.mean_ap:.4f}")
