"""Multimodal haptic-adjective classification pipeline.

Subpackages/modules:
    engine      -- tensors-as-ndarrays, conv/LSTM/dense kernels, losses
    haptic      -- raw trial -> 32x150 instance preprocessing
    visual      -- pooled, per-object visual features from trunk feature maps
    models      -- parameterized layers and the three networks' builders (grouped CNN, LSTM, fusion classifier)
    training    -- two-phase training loop, the only owner of SGD momentum
    features    -- activation extraction, instance combination, fusion
    evaluation  -- splits, ROC-AUC, report aggregation
    io          -- file formats, manifests, checkpoints
    synth       -- synthetic dataset generator
"""

__version__ = "0.1.0"

__all__ = [
    "engine",
    "evaluation",
    "features",
    "haptic",
    "io",
    "models",
    "synth",
    "training",
    "visual",
]
