"""Strictly causal streaming heart-rate benchmark.

Two tasks over per-second HR derived from R-peak times: next-10-second
tachycardia risk and one-step forecasting, with compact GRU-D and Transformer
encoders trained from scratch on a built-in reverse-mode engine,
calibration-aware evaluation, and record-grouped bootstrap uncertainty.
"""

__version__ = "0.1.0"
