"""chainfolio: an offline, deterministic crypto portfolio pipeline.

Per-asset on-chain metrics are screened by correlation with future
returns, compressed by rolling normalization and rolling PCA, fed to
per-asset reinforcement-learning trading modules, and composed into a
portfolio by vote averaging inside a fee-aware backtester that reports
ARR, DRR, and Sortino against buy-and-hold baselines.
"""
