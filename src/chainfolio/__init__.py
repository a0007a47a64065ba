"""chainfolio: an offline, deterministic crypto portfolio pipeline.

Per-asset on-chain metrics are screened by correlation with future
returns, compressed by rolling normalization and rolling PCA, fed to
per-asset reinforcement-learning trading modules, and composed into a
portfolio by vote averaging inside a fee-aware backtester that reports
ARR, DRR, and Sortino against buy-and-hold baselines.
"""

from .config import RunConfig, load_config, parse_ts
from .cryptomodule import (
    AllocationAction,
    CmSettings,
    CryptoModule,
    DataRanges,
    RewardConfig,
    build_eam_state,
    build_sam_state,
    eam_reward,
    load_cm,
    save_cm,
    train_cm,
    train_cm_from_frame,
)
from .datastore import AlignedFrame, AssetId, CsvStore
from .errors import ChainfolioError, ConfigError, DataError, SerializationError
from .metrics import ReturnSeries, SummaryStats, arr, drr, sortino, summarize
from .portfolio import (
    BacktestConfig,
    BacktestReport,
    CmRegistry,
    Holdings,
    PortfolioWeights,
    RebalanceEvent,
    VoteSet,
    rebalance,
    run_backtest,
    vote_weights,
)
from .refinery import (
    CorrelationTable,
    HorizonConfig,
    RefinedFeatureFrame,
    SelectedMetricSet,
    correlation_table,
    k_period_returns,
    pearson,
    refine_features,
    rolling_normalize,
    rolling_pca,
    select_valid_metrics,
)
from .rlcore import QNetwork, ReplayBuffer, TrainConfig

__version__ = "0.1.0"

__all__ = [
    "AlignedFrame",
    "AllocationAction",
    "AssetId",
    "BacktestConfig",
    "BacktestReport",
    "ChainfolioError",
    "CmRegistry",
    "CmSettings",
    "ConfigError",
    "CorrelationTable",
    "CryptoModule",
    "CsvStore",
    "DataError",
    "DataRanges",
    "Holdings",
    "HorizonConfig",
    "PortfolioWeights",
    "QNetwork",
    "RebalanceEvent",
    "RefinedFeatureFrame",
    "ReplayBuffer",
    "ReturnSeries",
    "RewardConfig",
    "RunConfig",
    "SelectedMetricSet",
    "SerializationError",
    "SummaryStats",
    "TrainConfig",
    "VoteSet",
    "arr",
    "build_eam_state",
    "build_sam_state",
    "correlation_table",
    "drr",
    "eam_reward",
    "k_period_returns",
    "load_cm",
    "load_config",
    "parse_ts",
    "pearson",
    "rebalance",
    "refine_features",
    "rolling_normalize",
    "rolling_pca",
    "run_backtest",
    "save_cm",
    "select_valid_metrics",
    "sortino",
    "summarize",
    "train_cm",
    "train_cm_from_frame",
    "vote_weights",
]
