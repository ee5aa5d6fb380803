"""exocast: monthly demand forecasting with exogenous market indicators.

Univariate monthly forecasts (a seasonal ARMA engine with exogenous
regressors, and an additive trend/seasonality/autoregression model) augmented
by automatically selected external indicator series, with a statistical-office
ingestion funnel and an out-of-sample evaluation harness.
"""

__version__ = "0.1.0"

from .series import (  # noqa: F401
    AlignedFrame,
    Month,
    MonthlySeries,
    NormalizationParams,
    align_merge,
    mae,
    read_series_csv,
    split_train_test,
    write_series_csv,
)
from .sarimax import SarimaxOrder, SarimaxParams  # noqa: F401
from .additive import AdditiveConfig  # noqa: F401
from .selection import CandidateSet, SelectionResult  # noqa: F401
from .synth import SyntheticSpec, generate_synthetic  # noqa: F401
