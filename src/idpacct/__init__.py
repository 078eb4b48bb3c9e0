"""Per-example differential-privacy accounting for DP-SGD."""

from .accountant import (
    AccountantConfig,
    BucketCache,
    IndividualLedger,
    LedgerError,
    PrivacyReport,
    worst_case_epsilon,
)
from .adaptive_oracle import (
    AdaptiveSpec,
    coin_chain_spec,
    enumerate_adaptive_vs_fixed,
    random_spec,
)
from .analysis import (
    CorrelationResult,
    DegenerateVarianceError,
    GroupSummary,
    HistogramResult,
    eps_loss_correlation,
    group_summary,
    histogram,
    pearson,
)
from .dpsgd_sim import (
    Dataset,
    NanAbortError,
    SimConfig,
    TrainOutput,
    accuracy,
    exact_reference_accounting,
    generate_synthetic,
    train,
)
from .kernel import BACKEND, sgm_rdp_matrix
from .rdp_math import (
    CalibrationError,
    InfeasibleTargetError,
    QuadratureError,
    RdpCurve,
    calibrate_noise,
    default_orders,
    rdp_to_dp,
    sgm_rdp_curve,
    sgm_rdp_int,
    sgm_rdp_quadrature_oracle,
)
from .release import (
    BudgetInfeasibleError,
    ReleaseConfig,
    ReleasedStats,
    calibrate_gaussian_scale,
    dp_mean,
    release_all,
)
from .traceio import TraceFormatError, TraceHeader, read_trace, replay_trace, write_trace

__version__ = "0.1.0"
