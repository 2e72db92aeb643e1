"""Source-channel tradeoff toolkit for low-latency edge sensing.

Analytical sensing-error models under block quantization and short-packet
loss, concave-surrogate coding-rate adaptation, and a seeded Monte Carlo
harness; ``senselink.validation`` (not imported here: it alone loads
``scipy.stats``) checks every closed form against simulation and oracles.
"""

from .channel import ChannelConfig, avg_packet_loss_approx, avg_packet_loss_exact, snr_from_db
from .gmm import InferenceModel, discriminant_gain, effective_discriminant_gain
from .harness import ExperimentConfig, ResultRow, estimate_error, sweep
from .optimizer import (
    OptimizerSettings,
    RateDecision,
    TradeoffParams,
    gradient_ascent,
    round_rate,
    surrogate,
)

__all__ = [
    "ChannelConfig",
    "ExperimentConfig",
    "InferenceModel",
    "OptimizerSettings",
    "RateDecision",
    "ResultRow",
    "TradeoffParams",
    "avg_packet_loss_approx",
    "avg_packet_loss_exact",
    "discriminant_gain",
    "effective_discriminant_gain",
    "estimate_error",
    "gradient_ascent",
    "round_rate",
    "snr_from_db",
    "surrogate",
    "sweep",
]
