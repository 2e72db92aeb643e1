"""Monte Carlo experiment engine: config, decisions, trials, sweeps and the CSV.

The engine simulates the point one ``TradeoffParams`` holds (model, clip,
channel, observation count) at each decision's bit level; a sweep builds its
model once. Trials run in blocks of a fixed number of feature values. Each
block draws from its own random stream: keyed by (seed, cell, block) for a
single cell, and by (seed, swept value, block, sweep parameter) for a sweep
point, whose policies are all scored on the same episodes. Any output is a
pure function of its configuration and seed, and sweeps over different
parameters or values draw different numbers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from . import channel as ch
from . import gmm
from . import optimizer as opt
from . import quant
from .numerics import require_finite

# Feature values (trials x observations x dim) drawn per block: enough that
# numpy's fixed cost per call is spread thin, few enough that a block's
# arrays take about a megabyte whatever the trial count.
_BLOCK_VALUES = 2 ** 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated operating point.

    ``sigma_spec`` is "identity", a list of diagonal entries, or a nested
    list (dense matrix). ``policy`` is one of adaptive | brute | urllc |
    bits:R. ``noise_model`` selects the real quantizer ("quantizer") or the
    analytic isotropic-noise shortcut ("lemma1").
    """

    dim: int = 50
    centroid: float = 0.1
    sigma_spec: object = "identity"
    clip: float = 5.0
    antennas: int = 4
    snr_db: float = 2.0
    blocklength: int = 100
    observations: int = 10
    policy: str = "adaptive"
    trials: int = 10_000
    seed: int = 0
    noise_model: str = "quantizer"
    model_file: str | None = None

    def __post_init__(self):
        require_finite(centroid=self.centroid, clip=self.clip, snr_db=self.snr_db)
        for name in ("dim", "antennas", "blocklength", "observations", "trials", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.trials < 1 or self.observations < 1 or self.dim < 1:
            raise ValueError("invalid experiment configuration")
        if self.noise_model not in ("quantizer", "lemma1"):
            raise ValueError(f"unknown noise model {self.noise_model!r}")


@dataclass(frozen=True)
class ResultRow:
    param: str
    value: float | None
    policy: str
    bits: int
    rate: float
    error: float
    ci95: float
    pred_exact: float
    pred_bound: float
    trials: int
    seed: int


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


def load_model_file(path: str) -> gmm.InferenceModel:
    """Read a JSON model: mu1, mu2 arrays and sigma as "identity" | diag | dense."""
    with open(path) as fh:
        spec = json.load(fh)
    if missing := [key for key in ("mu1", "mu2", "sigma") if key not in spec]:
        raise ValueError(f"model file {path} has no {', '.join(missing)}")
    mu1 = np.asarray(spec["mu1"], dtype=float)
    mu2 = np.asarray(spec["mu2"], dtype=float)
    return gmm.InferenceModel(mu1, mu2, _sigma_from_spec(spec["sigma"], mu1.size))


def _sigma_from_spec(spec, dim: int) -> np.ndarray:
    if isinstance(spec, str):
        if spec != "identity":
            raise ValueError(f"unknown covariance spec {spec!r}")
        return np.eye(dim)
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 1:
        return np.diag(arr)
    return arr


def build_model(config: ExperimentConfig) -> gmm.InferenceModel:
    """The model of ``config``; one read from ``model_file`` must have ``config.dim``."""
    if config.model_file is not None:
        model = load_model_file(config.model_file)
        if model.dim != config.dim:
            raise ValueError(f"model file has dimension {model.dim}, not dim={config.dim}")
        return model
    mu = config.centroid * np.ones(config.dim)
    return gmm.InferenceModel(mu, -mu, _sigma_from_spec(config.sigma_spec, config.dim))


def build_params(config: ExperimentConfig, model: gmm.InferenceModel | None = None) -> opt.TradeoffParams:
    if model is None:
        model = build_model(config)
    cfg = ch.ChannelConfig(config.antennas, ch.snr_from_db(config.snr_db), config.blocklength)
    return opt.TradeoffParams(model, config.clip, cfg, config.observations)


def decide(config: ExperimentConfig, params: opt.TradeoffParams | None = None) -> opt.RateDecision:
    """Resolve the policy string into a rate decision; decisions that share
    ``params`` share its bit-level table."""
    if params is None:
        params = build_params(config)
    policy = config.policy
    if policy == "adaptive":
        return opt.round_rate(opt.solve_rate(params), params)
    if policy == "brute":
        return opt.brute_force_rate(params)
    if policy == "urllc":
        return opt.urllc_rate(params)
    if policy.startswith("bits:"):
        return opt.fixed_bits_rate(int(policy.split(":", 1)[1]), params)
    raise ValueError(f"unknown policy {policy!r}")


class _Level:
    """One bit level's rate, quantizer grid and score at an operating point.

    Features are drawn in the KLT eigenbasis of Sigma, the only basis the
    quantizer sees: Gaussian with mean ``means[c]`` = basis @ mu_c and
    covariance diag(lambda). Decoding and scoring fold into one weight
    vector: the score of the decoded features basis.T @ y is y @ w + const, with
    w = basis @ (Sigma + sigma_q2 I)^{-1} (mu2 - mu1). The lemma-1 noise is
    isotropic, so y is Gaussian with covariance diag(lambda + sigma_q2) and
    the score of one packet is exactly Normal(w @ mu_c + const,
    sum w_i^2 (lambda_i + sigma_q2)): one draw per packet.
    """

    def __init__(self, params: opt.TradeoffParams, means: np.ndarray, bits: int):
        self.bits, self.rate = bits, params.level_rate(bits)
        # Score with the distortion-matched covariance: the Bayes rule for the
        # decoded features, and the one the analytic error expressions assume.
        inflated = params.model.eigvals + quant.noise_variance(bits, params.clip)
        self.weights = (means[1] - means[0]) / inflated
        self.const = 0.5 * float(np.sum((means[0] ** 2 - means[1] ** 2) / inflated))
        self.score_means = means @ self.weights + self.const
        self.score_sd = math.sqrt(float(np.sum(self.weights ** 2 * inflated)))


def _simulate_block(params: opt.TradeoffParams, noise_model: str, means: np.ndarray,
                    scale: np.ndarray, levels: list[_Level], n: int,
                    rng: np.random.Generator) -> list[int]:
    """Simulate ``n`` sensing episodes from one stream and return, for each
    level, how many of them decide the wrong class.

    Each episode draws a class and sends K packets over the fading channel.
    The classes, the post-combining SNRs and the uniforms that decide each
    packet's arrival are drawn once and shared by every level; each level
    only applies its own rate's loss to them. Features (or, under lemma 1,
    standard scores) are drawn once for the packets that arrive under any
    level; each level quantizes and scores its own arrivals and sums them
    per episode. An episode decides class 1 iff the sum is < 0; one with zero
    received packets guesses, the i-th such episode taking the i-th of n
    guesses drawn last. A level's outcome depends on the other levels only
    through the union of arriving packets, not on their order; with one
    level, the stream is consumed as by a single-policy engine.
    """
    k = params.observations
    classes = rng.integers(1, 3, size=n)
    snrs = ch.sample_post_mrc_snr(params.channel, rng, size=n * k).reshape(n, k)
    uniforms = rng.random((n, k))
    rates = np.array([lvl.rate for lvl in levels])
    success = uniforms >= ch.packet_loss(snrs, params.channel.blocklength, rates[:, None, None])
    reached = success.any(axis=0)
    episode = np.nonzero(reached)[0]
    arrived = classes[episode] - 1
    if noise_model == "quantizer":
        draws = rng.standard_normal((episode.size, scale.size))
        draws *= scale
        draws += means[arrived]
    else:
        draws = rng.standard_normal(episode.size)
    guesses = rng.integers(1, 3, size=n)

    wrong = []
    for lvl, ok in zip(levels, success):
        mine = ok[reached]  # this level's packets among those drawn
        if mine.all():
            own, owner, label = draws, episode, arrived
        else:
            own, owner, label = draws[mine], episode[mine], arrived[mine]
        if noise_model == "quantizer":
            scores = quant.scalar_quantize(own, params.clip, lvl.bits) @ lvl.weights
            scores += lvl.const
        else:
            scores = own * lvl.score_sd
            scores += lvl.score_means[label]
        total = np.bincount(owner, weights=scores, minlength=n)
        decisions = np.where(total < 0.0, 1, 2)
        silent = ~ok.any(axis=1)
        decisions[silent] = guesses[:int(silent.sum())]
        wrong.append(int(np.count_nonzero(decisions != classes)))
    return wrong


def _count_errors(params: opt.TradeoffParams, noise_model: str, bits: list[int],
                  trials: int, key: tuple, tag: tuple = ()) -> list[int]:
    """Wrong decisions out of ``trials`` episodes at each of a point's bit
    levels, all scored on the same episodes (common random numbers).

    ``params`` is the whole point: model, clip, channel (with its
    blocklength) and observation count. Block b draws from the stream keyed
    (*key, b, *tag). Repeats of a bit level share its work and its count.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    model = params.model
    means = np.stack([model.basis @ model.mu1, model.basis @ model.mu2])
    scale = np.sqrt(model.eigvals)
    distinct = list(dict.fromkeys(bits))
    levels = [_Level(params, means, b) for b in distinct]
    block_size = max(1, _BLOCK_VALUES // (params.observations * model.dim))
    wrong = np.zeros(len(levels), dtype=np.int64)
    for block, start in enumerate(range(0, trials, block_size)):
        rng = np.random.default_rng([*key, block, *tag])
        wrong += _simulate_block(params, noise_model, means, scale, levels,
                                 min(block_size, trials - start), rng)
    return [int(wrong[distinct.index(b)]) for b in bits]


def _row(param: str, value: float | None, policy: str, decision: opt.RateDecision,
         wrong: int, trials: int, seed: int) -> ResultRow:
    p_hat = wrong / trials
    ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return ResultRow(param, value, policy, decision.bits_per_feature,
                     decision.rounded_rate, p_hat, ci,
                     decision.predicted_exact, decision.predicted_bound,
                     trials, seed)


SWEEP_FIELDS = {"observations": "observations", "snr-db": "snr_db",
                "antennas": "antennas", "blocklength": "blocklength"}
_SWEEP_STREAMS = {param: i + 1 for i, param in enumerate(SWEEP_FIELDS)}


def estimate_error(config: ExperimentConfig, decision: opt.RateDecision,
                   trials: int, seed: int, cell: int = 0,
                   params: opt.TradeoffParams | None = None) -> ResultRow:
    """Aggregate one decision's error rate over independent trials, one
    stream per block keyed by (seed, cell, block): the one-policy case of
    the engine ``sweep`` runs. ``params`` (by default built from ``config``)
    supplies the whole simulated point; ``config`` adds only the noise model
    and the row's policy, and ``decision`` only its bit level."""
    wrong, = _count_errors(params or build_params(config), config.noise_model,
                           [decision.bits_per_feature], trials, key=(seed, cell))
    return _row("", None, config.policy, decision, wrong, trials, seed)


def _float_words(value: float) -> tuple[int, int]:
    """The bit pattern of a float64 as two 32-bit words; -0.0 maps as 0.0."""
    return divmod(int(np.float64(value + 0.0).view(np.uint64)), 1 << 32)


def sweep(config: ExperimentConfig, param: str, values, policies,
          trials: int, seed: int) -> list[ResultRow]:
    """Decide every policy at each swept value, then score them all on the
    value's shared episodes; rows come in (value, policy) order.

    Block b of a value's episodes draws from the stream keyed (seed, value's
    float64 bits, b, parameter id). The id goes last and is nonzero:
    SeedSequence pads a key with zeros, so no sweep key equals the key
    (seed, cell, b) of ``estimate_error``. A row's error depends on its
    value, its policy and the set of bit levels at its value, not on the
    other values or the order of the policies.
    """
    if not values or not policies:
        raise ValueError("values and policies must be nonempty")
    try:
        attr = SWEEP_FIELDS[param]
    except KeyError:
        raise ValueError(f"unknown sweep parameter {param!r}") from None
    model = build_model(config)  # no swept field changes the model
    rows = []
    for value in values:
        number = float(value)
        # a count that is not a whole number stays a float, which ExperimentConfig refuses
        whole = attr != "snr_db" and number.is_integer()
        point = replace(config, **{attr: int(number) if whole else number})
        decisions = []
        try:
            params = build_params(point, model)  # one channel and bit-level table per value
            for policy in policies:
                decisions.append(decide(replace(point, policy=policy), params))
            wrong = _count_errors(params, config.noise_model,
                                  [d.bits_per_feature for d in decisions], trials,
                                  key=(seed, *_float_words(number)), tag=(_SWEEP_STREAMS[param],))
        except Exception as exc:
            failed = (f", policy={policies[len(decisions)]}"
                      if len(decisions) < len(policies) else "")
            raise RuntimeError(f"sweep cell ({param}={value}{failed}) failed") from exc
        rows += [_row(param, number, policy, d, w, trials, seed)
                 for policy, d, w in zip(policies, decisions, wrong)]
    return rows


def rows_to_csv(rows) -> str:
    """Render result rows with the fixed column order; output is byte-stable."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([
            r.param, "" if r.value is None else repr(float(r.value)), r.policy,
            r.bits, repr(float(r.rate)), repr(float(r.error)), repr(float(r.ci95)),
            repr(float(r.pred_exact)), repr(float(r.pred_bound)), r.trials, r.seed,
        ])
    return buf.getvalue()
