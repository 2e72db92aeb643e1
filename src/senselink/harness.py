"""Monte Carlo experiment engine: trials, policy sweeps, and the validation suite.

Trials are simulated in blocks of a fixed number of feature values. Each
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
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np
from scipy import stats

from . import channel as ch
from . import gmm
from . import optimizer as opt
from . import quant
from .numerics import poisson_binomial_pmf, q_function, require_finite

CSV_COLUMNS = ["param", "value", "policy", "bits", "rate", "error", "ci95",
               "pred_exact", "pred_bound", "trials", "seed"]

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


def load_model_file(path: str) -> gmm.InferenceModel:
    """Read a JSON model: mu1, mu2 arrays and sigma as "identity" | diag | dense."""
    with open(path) as fh:
        spec = json.load(fh)
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


class _Point:
    """Per-point precomputation shared by every policy and block.

    Features are drawn directly in the KLT eigenbasis of Sigma: the quantizer
    only ever sees basis @ x, which is Gaussian with mean basis @ mu_c and
    covariance diag(lambda).
    """

    def __init__(self, config: ExperimentConfig, params: opt.TradeoffParams):
        self.config = config
        self.channel = params.channel
        model = params.model
        basis = model.basis
        self.eigs = np.sum((basis @ model.sigma) * basis, axis=1)
        self.scale = np.sqrt(self.eigs)
        self.means = np.stack([basis @ model.mu1, basis @ model.mu2])
        self.block_size = max(1, _BLOCK_VALUES // (config.observations * model.dim))


class _Level:
    """One bit level's rate, quantizer grid and score at a point.

    Decoding and scoring fold into one weight vector: the score of the
    decoded features basis.T @ y is y @ w + const, with
    w = basis @ (Sigma + sigma_q2 I)^{-1} (mu2 - mu1). The lemma-1 noise is
    isotropic, so y is Gaussian with covariance diag(lambda + sigma_q2) and
    the score of one packet is exactly Normal(w @ mu_c + const,
    sum w_i^2 (lambda_i + sigma_q2)): one draw per packet.
    """

    def __init__(self, point: _Point, bits: int, rate: float):
        self.bits, self.rate = bits, rate
        # Score with the distortion-matched covariance: the Bayes rule for the
        # decoded features, and the one the analytic error expressions assume.
        inflated = point.eigs + quant.noise_variance(bits, point.config.clip)
        self.weights = (point.means[1] - point.means[0]) / inflated
        self.const = 0.5 * float(np.sum((point.means[0] ** 2 - point.means[1] ** 2) / inflated))
        self.score_means = point.means @ self.weights + self.const
        self.score_sd = math.sqrt(float(np.sum(self.weights ** 2 * inflated)))


def _simulate_block(point: _Point, levels: list[_Level], n: int,
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
    cfg = point.config
    k = cfg.observations
    classes = rng.integers(1, 3, size=n)
    snrs = ch.sample_post_mrc_snr(point.channel, rng, size=n * k).reshape(n, k)
    uniforms = rng.random((n, k))
    rates = np.array([lvl.rate for lvl in levels])
    success = uniforms >= ch.packet_loss(snrs, cfg.blocklength, rates[:, None, None])
    reached = success.any(axis=0)
    episode = np.nonzero(reached)[0]
    arrived = classes[episode] - 1
    if cfg.noise_model == "quantizer":
        draws = rng.standard_normal((episode.size, point.scale.size))
        draws *= point.scale
        draws += point.means[arrived]
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
        if cfg.noise_model == "quantizer":
            scores = quant.scalar_quantize(own, cfg.clip, lvl.bits) @ lvl.weights
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


def _count_errors(config: ExperimentConfig, params: opt.TradeoffParams,
                  decisions: list[opt.RateDecision], trials: int,
                  key: tuple, tag: tuple = ()) -> list[int]:
    """Wrong decisions out of ``trials`` episodes for each of a point's
    decisions, all scored on the same episodes (common random numbers).

    Block b draws from the stream keyed (*key, b, *tag). Decisions at the
    same bit level share its work and its count.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    point = _Point(config, params)
    index = {}
    for d in decisions:
        index.setdefault((d.bits_per_feature, d.rounded_rate), len(index))
    levels = [_Level(point, bits, rate) for bits, rate in index]
    wrong = np.zeros(len(levels), dtype=np.int64)
    for block, start in enumerate(range(0, trials, point.block_size)):
        rng = np.random.default_rng([*key, block, *tag])
        wrong += _simulate_block(point, levels, min(point.block_size, trials - start), rng)
    return [int(wrong[index[d.bits_per_feature, d.rounded_rate]]) for d in decisions]


def _row(param: str, value: float | None, policy: str, decision: opt.RateDecision,
         wrong: int, trials: int, seed: int) -> ResultRow:
    p_hat = wrong / trials
    ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return ResultRow(param, value, policy, decision.bits_per_feature,
                     decision.rounded_rate, p_hat, ci,
                     decision.predicted_exact, decision.predicted_bound,
                     trials, seed)


_SWEEP_FIELDS = {"observations": "observations", "snr-db": "snr_db",
                 "antennas": "antennas", "blocklength": "blocklength"}
_SWEEP_STREAMS = {param: i + 1 for i, param in enumerate(_SWEEP_FIELDS)}


def estimate_error(config: ExperimentConfig, decision: opt.RateDecision,
                   trials: int, seed: int, cell: int = 0,
                   params: opt.TradeoffParams | None = None) -> ResultRow:
    """Aggregate one decision's error rate over independent trials, one
    stream per block keyed by (seed, cell, block): the one-policy case of
    the engine ``sweep`` runs. ``params``, when given, supplies the model
    and channel of ``config``."""
    wrong, = _count_errors(config, params or build_params(config), [decision],
                           trials, key=(seed, cell))
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
    other values or the order of the policies; that order can move a
    prediction in its last digit, since it sets how the bit-level table is
    filled.
    """
    if not values or not policies:
        raise ValueError("values and policies must be nonempty")
    try:
        attr = _SWEEP_FIELDS[param]
    except KeyError:
        raise ValueError(f"unknown sweep parameter {param!r}") from None
    rows = []
    for value in values:
        cast = int(value) if attr in ("observations", "antennas", "blocklength") else float(value)
        point = replace(config, **{attr: cast})
        decisions = []
        try:
            params = build_params(point)  # one model, channel and bit-level table per value
            for policy in policies:
                decisions.append(decide(replace(point, policy=policy), params))
            wrong = _count_errors(point, params, decisions, trials,
                                  key=(seed, *_float_words(float(cast))),
                                  tag=(_SWEEP_STREAMS[param],))
        except Exception as exc:
            failed = (f", policy={policies[len(decisions)]}"
                      if len(decisions) < len(policies) else "")
            raise RuntimeError(f"sweep cell ({param}={value}{failed}) failed") from exc
        rows += [_row(param, float(value), policy, d, w, trials, seed)
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


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str):
        self.checks.append(CheckResult(name, bool(passed), detail))

    def render(self) -> str:
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
                 for c in self.checks]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _poisson_binomial_enum(success_probs) -> np.ndarray:
    """Exponential subset-sum definition of the PMF, kept as an oracle."""
    p = np.asarray(success_probs, dtype=float)
    k = p.size
    pmf = np.zeros(k + 1)
    for m in range(k + 1):
        total = 0.0
        for subset in combinations(range(k), m):
            chosen = set(subset)
            prob = 1.0
            for i in range(k):
                prob *= p[i] if i in chosen else 1.0 - p[i]
            total += prob
        pmf[m] = total
    return pmf


def _random_spd(rng: np.random.Generator, dim: int,
                eig_range: tuple[float, float] = (0.3, 3.0)) -> np.ndarray:
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigs = rng.uniform(*eig_range, size=dim)
    return basis @ np.diag(eigs) @ basis.T


def _second_differences(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    return vals[2:] - 2.0 * vals[1:-1] + vals[:-2]


def _outage_correction(cfg: ch.ChannelConfig, rate: float) -> float:
    """The first-order blocklength term c1(rate) / N that the closed-form average
    loss omits; see ``channel.avg_packet_loss_approx``."""
    g = 2.0 ** rate - 1.0
    ell, g0 = cfg.antennas, cfg.snr_linear
    w = g * (2.0 + g) / (1.0 + g)
    c1 = 0.5 * (1.0 + g) * stats.gamma.pdf(g, a=ell, scale=g0) * (
        1.0 + (1.0 + g) ** -2 + w * ((ell - 1) / g - 1.0 / g0))
    return c1 / cfg.blocklength


def _gain_curvature_prediction(params: opt.TradeoffParams, grid) -> tuple[np.ndarray, np.ndarray]:
    """Second-difference stencils on ``grid`` where the effective gain must be
    concave, and where it must be convex.

    A direction with eigenvalue lambda is concave where sigma_q2 <= lambda
    (2^{b+1} + 1) / (2^{b+1} - 1) (see ``optimizer.sigma_q2_of_rate``); the
    noise variance is recomputed here from U, N and d. A stencil counts when
    all three of its points have every direction on the same side.
    """
    bits = params.channel.blocklength * np.asarray(grid) / params.dim
    noise = params.clip ** 2 / 3.0 / (2.0 ** bits - 1.0) ** 2
    x2 = 2.0 ** (bits + 1.0)
    margin = params.model.eigvals[:, None] * (x2 + 1.0) / (x2 - 1.0) - noise
    concave, convex = np.all(margin >= 0.0, axis=0), np.all(margin < 0.0, axis=0)
    return (concave[2:] & concave[1:-1] & concave[:-2],
            convex[2:] & convex[1:-1] & convex[:-2])


def validate(seed: int = 0) -> ValidationReport:
    """Run the full analytical-claim suite and report per-check outcomes."""
    rng = np.random.default_rng(seed)
    report = ValidationReport()

    # Q-function symmetry.
    xs = np.linspace(-8.0, 8.0, 161)
    dev = max(abs(q_function(x) + q_function(-x) - 1.0) for x in xs)
    report.add("q_function_symmetry", dev <= 1e-12, f"max |Q(x)+Q(-x)-1| = {dev:.2e}")

    # Poisson-binomial DP vs subset enumeration.
    worst = 0.0
    for k in (1, 3, 7, 10):
        probs = rng.uniform(0.0, 1.0, size=k)
        worst = max(worst, float(np.max(np.abs(
            poisson_binomial_pmf(probs) - _poisson_binomial_enum(probs)))))
    report.add("poisson_binomial_enumeration", worst <= 1e-12, f"max dev = {worst:.2e}")

    # Erlang sampler, exponential special case, Kolmogorov-Smirnov.
    cfg1 = ch.ChannelConfig(1, 1.0, 100)
    draws = ch.sample_post_mrc_snr(cfg1, rng, size=100_000)
    ks = stats.kstest(draws, "expon").statistic
    report.add("erlang_sampler_ks", ks <= 0.01, f"KS statistic = {ks:.4f}")

    # Quantization-distortion statistics (mixing transform, d = 50).
    sigma = _random_spd(rng, 50, (0.5, 2.0))
    model = gmm.InferenceModel(0.1 * np.ones(50), -0.1 * np.ones(50), sigma)
    qc = quant.QuantizerConfig(5.0, 4, model.basis)
    x = gmm.sample_features(model, 1, 100_000, rng)
    z = quant.decode(quant.encode(x, qc)[0], qc) - x
    var_dev = float(np.max(np.abs(z.var(axis=0) / quant.noise_variance(4, 5.0) - 1.0)))
    skew = float(np.max(np.abs(stats.skew(z, axis=0))))
    kurt = float(np.max(np.abs(stats.kurtosis(z, axis=0))))
    ok = var_dev <= 0.10 and skew <= 0.1 and kurt <= 0.2
    report.add("quantization_noise_statistics", ok,
               f"var dev {var_dev:.3f}, |skew| {skew:.3f}, |ex.kurt| {kurt:.3f}")

    # Gain-reduction bracketing over random covariances.
    ok, worst_gap = True, 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 21))
        m = gmm.InferenceModel(rng.standard_normal(dim), rng.standard_normal(dim),
                               _random_spd(rng, dim))
        d0 = gmm.discriminant_gain(m)
        for s2 in (0.01, 0.1, 1.0, 10.0):
            rel = (d0 - gmm.effective_discriminant_gain(m, s2)) / d0
            lo, hi = gmm.dg_reduction_bounds(m, s2)
            if not (lo - 1e-12 <= rel <= hi + 1e-12):
                ok = False
                worst_gap = max(worst_gap, lo - rel, rel - hi)
    report.add("gain_reduction_bounds", ok,
               "bracketing holds" if ok else f"violated by {worst_gap:.2e}")

    # Error bound dominates the exact expression on a grid.
    ok = True
    for gain in (0.25, 1.0, 4.0):
        for eps in (0.0, 0.3, 0.9):
            for k in (1, 5, 20):
                bound = gmm.sensing_error_bound(gain, eps, k)
                exact = gmm.semi_analytic_error(gain, [eps] * k)
                if exact > bound + 1e-12:
                    ok = False
    report.add("error_bound_dominates_exact", ok, "bound >= exact on grid")

    # Monte Carlo agrees with the exact expression at the default setup.
    config = ExperimentConfig(seed=seed)
    decision = decide(config)
    row = estimate_error(config, decision, 10_000, seed)
    sigma3 = 3.0 * math.sqrt(max(row.pred_exact * (1 - row.pred_exact), 1e-12) / row.trials)
    ok = abs(row.error - row.pred_exact) <= sigma3 + 1e-12
    report.add("monte_carlo_vs_exact", ok,
               f"mc {row.error:.4f} vs exact {row.pred_exact:.4f} (3-sigma {sigma3:.4f})")

    # Closed-form average loss plus its first-order blocklength term c1/N vs
    # quadrature, plus the 1/N scaling of the bare form's deviation.
    cfg100 = ch.ChannelConfig(4, ch.snr_from_db(1.0), 100)
    cfg200 = ch.ChannelConfig(4, ch.snr_from_db(1.0), 200)
    ok, worst_rel = True, 0.0
    for rate in np.linspace(0.5, 4.5, 17):
        exact = ch.avg_packet_loss_exact(cfg100, rate)
        if not 1e-3 <= exact <= 0.99:
            continue
        corrected = ch.avg_packet_loss_approx(cfg100, rate) + _outage_correction(cfg100, rate)
        rel = abs(corrected - exact) / exact
        worst_rel = max(worst_rel, rel)
        if rel > 0.05:
            ok = False
    report.add("avg_loss_closed_form", ok,
               f"worst relative error of closed form + c1/N {worst_rel:.4f} "
               "(loss range [1e-3, 0.99])")

    rate = 2.0
    e100 = abs(ch.avg_packet_loss_approx(cfg100, rate) - ch.avg_packet_loss_exact(cfg100, rate))
    e200 = abs(ch.avg_packet_loss_approx(cfg200, rate) - ch.avg_packet_loss_exact(cfg200, rate))
    if e200 > 0.0:
        ratio = e100 / e200
        report.add("avg_loss_error_scaling", 1.5 <= ratio <= 3.0,
                   f"N=100/N=200 error ratio = {ratio:.3f}")
    else:
        report.add("avg_loss_error_scaling", False,
                   f"N=200 error is 0 (N=100 error {e100:.3e}), so the ratio is undefined")

    # Curvature of the gain where its concavity condition settles the sign,
    # and concavity of the distortion term, the log success probability and
    # the surrogate on the whole grid.
    params = build_params(config)
    lo, hi = opt.rate_domain(params)
    grid = np.linspace(lo, min(hi, 8.0), 400)
    gains = np.array([opt.effective_discriminant_gain(params.model, opt.sigma_q2_of_rate(r, params))
                      for r in grid])
    d2_gain = _second_differences(gains)
    concave, convex = _gain_curvature_prediction(params, grid)
    d2_concave = d2_gain[concave].max(initial=-math.inf)
    d2_convex = d2_gain[convex].min(initial=math.inf)
    d2_dist = _second_differences(np.log(-np.expm1(-gains / 4.0))).max()
    d2_succ = _second_differences(
        [math.log1p(-ch.avg_packet_loss_approx(params.channel, r)) for r in grid]).max()
    d2_surr = _second_differences([opt.surrogate(r, params) for r in grid]).max()
    ok = max(d2_concave, d2_dist, d2_succ, d2_surr) <= 1e-9 and d2_convex > 0.0
    report.add("concavity_grids", ok,
               f"gain second differences: max {d2_concave:.2e} where concave, "
               f"min {d2_convex:.2e} where convex; max second differences: "
               f"distortion {d2_dist:.2e}, log-success {d2_succ:.2e}, "
               f"surrogate {d2_surr:.2e}")

    # Exponential decay of the residual gain loss in the bit depth.
    d0 = gmm.discriminant_gain(params.model)
    ratios = []
    for bits in range(4, 13):
        gap = d0 - opt.effective_discriminant_gain(
            params.model, quant.noise_variance(bits, config.clip))
        ratios.append(gap * 4.0 ** bits)
    spread = max(ratios) / min(ratios)
    report.add("gain_gap_decay", spread <= 2.0,
               f"(D0-D(R)) * 4^R spread over R=4..12 = {spread:.3f}")

    return report
