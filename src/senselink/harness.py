"""Monte Carlo experiment engine: config, decisions, trials, sweeps and the CSV.

The engine simulates each decision at its bit level and at the point it was
made at, its ``TradeoffParams`` (model, clip, channel, observation count); a
sweep builds its model once. Trials come in stream blocks, each drawing from
its own random stream: keyed by (seed, cell, block) for a single cell, and by
(seed, swept value, block, sweep parameter) for a sweep point, whose policies
are all scored on the same episodes. A block is sized so its arrays stay small
whatever the trial count, dimension or antenna count, and every path's draws
come in chunks of at most 2^14 values, which move no output. Each level's
received count per episode is drawn from the exact loss law; a row of draws
serves one packet, or on the table path one bundle of 2^k packets, whose
groups' index sums it draws from their exact law. Any output is a pure
function of its configuration and seed, and sweeps over different parameters
or values draw different numbers.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import json
import math
import numbers
import reprlib
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import channel as ch
from . import gmm
from . import optimizer as opt
from . import quant
from .numerics import require_counts, require_finite, require_positive

# Values in a stream block's largest arrays (see ``_block_size``), which
# fixes the blocks and so every output: its rows' tables, one per row and
# level, its per-episode sums and a few words per episode. At four times
# ``_CHUNK_VALUES`` a block spreads numpy's fixed cost per call over four
# chunks' worth of packets, and its arrays stay near a megabyte.
_BLOCK_VALUES = 2 ** 16
# Values in a chunk of any path's draws, which moves no output. Enough that
# numpy's fixed cost per call is spread thin, few enough that a chunk's
# arrays stay near a megabyte whatever the dimension.
_CHUNK_VALUES = 2 ** 14
# Most grid-index sums d (2^b - 1) a packet's coordinates span on the table
# path (see ``_Level``): it covers the levels that adaptive, brute force and
# urllc pick at d = 50 below 11 bits.
_TABLE_SPAN = 2 ** 16
# Guide cells per grid index in a table of one coordinate over one packet
# (see ``_Level``): with one, 12.5% of the uniforms of a dense 4-bit cell fall
# in bins holding two or more CDF values; with four, 3%. Other tables take one.
_INDEX_CELLS = 4
# Most values the CDF tables of a level's bundles of 2, 4, ... packets hold in
# all, 2 n (g 2^k (2^b - 1) + 1) for bundles of 2^k and n groups of at most g:
# a dense 4-bit level at d = 128 gets bundles of up to 8 packets, 1.1 MB with
# guides and bounds; bundles of 16 took 5.6 MB more of RSS and ran no faster.
_BUNDLE_VALUES = 2 ** 16
# Memo entries kept per process (see ``_table_law``), each built whole for
# every K: a sweep over the default model meets seven table-path levels,
# those of 1 to 7 bits at d = 50.
_TABLE_LAWS = 8


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
        number, string = (numbers.Real, "a number"), (str, "a string")
        for name, (kinds, what) in {"centroid": number, "clip": number, "snr_db": number,
                                    "policy": string, "noise_model": string,
                                    "model_file": ((str, type(None)), "a string"),
                                    "sigma_spec": ((str, list), "a string or a list")}.items():
            if not isinstance(value := getattr(self, name), kinds) or isinstance(value, bool):
                raise ValueError(f"{name} must be {what}, not {reprlib.repr(value)}")
        if isinstance(self.sigma_spec, list):
            _require_numbers("sigma_spec", self.sigma_spec)
        require_finite(centroid=self.centroid, clip=self.clip, snr_db=self.snr_db)
        require_positive(clip=self.clip)
        require_counts(1, dim=self.dim, antennas=self.antennas, blocklength=self.blocklength,
                       observations=self.observations, trials=self.trials)
        require_counts(0, seed=self.seed)
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


def _require_numbers(name: str, value) -> None:
    """Refuse ``value``, naming it ``name``, unless it is a nonempty list of
    numbers or of equally long nonempty lists of numbers; a bool is not a number."""
    rows = value if isinstance(value, list) and value and isinstance(value[0], list) else [value]
    if not all(isinstance(row, list) and len(row) == len(rows[0]) > 0 and all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in row) for row in rows):
        raise ValueError(f"{name} entries must be numbers, or lists of numbers of one length, "
                         f"not {reprlib.repr(value)}")  # bounded: a matrix can be large


def load_model_file(path: str) -> gmm.InferenceModel:
    """Read a JSON model: mu1, mu2 arrays and sigma as "identity" | diag | dense."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"model file {path} does not hold a JSON object")
    if missing := [key for key in ("mu1", "mu2", "sigma") if key not in spec]:
        raise ValueError(f"model file {path} has no {', '.join(missing)}")
    for key in ("mu1", "mu2") if isinstance(spec["sigma"], str) else ("mu1", "mu2", "sigma"):
        _require_numbers(key, spec[key])
    mu1 = np.asarray(spec["mu1"], dtype=float)
    mu2 = np.asarray(spec["mu2"], dtype=float)
    return gmm.InferenceModel(mu1, mu2, _sigma_from_spec(spec["sigma"], mu1.size))


def _sigma_from_spec(spec, dim: int) -> np.ndarray:
    if isinstance(spec, str):
        if spec != "identity":
            raise ValueError(f"unknown covariance spec {spec!r}")
        return np.eye(dim)
    arr = np.asarray(spec, dtype=float)
    return np.diag(arr) if arr.ndim == 1 else arr


def build_model(config: ExperimentConfig) -> gmm.InferenceModel:
    """The model of ``config``; one read from ``model_file`` must have
    ``config.dim``, and any other is built once per dimension, centroid and
    covariance spec (to the bit) and shared, as models are immutable."""
    if config.model_file is not None:
        model = load_model_file(config.model_file)
        if model.dim != config.dim:
            raise ValueError(f"model file has dimension {model.dim}, not dim={config.dim}")
        return model
    spec = config.sigma_spec
    if not isinstance(spec, str):
        spec = (array := np.asarray(spec, dtype=float)).shape, array.tobytes()
    return _model(config.dim, config.centroid + 0.0, spec)  # -0.0 as 0.0


@functools.lru_cache(maxsize=8)
def _model(dim: int, centroid: float, spec) -> gmm.InferenceModel:
    if not isinstance(spec, str):  # a covariance spec's shape and float64 bytes
        spec = np.frombuffer(spec[1]).reshape(spec[0])
    mu = centroid * np.ones(dim)
    return gmm.InferenceModel(mu, -mu, _sigma_from_spec(spec, dim))


def build_params(config: ExperimentConfig, model: gmm.InferenceModel | None = None) -> opt.TradeoffParams:
    if model is None:
        model = build_model(config)
    cfg = ch.ChannelConfig(config.antennas, ch.snr_from_db(config.snr_db), config.blocklength)
    return opt.TradeoffParams(model, config.clip, cfg, config.observations)


def decide(config: ExperimentConfig, params: opt.TradeoffParams | None = None) -> opt.RateDecision:
    """Resolve the policy string, with R in ``bits:R`` ASCII decimal digits, into
    a rate decision; decisions that share ``params`` share its bit-level table."""
    return _decide_policy(config.policy, build_params(config) if params is None else params)


def _decide_policy(policy: str, params: opt.TradeoffParams) -> opt.RateDecision:
    """``decide`` for a policy string at the point ``params``."""
    if policy == "adaptive":
        return opt.round_rate(opt.solve_rate(params), params)
    if policy == "brute":
        return opt.brute_force_rate(params)
    if policy == "urllc":
        return opt.urllc_rate(params)
    if policy.startswith("bits:") and policy[5:].isascii() and policy[5:].isdigit():
        return opt.fixed_bits_rate(int(policy[5:]), params)
    raise ValueError(f"unknown policy {policy!r}")


class _Level:
    """One bit level's rate, quantizer grid, score and path at an operating point.

    Features are drawn in the KLT eigenbasis of Sigma, the only basis the
    quantizer sees: Gaussian with mean ``model.means[c]`` = basis @ mu_c and
    covariance diag(lambda). Decoding and scoring fold into one weight
    vector: the score of the decoded features basis.T @ y is y @ w + const, with
    w = basis @ (Sigma + sigma_q2 I)^{-1} (mu2 - mu1). The lemma-1 noise is
    isotropic, so y is Gaussian with covariance diag(lambda + sigma_q2) and
    the score of one packet is exactly Normal(w @ mu_c + const,
    sum w_i^2 (lambda_i + sigma_q2)): one draw per packet, ``path`` "lemma1".
    On every path ``row_values`` maps a row of draws to what the level keeps.

    The real quantizer takes the "table" path if d (2^b - 1) is at most
    ``_TABLE_SPAN``, else the "features" path: Gaussian features, quantized.
    The coordinates of a group of ``model.groups`` are i.i.d. given the class
    and share a weight, so a packet's score needs only each group's sum of
    grid indices: identity Sigma is one group of d, a dense one d groups of
    one. (Were the single-packet table, its rows padded to the widest group's,
    to hold more values than both ``_BUNDLE_VALUES`` and 2 d 2^b, those of d
    groups of one, each coordinate is its own group.) A group of g
    coordinates has over a bundle of 2^k packets of one episode the
    (g 2^k)-fold law of one index, which row c n + j of ``tables[k]`` inverts
    for group j of n (``width``) in class c: the float ``cdf`` table with its
    ``guide`` and ``bounds``, views of the flat read-only arrays of ``law``
    (``_guide_tables``). The bundles hold 2^k packets, k = 0 .. ``top``, the
    largest top with 2^top <= K whose tables for k >= 1 hold at most
    ``_BUNDLE_VALUES`` values in all. The tables are built once per process,
    whole, for each group law, clip and bit level (``_table_law``: those of
    every bundle the budget allows, whatever K), and shared read-only; a
    level reads the first top + 1.

    An episode that receives m packets sends m >> top bundles of 2^top
    packets, then one of 2^k for each set bit k of m mod 2^top, highest first
    (``bundles``, ``bundle_tables``); off the table path top is 0. A bundle's
    row holds ``width`` draws: on the table path one uniform per group, which
    looks up its index sum (``lookup``). An episode whose groups' index sums
    add up to T_j totals sum_j (2 T_j - m g_j (2^b - 1)) h_j + m const
    (``episode_totals``), h_j the half step clip / (2^b - 1) times group j's
    weight: the sum over its packets, with indices k, of w @ (-clip + k delta)
    + const. T and m are exact integers, so an episode at the centre of every
    group, a tie at symmetric class means, totals 0.
    """

    def __init__(self, params: opt.TradeoffParams, bits: int, noise_model: str):
        self.bits, self.clip = bits, params.clip
        lam, means, dim = params.model.eigvals, params.model.means, params.model.dim
        # Score with the distortion-matched covariance: the Bayes rule for the
        # decoded features, and the one the analytic error expressions assume,
        # at the noise variance the bit-level table takes (one array pass).
        inflated = lam + params.sigma_q2[bits - 1]
        self.weights = (means[1] - means[0]) / inflated
        self.const = 0.5 * float(np.sum((means[0] ** 2 - means[1] ** 2) / inflated))
        self.path = "features" if noise_model == "quantizer" else "lemma1"
        self.top, self.width = 0, dim if self.path == "features" else 1
        span = 2 ** bits - 1
        if self.path == "lemma1":
            self.score_means = means @ self.weights + self.const
            self.score_sd = math.sqrt(float(np.sum(self.weights ** 2 * inflated)))
        elif dim * span <= _TABLE_SPAN:
            self.path = "table"
            first, sizes = params.model.groups
            if 2 * sizes.size * (sizes.max() * span + 1) > max(_BUNDLE_VALUES, 2 * dim << bits):
                first, sizes = np.arange(dim), np.ones(dim, dtype=np.intp)
            self.law = _table_law(means[:, first].tobytes(), lam[first].tobytes(),
                                  sizes.tobytes(), params.clip, bits)
            # bundles of up to 2^top packets, 2^top <= K
            self.top = min(len(self.law.views), params.observations.bit_length()) - 1
            self.tables = self.law.views[:self.top + 1]
            self.width, self.group_span = sizes.size, (sizes * span).astype(np.int32)
            self.half_steps = params.clip / span * self.weights[first]

    def row_values(self, labels: np.ndarray, draws: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """For each row of ``draws``, of its class in ``labels``: the score of
        a packet's quantized features, or of its lemma-1 normal z, score_sd z
        + score_means[c]; on the table path, the groups' index sums that its
        first ``width`` uniforms look up in ``tables[k]``, k its bundle's."""
        if self.path == "features":
            return quant.scalar_quantize(draws, self.clip, self.bits) @ self.weights + self.const
        if self.path == "lemma1":
            return draws[:, 0] * self.score_sd + self.score_means[labels]
        return self.lookup(labels, draws[:, :self.width], tables)

    def episode_totals(self, sums: np.ndarray, packets: np.ndarray) -> np.ndarray:
        """Each table-path episode's total score from its groups' index sums
        ``sums`` (one row per episode) and its number of ``packets``:
        sum_j (2 T_j - m g_j (2^b - 1)) h_j + m const, exact but for the h."""
        excess = packets[:, None] * -self.group_span
        excess += sums
        excess += sums
        return excess @ self.half_steps + packets * self.const

    def bundles(self, packets: np.ndarray) -> np.ndarray:
        """How many bundles an episode that receives ``packets`` packets
        sends: m >> top, plus the set bits of m mod 2^top."""
        return (packets >> self.top) + np.bitwise_count(packets & ((1 << self.top) - 1))

    def bundle_tables(self, packets: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """For bundle ``slot`` of an episode that receives ``packets``
        packets, the k of its 2^k packets, or -1 past its last bundle: one
        less than the number of j = 0 .. top for which it sends more than
        ``slot`` bundles of 2^j packets or more, m >> top plus the set bits
        of m mod 2^top from bit j on; with top = 0, slot < m, less 1."""
        if self.top == 0:  # every bundle one packet
            return (slot < packets).view(np.int8) - 1
        full = packets >> self.top
        rest = (packets & ((1 << self.top) - 1)) >> np.arange(self.top)[:, None]
        larger = np.bitwise_count(rest) > slot - full
        return larger.sum(axis=0, dtype=np.int8) + (slot < full) - 1

    def lookup(self, labels: np.ndarray, uniforms: np.ndarray,
               tables: np.ndarray | int = 0) -> np.ndarray:
        """For uniforms of shape (n, m), classes ``labels`` and table numbers
        ``tables``, one per row or one for all, each uniform's place in the
        CDF of row c m + j of ``tables[k]``, for its row's class c and table
        k and its column j (see ``_guide_tables``): one guide read and one
        comparison. The few in bins that hold two or more CDF values, mostly
        in the tails, are bisected between their bin's guide entries, all in
        steps that reach across the most crowded of their bins."""
        law = self.law
        if self.top == 0:
            tables = 0  # as a scalar, which takes no gather per row
        rows = labels + 2 * tables  # each row's rows in ``law.starts``
        at = np.empty(uniforms.shape, dtype=np.intp)
        np.multiply(uniforms, law.cells[tables, None], out=at, casting="unsafe")  # floor(u cells)
        at += law.starts[0].take(rows, axis=0)
        bound = law.bounds.take(at)  # take gathers faster than indexing
        crowded = np.flatnonzero(np.isnan(bound))
        above = uniforms >= bound
        del bound
        places = law.guide.take(at)
        places += above
        if crowded.size:
            at, u = at.ravel()[crowded], uniforms.ravel()[crowded]
            row, column = np.divmod(crowded, uniforms.shape[1])
            base = law.starts[1][rows[row], column]  # where each CDF row starts
            # the place lies in lo..hi, where cdf[hi] > u, so steps of
            # 2^(s - 1) .. 1 reach it, with 2^s above every hi - lo
            lo, hi = law.guide.take(at) + base, law.guide.take(at + 1) + base
            for step in (1 << np.arange(int((hi - lo).max()).bit_length())[::-1]).tolist():
                np.add(lo, step, out=lo, where=u >= law.cdf.take(np.minimum(lo + (step - 1), hi)))
            np.put(places, crowded, lo - base)
        return places


class _Tables(NamedTuple):
    """Guide tables stored one after another in flat arrays (see ``_guide_tables``)."""
    views: tuple  # per table: its cdf, guide and bounds, as 2-D views
    cdf: np.ndarray
    guide: np.ndarray
    bounds: np.ndarray
    starts: np.ndarray
    cells: np.ndarray


def _guide_tables(laws: list[tuple[np.ndarray, int]]) -> _Tables:
    """The tables that invert the laws in the rows of each (pmfs, cells) of
    ``laws`` (see ``_Level``): every ``pmfs`` has 2 n rows, n for each class,
    +inf past each row's last value but one; ``cells`` is a power of two, so
    that u cells and j / cells are exact, and at least the number of values
    in a row's CDF F, which leaves out its final 1. Table t's arrays come one
    after another in the flat read-only ``cdf``, ``guide`` and ``bounds``,
    each table with its own row widths, with 2-D views in ``views[t]``.
    ``starts[0, 2 t + c, j]`` is where row c n + j of table t starts in the
    flat ``guide`` and ``bounds``, ``starts[1, 2 t + c, j]`` where it starts
    in the flat ``cdf``, and ``cells[t]`` is the table's cells, as a float.
    In one table:

    ``guide[r, j]`` is the number of values of F <= j / cells, so a uniform
    u in bin j = floor(u cells) has its place ``np.searchsorted(F, u,
    "right")`` between guide[r, j] and guide[r, j + 1]. It is counted, as
    F <= j / cells exactly when ceil(F cells) <= j, by a bincount of the
    rows' keys, summed along each row; the inf padding and any F past 1 fall
    in a last key, cells + 1, which is dropped. ``bounds[r, j]`` is
    F[guide[r, j]] (inf past F's end), where the bin holds at most one value
    of F, so that the place is guide[r, j] + (u >= bounds[r, j]); it is NaN
    where the bin holds more, and the place is then bisected in ``cdf[r]``,
    which holds F, then inf. They are made over blocks of rows of at most
    ``_CHUNK_VALUES`` cells, so the temporaries stay small.
    """
    rows = len(laws[0][0])
    widths = np.array([(cells + 1, pmfs.shape[1]) for pmfs, cells in laws])  # guide, cdf
    firsts = np.cumsum(rows * widths, axis=0) - rows * widths  # where each table starts
    cdf, guide = np.empty(rows * widths[:, 1].sum()), np.empty(rows * widths[:, 0].sum(), np.int32)
    bounds = np.empty(guide.size)
    for (pmfs, cells), (first, cdf_first), (width, cdf_width) in zip(laws, firsts, widths):
        table_cdf = cdf[cdf_first:cdf_first + rows * cdf_width].reshape(rows, cdf_width)
        table_guide = guide[first:first + rows * width].reshape(rows, width)
        table_bounds = bounds[first:first + rows * width].reshape(rows, width)
        np.cumsum(pmfs[:, :-1], axis=1, out=table_cdf[:, :-1])
        table_cdf[:, -1] = np.inf
        block = max(1, _CHUNK_VALUES // (cells + 2))
        for lo in range(0, rows, block):
            part = slice(lo, lo + block)
            keys = np.minimum(np.ceil(table_cdf[part] * cells), cells + 1).astype(np.intp)
            n = len(keys)
            keys += np.arange(n)[:, None] * (cells + 2)
            counts = np.bincount(keys.ravel(), minlength=n * (cells + 2)).reshape(n, cells + 2)
            del keys
            crowded = counts[:, 1:-1] > 1  # bins that hold two or more values
            table_guide[part] = np.cumsum(counts, axis=1, out=counts)[:, :-1]
            del counts
            np.take(table_cdf[part], table_guide[part] + np.arange(0, n * cdf_width, cdf_width)[:, None],
                    out=table_bounds[part], mode="clip")  # in range; "clip" writes without a buffer
            table_bounds[part, :-1][crowded] = np.nan
    views = tuple((cdf[cdf_first:cdf_first + rows * cdf_width].reshape(rows, cdf_width),
                   guide[first:first + rows * width].reshape(rows, width),
                   bounds[first:first + rows * width].reshape(rows, width))
                  for (first, cdf_first), (width, cdf_width) in zip(firsts, widths))
    starts = firsts.T[..., None] + widths.T[..., None] * np.arange(rows)
    tables = _Tables(views, cdf, guide, bounds, starts.reshape(2, 2 * len(widths), -1),
                     widths[:, 0] - 1.0)
    for array in (cdf, guide, bounds, tables.starts, tables.cells,
                  *(array for view in views for array in view)):
        array.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=_TABLE_LAWS)
def _table_law(means: bytes, eigvals: bytes, sizes: bytes, clip: float, bits: int) -> _Tables:
    """The tables of table-path levels (see ``_Level``) whose groups have
    class means ``means`` (2 by n), eigenvalues ``eigvals`` and ``sizes``, as
    the bytes of float64 and intp arrays, at ``clip`` and ``bits``, built
    once, whole, so every point and sweep in the process shares them: those
    of bundles of 2^k packets, k = 0, 1, ... while the tables for k >= 1 hold
    at most ``_BUNDLE_VALUES`` values in all. Row c n + j of table k inverts
    the law of group j's index sum in class c, padded with +inf to the
    widest group's; a group's law is table k - 1's summed with itself
    (``quant.doubled``). The widest entries, such as d = 512 groups of one at
    7 bits, hold one table, 1.0 MB of CDF, 2.1 MB of guide and 4.2 MB of
    bounds; an entry with bundles at most about 3.5 MB. So ``_TABLE_LAWS``
    entries retain at most about 66 MB.
    """
    lam, means = np.frombuffer(eigvals)[:, None], np.frombuffer(means).reshape(2, -1, 1)
    sizes = np.frombuffer(sizes, dtype=np.intp)
    span, n, widest = 2 ** bits - 1, sizes.size, int(sizes.max())
    k, held, laws, tables = 0, 0, {}, []  # laws: the last law of each group size
    while held <= _BUNDLE_VALUES:
        width = (widest << k) * span + 1
        pmfs = np.full((2, n, width), np.inf)
        for size in np.unique(sizes).tolist():
            mine = sizes == size
            one = means[:, mine], lam[mine], clip, bits
            law = laws[size] = (quant.doubled(laws[size]) if k else quant.index_pmf(*one)
                                if size == 1 else quant.index_sum_law(*one, size)[1])
            pmfs[:, mine, :law.shape[-1] - 1] = law[..., :-1]
        cells = _INDEX_CELLS << bits if width == span + 1 else 1 << (width - 1).bit_length()
        tables.append((pmfs.reshape(-1, width), cells))
        k += 1
        held += 2 * n * ((widest << k) * span + 1)
    return _guide_tables(tables)


def _received(params: opt.TradeoffParams, bits: list[int], n: int,
              rng: np.random.Generator) -> np.ndarray:
    """Each level's received count in ``n`` episodes, a row per level of
    ``bits``. Packets are lost independently, with ``params.loss``, and one
    that arrives at a rate arrives at every lower one, so the counts are
    drawn highest rate first (conditional binomials, Devroye 1986, ch. XI):
    each level adds Bin(K - m, (before - loss) / before) to the m of the
    level above, whose loss is before (1 at the top), clamped to [0, 1] (the
    loss can rise by 1e-38 to a lower rate), and 1 where before is 0."""
    k, by_rate = params.observations, np.argsort(bits)[::-1]  # highest rate first
    loss = params.loss[np.asarray(bits)[by_rate] - 1]
    before = np.concatenate(([1.0], loss[:-1]))
    odds = np.divide(before - loss, before, out=np.ones_like(loss), where=before > 0.0)
    counts = np.zeros((len(bits) + 1, n), dtype=np.int32 if k < 2 ** 14 else np.int64)
    for j, p in enumerate(np.clip(odds, 0.0, 1.0).tolist()):
        counts[j + 1] = counts[j] + rng.binomial(k - counts[j], p)
    return counts[1:][np.argsort(by_rate)]


def _simulate_block(params: opt.TradeoffParams, levels: list[_Level], n: int,
                    rng: np.random.Generator) -> list[int]:
    """Simulate ``n`` sensing episodes from one stream and return, for each
    level, how many of them decide the wrong class.

    Each episode draws a class, then each level's count of its K packets that
    arrive (``_received``): the fading channel is not simulated packet by
    packet. Then each path (see ``_Level``) draws a row per bundle slot, in
    chunks of ``_feature_rows`` rows: slot 0 of every episode that has one,
    then slot 1, and so on, an episode having as many slots as its level with
    the most bundles (``_Level.bundles``), more first, and levels with a
    bundle in a slot sharing its row. A row holds d features, coloured by the
    model's ``means`` and ``sd``, a table-path uniform per group of the widest
    level, or a lemma-1 normal; each level maps its own rows of a chunk in one
    call (``_Level.row_values``) and adds them up per episode. Split draws
    keep their values, so no count depends on the chunk size. An episode
    decides class 1 iff its total is < 0, so a silent one, or an exact tie,
    decides class 2: wrong with probability 1/2, as the class is a fair draw.
    A level's outcome depends on the other levels only through their rates,
    which order the counts' draws, and the rows its path draws, not on their
    order; with one level the stream is consumed as by a single-policy engine.
    """
    model = params.model
    classes = rng.integers(0, 2, size=n).astype(np.int8)  # 0 for class 1, 1 for class 2
    received = _received(params, [lvl.bits for lvl in levels], n, rng)
    first = classes == 0
    wrong = [0] * len(levels)
    for path, draw in (("features", rng.standard_normal), ("table", rng.random),
                       ("lemma1", rng.standard_normal)):
        mine = [i for i, lvl in enumerate(levels) if lvl.path == path]
        if not mine:
            continue
        packets = received[mine]  # each level's packets per episode
        if not packets.any():  # a silent path draws nothing: every total is 0, class 2
            for i in mine:
                wrong[i] = int(np.count_nonzero(first))
            continue
        slots = functools.reduce(np.maximum, [levels[i].bundles(m) for i, m in zip(mine, packets)])
        # episodes with the most bundles first: a slot's rows are then a
        # prefix of this order, whose sums add up in place; numpy's stable
        # sort is a radix sort on keys of 16 bits, and slots <= K
        order = np.argsort(-slots.astype(np.int16 if params.observations < 2 ** 15 else np.int64),
                           kind="stable")
        heads = np.cumsum(np.bincount(slots)[::-1])[-2::-1].tolist()  # rows per slot
        episode = np.concatenate([order[:0], *(order[:h] for h in heads)]).astype(np.int32)
        slot = np.repeat(np.arange(len(heads)), heads)
        firsts = [0, *itertools.accumulate(heads)]  # each slot's first row
        # for each level each row's table, -1 past its last bundle
        tables = [levels[i].bundle_tables(m[episode], slot) for i, m in zip(mine, packets)]
        width = max(levels[i].width for i in mine)
        sums = [np.zeros((n, levels[i].width), packets.dtype) if path == "table" else np.zeros(n)
                for i in mine]
        arrived = classes[episode]  # 5 bytes a row while the draws run
        rows = _feature_rows(width)
        for start in range(0, episode.size, rows):
            labels = arrived[start:start + rows]
            draws = draw((labels.size, width))
            if path == "features":
                draws *= model.sd
                draws += model.means[labels]
            for i, table, out in zip(mine, tables, sums):
                table = table[start:start + rows]
                pick = table >= 0
                if pick.all():  # a slice, whose indexing takes no copy
                    pick = slice(None)
                elif not pick.any():
                    continue
                values = levels[i].row_values(labels[pick], draws[pick], table[pick])
                if isinstance(pick, np.ndarray):  # rows past the level's last bundle add 0
                    values, picked = np.zeros((table.size, *values.shape[1:]), values.dtype), values
                    values[pick] = picked
                # row r of slot s adds to the sums of place r - firsts[s]
                for s in range(bisect.bisect_right(firsts, start) - 1,
                               bisect.bisect_left(firsts, start + table.size)):
                    lo, hi = max(start, firsts[s]), min(start + table.size, firsts[s + 1])
                    out[lo - firsts[s]:hi - firsts[s]] += values[lo - start:hi - start]
        for i, m, out in zip(mine, packets, sums):
            total = levels[i].episode_totals(out, m[order]) if path == "table" else out
            wrong[i] = int(np.count_nonzero((total < 0.0) != first[order]))
    return wrong


def _feature_rows(width: int) -> int:
    """Packets drawn at a time, ``width`` values each: at most ``_CHUNK_VALUES`` values."""
    return max(1, _CHUNK_VALUES // width)


def _block_size(params: opt.TradeoffParams, levels: list[_Level]) -> int:
    """Trials per stream block at a point simulated at ``levels``: as many
    as keep the block's largest arrays within ``_BLOCK_VALUES`` values. Per
    episode these are its rows' tables, one per row (at most K) and level,
    its index sums on the table path, as many as the widest level has
    groups, and 8 words (sort key and order, row indices, counts, sums).
    Every path draws in chunks, so L never sizes the block, and d only
    through the groups. Changing it moves every multi-block output."""
    widest = max([lvl.width for lvl in levels if lvl.path == "table"], default=1)
    return max(1, _BLOCK_VALUES // max(params.observations * len(levels), widest, 8))


def _count_errors(params: opt.TradeoffParams, noise_model: str, bits: list[int],
                  trials: int, key: tuple, tag: tuple = ()) -> list[int]:
    """Wrong decisions out of ``trials`` episodes at each of a point's bit
    levels, all scored on the same episodes (common random numbers).

    ``params`` is the whole point: model, clip, channel (with its
    blocklength) and observation count. The episodes come in stream blocks
    of ``_block_size`` trials, block b drawing from the stream keyed
    (*key, b, *tag). Repeats of a bit level share its work and its count.
    """
    distinct = list(dict.fromkeys(bits))
    levels = [_Level(params, b, noise_model) for b in distinct]
    block_size = _block_size(params, levels)
    wrong = np.zeros(len(levels), dtype=np.int64)
    for block, start in enumerate(range(0, trials, block_size)):
        rng = np.random.default_rng([*key, block, *tag])
        wrong += _simulate_block(params, levels, min(block_size, trials - start), rng)
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
                   trials: int, seed: int, cell: int = 0) -> ResultRow:
    """Aggregate one decision's error rate over independent trials, one
    stream per block keyed by (seed, cell, block): the one-policy case of
    the engine ``sweep`` runs. The decision supplies the simulated point it
    was made at (``decision.params``) and its bit level; ``config`` adds only
    the noise model and the row's policy label."""
    require_counts(1, trials=trials)
    require_counts(0, seed=seed, cell=cell)
    wrong, = _count_errors(decision.params, config.noise_model,
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
    other values or the order of the policies. A bad trial count, seed,
    parameter or value (its point and channel) raises ``ValueError`` before any
    work, and a bad policy before any episode is simulated, once the first
    value has decided the policies before it.
    """
    if not values or not policies:
        raise ValueError("values and policies must be nonempty")
    require_counts(1, trials=trials)
    require_counts(0, seed=seed)
    if param not in SWEEP_FIELDS:
        raise ValueError(f"unknown sweep parameter {param!r}")
    attr = SWEEP_FIELDS[param]
    # a count that is not a whole number stays a float, which ExperimentConfig refuses
    swept = [float(value) for value in values]
    points = [replace(config, **{attr: int(n) if attr != "snr_db" and n.is_integer() else n})
              for n in swept]
    model = build_model(config)  # no swept field changes the model
    point_params = [build_params(point, model) for point in points]  # one channel and table each
    rows = []
    for number, params in zip(swept, point_params):
        decisions = [_decide_policy(policy, params) for policy in policies]
        wrong = _count_errors(params, config.noise_model, [d.bits_per_feature for d in decisions],
                              trials, (seed, *_float_words(number)), (_SWEEP_STREAMS[param],))
        rows += [_row(param, number, policy, d, w, trials, seed)
                 for policy, d, w in zip(policies, decisions, wrong)]
    return rows


def rows_to_csv(rows) -> str:
    """Render result rows in ``CSV_COLUMNS`` order, byte-stable: None as an empty
    cell, a float (numpy's float64 too) as its Python float's repr, else as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(["" if v is None else repr(float(v)) if isinstance(v, float) else v
                         for v in (getattr(row, name) for name in CSV_COLUMNS)])
    return buf.getvalue()
