"""
Seeded Monte Carlo sweeps over SNR with CSV/JSON output.

Each trial derives its own RNG stream from (master seed, trial index), so
runs are byte-identical across repeats and across worker counts;
run_trials builds a chunk's generators with one vectorised SeedSequence
hash (channel.trial_generators).  The two schemes share the channel
realization of a trial (paired comparison).
SNR is interpreted as 1 / sigma^2: the precoders' largest column has
unit power and the noise variance is swept.

Work that depends only on (K, n) -- the extension plan and its effective
system -- is built once per plan, and the SNR grid, its levels rho and
sigma2 and the cooperation caps once per grid (grid_levels, the one
caller of phy.cooperation_caps).  evaluate decides the cap policy once,
handing the caps, or np.inf when the cap is off, to both schemes.  A
SimConfig checks itself when it is built and raises ConfigError for
every config it rejects (the list is in its docstring), so a config that
exists runs to the end.  It is the one copy of every value and rule of a
run: the engine reads a built config's grid, block length and output
path, and assumes its rules, unchecked.
The engine evaluates chunks of consecutive trials in two stages.
run_trials draws a chunk's channels as one bare (T, M, M, N) stack, one
generator call per trial, and snc.usable_channels keeps the draws whose
V_1 has full rank, with their precoders and filter inverses, redrawing
only those that failed.
evaluate takes a channel stack and its precoders, from run_trials or
chosen by a test, and returns per scheme one table of named per-trial
outcomes (OUTCOMES), [point, trial] arrays over the whole SNR grid built
in one array pass: each stream's gain at its weakest receiver once per
trial, then the noisy pass, which filters each trial's unit noise once
and scales it per point.  The compute-and-forward leg draws no
randomness and bounds its own search memory in tiles of
cf_baseline.PASS_ELEMENTS values, so chunks are sized from the SNC
arrays alone, whatever the coefficient search.  The arrays of a chunk
are the only shape: one trial is run_trials(cfg, [i]), and another grid
or output path is dataclasses.replace(cfg, ...).  run_sweep cuts a sweep
into chunks of at most BATCH_ELEMENTS per array once, whatever
SNCSIM_WORKERS says, and runs a sweep of one chunk in this process: a
process pool could not amortise its start-up over one chunk.  A larger
sweep runs the same chunks on a pool of at most SNCSIM_WORKERS
processes.  run_sweep joins each scheme's chunk tables once, into one
[outcome, point, trial] array, and reduces every stat of STATS, the one
declaration behind SweepPoint's stats and the CSV's stat columns, in one
pass over the trial axis (_sweep_stats).

Draw-order contract: trial i has its own generator, the one
default_rng(SeedSequence([seed, i])) gives, which draws the channel and
its resamples, then the messages, then the noise, each once.  The
messages are the bits Generator.integers(0, 2) would draw, read from the
generator's raw outputs (channel.sample_message_bits).
The noise is drawn at unit variance with no SNR axis; only its scale,
applied after the filter, depends on the SNR.  The channel and noise
draws of a chunk are stacked (one call on each trial's generator, one
combine of the stack), which keeps every trial's bits.  No draw depends
on the grid or on the other trials of the chunk, and every number of a
trial is computed from that trial's arrays alone, so a multi-point call
equals the one-point calls it replaces and a trial's result does not
depend on how the trials are chunked.  No check depends on the SNR, so
an aborted trial aborts at every point.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
# channel imports numpy.random, which numpy loads lazily: importing it here
# means forked pool workers inherit it instead of each loading it on its
# first trial
from .channel import (
    sample_extended_channel,
    sample_message_bits,
    sample_noise,
    trial_generators,
)
from .cf_baseline import MAX_SEARCH_GRID, cf_trial_sum_rate, search_grid_size
from .gf import PrimeField, RankDeficientError
from .phy import (
    cooperation_caps,
    end_to_end_sum_rate,
    estimate_dof_slope,
    filter_and_demodulate,
    modulate_bpsk,
    per_link_rates,
    stream_gains,
)
from .snc import (
    CapacityError,
    cp_recover,
    effective_system,
    extension_dims,
    usable_channels,
)

WORKERS_ENV = "SNCSIM_WORKERS"
# array elements a chunk of trials may take per trial-stacked array
BATCH_ELEMENTS = 2**16
# Every rate formula multiplies rho or 1 / sigma2 by a channel term.
# Holding them to the square root of the float range leaves the other half
# of the exponent range to that term, so no product overflows or goes
# subnormal.
LEVEL_RANGE = (2.0 ** -511, 2.0 ** 511)
MAX_SNR_POINTS = 10**4
# SNR grids whose levels grid_levels keeps
LEVEL_CACHE = 16
# a trial index is one 32-bit word of its generator's entropy
MAX_TRIALS = 2**32
# Every integer field is written in decimal, to messages, the CSV and the
# sidecar, and Python refuses to convert an int of more than 4,300 digits;
# a seed may still take 32 words.
MAX_INT_BITS = 1024


class ConfigError(Exception):
    """Invalid or contradictory simulation configuration."""


def worker_count() -> int:
    """The process count that SNCSIM_WORKERS asks for (default 1), at least
    1 and at most the CPUs this process may use (all CPUs where the OS
    cannot say), so that a typo cannot fork thousands of processes.  It is
    a ceiling: run_sweep runs a sweep that fits one chunk in this process.
    Raises ConfigError unless it is an integer."""
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(text)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {text!r}") from None
    if workers <= 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1)


@functools.lru_cache(maxsize=LEVEL_CACHE)
def grid_levels(start: float, stop: float, step: float):
    """``(grid, rhos, sigma2, caps)``: the SNR grid in dB from *start* to
    *stop* in steps of *step*, a tuple, and at each of its points the
    linear SNR rho = 10^(snr/10), the noise variance sigma2 = 1 / rho and
    the cooperation cap cooperation_caps(rhos), built once per grid for the
    last LEVEL_CACHE grids as shared, read-only arrays.

    Raises ConfigError unless every rho lies in LEVEL_RANGE, and with it
    sigma2, which excludes every value that is not a finite, positive,
    normal float: beyond it the sweep would overflow, divide by zero or
    write non-finite rates.  The keys 0.0 and -0.0 are equal and give the
    same grid: -0.0 + 0.0 is 0.0."""
    count = int(math.floor((stop - start) / step + 1e-9))
    grid = tuple(start + i * step for i in range(count + 1))
    lo, hi = LEVEL_RANGE
    rhos = []
    for snr_db in grid:
        try:
            rho = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            rho = math.nan
        if not lo <= rho <= hi:
            raise ConfigError(f"at {snr_db:g} dB the linear SNR 10^(snr/10) "
                              f"leaves [{lo:g}, {hi:g}]")
        rhos.append(rho)
    levels = np.array(rhos), np.array([1.0 / rho for rho in rhos]), cooperation_caps(rhos)
    for level in levels:
        level.flags.writeable = False
    return grid, *levels


@dataclass(frozen=True)
class SimConfig:
    """One sweep's configuration, checked when it is built: it raises
    ConfigError for a plan that cannot be built, a count that is not an
    integer or has more than MAX_INT_BITS bits, a cap flag that is not a
    bool, no transmitter or receiver, an antenna list that is not a
    sequence of one count >= 1 per node, an SNR field that is not a real
    number with a finite float value, a field size that is not a prime
    below 2^63, an SNR grid of more than MAX_SNR_POINTS points, one whose
    linear SNR leaves LEVEL_RANGE (grid_levels, which the engine shares),
    more than MAX_TRIALS trials, a coefficient search of more than
    MAX_SEARCH_GRID vectors, or an out_path that is not a text path or is
    its own JSON sidecar's.  Every field is stored as a plain
    value (int, float, tuple of ints, str), so that configs compare, hash
    and serialise alike whatever numeric or path types they were given."""

    K: int = 2
    L: int | None = None
    tx_antennas: tuple[int, ...] | None = None
    rx_antennas: tuple[int, ...] | None = None
    n: int = 2
    scheme: str = "both"  # "snc" | "cf" | "both"
    channel_model: str = "real"  # "real" | "complex"
    q: int = 2
    snr_start: float = 0.0
    snr_stop: float = 60.0
    snr_step: float = 5.0
    trials: int = 1000
    seed: int = 0
    cf_radius: int = 3
    cap_enabled: bool = True
    out_path: str = "sweep.csv"

    def __post_init__(self):
        def integer(name, value):
            # bool is an Integral too, but True users or trials is a mistake
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if int(value).bit_length() > MAX_INT_BITS:  # checked before it is printed
                raise ConfigError(f"{name} has more than {MAX_INT_BITS} bits")
            return int(value)

        # every field as a plain value, which the checks below read
        plain = {name: integer(name, getattr(self, name))
                 for name in ("K", "n", "q", "trials", "seed", "cf_radius")}
        if self.L is not None:
            plain["L"] = integer("L", self.L)
        for name in ("tx_antennas", "rx_antennas"):
            counts = getattr(self, name)
            if counts is not None and not isinstance(counts, (tuple, list)):
                raise ConfigError(f"{name} must be a sequence of counts, got {counts!r}")
            if counts is not None:
                plain[name] = tuple(integer("an antenna count", a) for a in counts)
        if not isinstance(self.cap_enabled, bool):
            raise ConfigError(f"cap_enabled must be a bool, got {self.cap_enabled!r}")
        for name in ("snr_start", "snr_stop", "snr_step"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            try:
                plain[name] = float(value)
            except OverflowError:
                raise ConfigError(f"{name} is beyond the float range") from None
            if not math.isfinite(plain[name]):
                raise ConfigError(f"{name} must be finite, got {value}")
        path = self.out_path
        plain["out_path"] = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
        if not isinstance(plain["out_path"], str):
            raise ConfigError(f"out_path must be a text path, got {path!r}")
        for name, value in plain.items():
            object.__setattr__(self, name, value)
        if self.scheme not in ("snc", "cf", "both"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.channel_model not in ("real", "complex"):
            raise ConfigError(f"unknown channel model {self.channel_model!r}")
        if self.seed < 0:
            raise ConfigError(f"the seed must be >= 0, got {self.seed}")
        if self.snr_step <= 0:
            raise ConfigError("SNR step must be positive")
        if self.snr_stop < self.snr_start:
            raise ConfigError("the SNR grid has no points: stop is below start")
        # counted before snr_grid builds them: a tiny step gives inf or ~1e300
        if not (self.snr_stop - self.snr_start) / self.snr_step + 1 <= MAX_SNR_POINTS:
            raise ConfigError(f"the SNR grid has more than {MAX_SNR_POINTS} points")
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.trials > MAX_TRIALS:
            raise ConfigError(f"at most {MAX_TRIALS} trials, got {self.trials}: "
                              "a trial index must fit one 32-bit seed word")
        if self.K < 1 or self.rx_count < 1:
            raise ConfigError("bad topology: need at least one transmitter and receiver")
        for name, nodes in (("tx_antennas", self.K), ("rx_antennas", self.rx_count)):
            counts = getattr(self, name)
            if counts is not None and (len(counts) != nodes or min(counts) < 1):
                raise ConfigError(f"bad topology: {name} must list {nodes} counts "
                                  f">= 1, got {counts!r}")
        M = self.M
        if self.run_cf:
            if self.K != self.rx_count:
                raise ConfigError("compute-and-forward requires K = L")
            if self.channel_model != "real":
                raise ConfigError("compute-and-forward runs on real channels only")
            if self.cf_radius < 1:
                raise ConfigError("the coefficient search radius must be >= 1, "
                                  f"got {self.cf_radius}")
            if search_grid_size(M, self.cf_radius) > MAX_SEARCH_GRID:
                raise ConfigError(f"cf_radius {self.cf_radius} makes the coefficient "
                                  f"search enumerate (2 cf_radius + 1)^{M} vectors, "
                                  f"more than {MAX_SEARCH_GRID}")
        if self.n < 1:
            raise ConfigError(f"the extension parameter n must be >= 1, got {self.n}")
        if self.run_snc:
            if M < 2:
                raise ConfigError("the alignment scheme needs at least 2 virtual users")
            try:
                effective_system(extension_dims(M, self.n))
            except (CapacityError, RankDeficientError) as exc:
                raise ConfigError(f"no alignment plan for n={self.n}: {exc}") from exc
        grid_levels(self.snr_start, self.snr_stop, self.snr_step)
        try:
            PrimeField(self.q)
        except ValueError as exc:
            raise ConfigError(f"bad field size: {exc}") from exc
        if self.run_snc and self.q != 2:
            raise ConfigError(
                f"the alignment scheme demodulates BPSK over GF(2) only, got q={self.q}"
            )
        if Path(self.out_path).suffix == ".json":  # write_results' sidecar path
            raise ConfigError(f"out_path {self.out_path!r} would be overwritten by "
                              "its JSON sidecar")

    @property
    def rx_count(self) -> int:
        return self.K if self.L is None else self.L

    @property
    def M(self) -> int:
        """The number of virtual single-antenna users: every antenna is a
        virtual node, and the first min(total tx antennas, total rx
        antennas) of each side, in node then antenna order, are active.  An
        absent antenna list means one antenna per node."""
        tx = self.K if self.tx_antennas is None else sum(self.tx_antennas)
        rx = self.rx_count if self.rx_antennas is None else sum(self.rx_antennas)
        return min(tx, rx)

    @property
    def run_snc(self) -> bool:
        return self.scheme in ("snc", "both")

    @property
    def run_cf(self) -> bool:
        return self.scheme in ("cf", "both")

    @property
    def n_ext(self) -> int:
        """The block length N: the alignment plan's extension, or one slot
        when only compute-and-forward runs."""
        return extension_dims(self.M, self.n).N if self.run_snc else 1

    @property
    def snr_grid(self) -> tuple[float, ...]:
        return grid_levels(self.snr_start, self.snr_stop, self.snr_step)[0]


# SweepPoint's stat fields, in its order, each with the per-trial outcome
# it reduces over a point's kept trials and how: "mean" or "std" (NaN where
# no trial was kept), or "share", a mean that is 0 where none was.  The
# CSV writes them in this order.  evaluate returns every outcome named
# here for every scheme, 0 where a scheme lacks it.
STATS = {
    "mean_sum_rate": ("rate", "mean"),  # bits per channel use
    "std_sum_rate": ("rate", "std"),
    "outage_frac": ("outage", "share"),
    "detected_err_frac": ("detected", "share"),
}
OUTCOMES = tuple(dict.fromkeys(outcome for outcome, _ in STATS.values()))


@dataclass(frozen=True)
class TrialBatch:
    """Outcomes of a chunk of trials.  ``kept`` (T,) marks the trials that
    did not abort; ``outcomes`` is evaluate's table over the kept trials,
    in index order, with no trial column when every trial aborted."""

    kept: np.ndarray
    outcomes: dict[str, dict[str, np.ndarray]]


def run_trials(cfg: SimConfig, indices) -> TrialBatch:
    """Paired Monte Carlo trials *indices*, evaluated at every point of
    cfg.snr_grid in one stacked pass over a leading trial axis.

    Each trial draws from its own generator in the order of the
    draw-order contract, and every check and number of a trial is
    computed from that trial alone, so a trial's outcome does not depend
    on the other trials of the chunk.  A trial whose V_1 still lacks full
    rank after snc.MAX_RESAMPLES resamples is aborted: ``kept`` is False for
    it.  The kept trials go to evaluate.
    """
    rngs = trial_generators(cfg.seed, indices)

    def draw(trials):
        return sample_extended_channel(cfg.M, cfg.n_ext, cfg.channel_model,
                                       [rngs[t] for t in trials])

    h = draw(range(len(rngs)))
    kept = np.ones(len(rngs), dtype=bool)
    v1 = v_other = w = None
    if cfg.run_snc:
        h, v1, v_other, w, kept = usable_channels(h, extension_dims(cfg.M, cfg.n), draw)
    kept_rngs = [rngs[t] for t in np.flatnonzero(kept)]
    return TrialBatch(kept, evaluate(cfg, h, kept_rngs, v1, v_other, w))


def evaluate(cfg: SimConfig, h: np.ndarray, rngs, v1, v_other, w):
    """The outcome table of the kept channel stack *h* (T, M, M, N), T >= 0, at
    every point of cfg.snr_grid: for every scheme that runs, snc then cf, each
    name of OUTCOMES mapped to a [point, trial] array.  ``rate`` is the
    block sum rate, ``outage`` the share of CF slots whose coefficient
    matrix is singular mod q, ``detected`` the flag of redundant rows
    disagreeing after the noisy BPSK pass, and an outcome a scheme lacks
    is 0.  The SNC leg reads the precoders *v1* and *v_other* and inverses
    *w* that snc.draw_round built for *h*, and draws each trial's messages,
    then its noise, from its generator in *rngs*.  Both legs cap every
    stream at the grid's cooperation caps, or at np.inf, which caps
    nothing, when cfg.cap_enabled is off."""
    _, rhos, sigma2, caps = grid_levels(cfg.snr_start, cfg.snr_stop, cfg.snr_step)
    caps = caps if cfg.cap_enabled else np.inf
    table = {}
    if cfg.run_snc:
        eff = effective_system(extension_dims(cfg.M, cfg.n))
        gains = stream_gains(h, v1, v_other, w, eff)
        rate = end_to_end_sum_rate(per_link_rates(gains, sigma2), caps)
        # noisy end-to-end pass for the recovery statistics, every point at once
        msgs = sample_message_bits(eff.plan.total_streams, rngs)
        noise = sample_noise(cfg.M, cfg.n_ext, cfg.channel_model, rngs)
        words = filter_and_demodulate(modulate_bpsk(msgs), noise, h, w, sigma2, eff)
        table["snc"] = {"rate": rate.T, "detected": cp_recover(eff, words)[1].T}
    if cfg.run_cf:
        rate, outage = cf_trial_sum_rate(h, rhos, cfg.q, cfg.cf_radius, caps)
        table["cf"] = {"rate": rate.T, "outage": outage.T}
    zero = np.zeros((len(rhos), len(h)))
    return {scheme: {name: outcomes.get(name, zero) for name in OUTCOMES}
            for scheme, outcomes in table.items()}


@dataclass(frozen=True)
class SweepPoint:
    """One scheme at one SNR point: its kept trials, then each stat of
    STATS, the CSV's columns in the CSV's order."""

    scheme: str
    snr_db: float
    trials: int
    mean_sum_rate: float  # bits per channel use
    std_sum_rate: float
    outage_frac: float
    detected_err_frac: float


@dataclass
class SweepResult:
    points: list[SweepPoint] = field(default_factory=list)
    dof_slopes: dict[str, float] = field(default_factory=dict)
    aborted_trials: int = 0  # aborted trials times SNR points
    warning: str | None = None


def chunk_length(cfg: SimConfig) -> int:
    """Trials per chunk: all of them, but at most BATCH_ELEMENTS //
    (elements per trial), so that large extensions stay in memory, and at
    least 1.  Elements per trial is a fixed bound on the SNC arrays,
    M N max(N, S M), the same for every scheme and coefficient search: the
    CF leg bounds its own search in tiles of cf_baseline.PASS_ELEMENTS
    values.  The worker count does not enter, so a serial and a pooled
    sweep evaluate the same chunks."""
    M, S, n_ext = cfg.M, len(cfg.snr_grid), cfg.n_ext
    elements = M * n_ext * max(n_ext, S * M)
    return max(1, min(cfg.trials, BATCH_ELEMENTS // elements))


def _sweep_stats(tables, points: int, n_ext: int) -> dict[str, np.ndarray]:
    """Every stat of STATS at each of the *points* SNR points, from a
    scheme's outcome *tables*, one per chunk, in trial order.  They are
    joined once, into one [outcome, point, kept trial] array, the block
    rates divided by the block length *n_ext*, and one np.add.reduce over
    the trial axis gives every mean; a std takes numpy's own steps from
    there, so each stat is bit for bit .mean(axis=1) or .std(axis=1) of
    its outcome's rows.  With no kept trial there is nothing to average:
    "share" reads 0, the others NaN."""
    trials = sum(t["rate"].shape[1] for t in tables)
    if not trials:
        return {stat: np.full(points, 0.0 if how == "share" else math.nan)
                for stat, (_, how) in STATS.items()}
    joined = np.empty((len(OUTCOMES), points, trials))
    for row, name in zip(joined, OUTCOMES):
        np.concatenate([t[name] for t in tables], axis=1, out=row)
    joined[OUTCOMES.index("rate")] /= n_ext
    sums = dict(zip(OUTCOMES, np.add.reduce(joined, axis=-1)))

    def std(name):
        dev = joined[OUTCOMES.index(name)] - sums[name][:, None] / trials
        return np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=-1) / trials)

    return {stat: std(outcome) if how == "std" else sums[outcome] / trials
            for stat, (outcome, how) in STATS.items()}


def run_sweep(cfg: SimConfig) -> SweepResult:
    """Run the full (trials x SNR grid) experiment and aggregate.

    Trials are evaluated in chunks of consecutive indices (chunk_length),
    each chunk at every SNR point in one stacked pass.  A sweep of one
    chunk is one run_trials call in this process.  A sweep of several goes
    to a process pool when the SNCSIM_WORKERS environment variable is above
    1; that value is a ceiling on the pool's size (see worker_count).  The
    chunks are the same either way, and aggregation happens in
    trial-index order, so results do not depend on the worker count.
    """
    n_ext, grid = cfg.n_ext, cfg.snr_grid
    workers = worker_count()
    step = chunk_length(cfg)
    chunks = [range(i, min(i + step, cfg.trials)) for i in range(0, cfg.trials, step)]
    # only the outcome arrays of a chunk cross the process boundary
    fn = partial(run_trials, cfg)
    if workers > 1 and len(chunks) > 1:  # one chunk: a pool would cost more than it saves
        # imported here, so that a sweep without a pool never loads it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(fn, chunks))
    else:
        batches = [fn(c) for c in chunks]
    tables = [b.outcomes for b in batches]
    trials = sum(int(np.count_nonzero(b.kept)) for b in batches)
    aborted = cfg.trials - trials
    stats = {s: _sweep_stats([t[s] for t in tables], len(grid), n_ext) for s in tables[0]}
    res = SweepResult(aborted_trials=aborted * len(grid))
    # each scheme's stats as one row per point, in SweepPoint's field order
    rows = {s: list(zip(*(v.tolist() for v in at.values()))) for s, at in stats.items()}
    res.points = [SweepPoint(s, snr_db, trials, *rows[s][p])
                  for p, snr_db in enumerate(grid) for s in rows]
    if not cfg.cap_enabled:
        for s, at in stats.items():
            mean = at["mean_sum_rate"]
            fit = np.isfinite(mean)
            with contextlib.suppress(ValueError):  # under 2 points in DOF_WINDOW_DB
                res.dof_slopes[s] = estimate_dof_slope(np.array(grid)[fit], mean[fit])
    notes = []
    if aborted > 0.01 * cfg.trials:
        notes.append(f"{aborted} of {cfg.trials} trials aborted on degenerate channels")
    if not trials:
        notes.append("every trial aborted at "
                     + ", ".join(f"{s:g} dB" for s in grid)
                     + "; no rates there")
    res.warning = "; ".join(notes) or None
    return res


CSV_HEADER = ["scheme", "K", "L", "n", "q", "channel_model", "snr_db", "trials", *STATS]


def write_results(res: SweepResult, cfg: SimConfig):
    """Emit the CSV (plotting interface) at cfg.out_path plus a JSON sidecar
    beside it with the full configuration, seed, version, and DoF-slope
    estimates."""
    path = Path(cfg.out_path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for pt in res.points:
            writer.writerow([
                pt.scheme, cfg.K, cfg.rx_count, cfg.n, cfg.q, cfg.channel_model,
                repr(float(pt.snr_db)), pt.trials,
                *(repr(getattr(pt, stat)) for stat in STATS),
            ])
    sidecar = path.with_suffix(".json")
    meta = {
        "tool": "sncsim",
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "block_length": cfg.n_ext,
        "normalization": "sum rates are bits per channel use (block rate / N)",
        "dof_slopes": res.dof_slopes,
        "aborted_trials": res.aborted_trials,
        "warning": res.warning,
    }
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return path, sidecar
