"""
Seeded Monte Carlo sweeps over SNR with CSV/JSON output.

Each trial derives its own RNG stream from (master seed, trial index), so
runs are byte-identical across repeats and across worker counts.  The two
schemes share the channel realization of a trial (paired comparison).
SNR is interpreted as 1 / sigma^2: the precoders' largest column has
unit power and the noise variance is swept.

Work that depends only on (K, n) -- the extension plan and its effective
system -- is built once per plan.  SimConfig.validate() raises
ConfigError for every config it rejects: one whose plan cannot be built,
a count that is not an integer, a cap flag that is not a bool, an
antenna list that is not a sequence, an SNR field that is not a real
number, a field size that is not a prime below 2^63, an SNR grid of more
than MAX_SNR_POINTS points, or one whose linear SNR leaves LEVEL_RANGE
(snr_levels, which the engine shares).  The engine evaluates chunks of
consecutive trials: run_trials draws a chunk's channels as one bare
(T, M, M, N) stack, one generator call per trial, and builds everything
that depends on the channel alone (the precoders v1 and v_other, the
filters' shared inverse w of V_1, V_1's rank test read from w, each
stream's gain at its weakest receiver) as plain arrays in one stacked
pass, redrawing only the trials whose V_1 lost rank, then evaluates the
whole SNR grid of every kept trial in one array pass.  The
compute-and-forward leg runs once per chunk over the grid and draws no
randomness.  The arrays of a chunk are the only shape: run_trial is
run_trials on one index and returns its one-trial TrialBatch.  A sweep
that fits one chunk of at most BATCH_ELEMENTS per array runs in this
process, whatever SNCSIM_WORKERS says: a process pool could not amortise
its start-up over one chunk.  A larger sweep goes to a pool of at most
SNCSIM_WORKERS processes in chunks of trials // (4 workers) trials.
run_sweep joins the chunks' outcomes into [point, kept trial] arrays and
aggregates every point of a scheme in one pass over the trial axis.

Draw-order contract: each trial has its own generator, which draws the
channel and its resamples, then the messages, then unit-variance noise,
each once; only the noise scale depends on the SNR.  The channel and
noise draws of a chunk are stacked (one call on each trial's generator,
one combine and scaling of the stack), which keeps every trial's bits.
No draw depends on the grid or on the other trials of the chunk, and
every number of a trial is computed from that trial's arrays alone, so a
multi-point call equals the one-point calls it replaces and a trial's
result does not depend on how the trials are chunked.  No check depends
on the SNR, so an aborted trial aborts at every point.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
# numpy loads numpy.random lazily; importing it here means forked pool
# workers inherit it instead of each loading it on its first trial
from numpy.random import SeedSequence, default_rng

from . import __version__
from .channel import (
    Topology,
    expand_mimo_to_virtual,
    sample_extended_channel,
    sample_noise,
)
from .cf_baseline import MAX_SEARCH_GRID, cf_trial_sum_rate, search_grid_size
from .gf import PrimeField, RankDeficientError
from .phy import (
    DOF_WINDOW_DB,
    end_to_end_sum_rate,
    estimate_dof_slope,
    filter_and_demodulate,
    modulate_bpsk,
    per_link_rates,
    stream_gains,
    transmit,
)
from .snc import (
    CapacityError,
    build_filters,
    build_precoders,
    check_precoder_ranks,
    cp_recover,
    effective_system,
    extension_dims,
)

WORKERS_ENV = "SNCSIM_WORKERS"
MAX_RESAMPLES = 3
# array elements a chunk of trials may take per trial-stacked array
BATCH_ELEMENTS = 2**16
# Every rate formula multiplies rho or 1 / sigma2 by a channel term.
# Holding them to the square root of the float range leaves the other half
# of the exponent range to that term, so no product overflows or goes
# subnormal.
LEVEL_RANGE = (2.0 ** -511, 2.0 ** 511)
MAX_SNR_POINTS = 10**4


class ConfigError(Exception):
    """Invalid or contradictory simulation configuration."""


class TrialAbortError(Exception):
    """Channel stayed degenerate after the allowed resamples."""


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


def snr_levels(snr_dbs) -> tuple[list[float], np.ndarray]:
    """The linear SNR rho = 10^(snr/10) and the noise variance
    sigma2 = 1 / rho of every SNR point in dB.

    Raises ConfigError unless every rho lies in LEVEL_RANGE, and with it
    sigma2, which excludes every value that is not a finite, positive,
    normal float: beyond it the sweep would overflow, divide by zero or
    write non-finite rates.
    """
    lo, hi = LEVEL_RANGE
    rhos = []
    for snr_db in snr_dbs:
        try:
            rho = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            rho = math.nan
        if not lo <= rho <= hi:
            raise ConfigError(f"at {snr_db:g} dB the linear SNR 10^(snr/10) "
                              f"leaves [{lo:g}, {hi:g}]")
        rhos.append(rho)
    return rhos, np.array([1.0 / rho for rho in rhos])


@dataclass(frozen=True)
class SimConfig:
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

    def validate(self):
        names = ("K", "n", "q", "trials", "seed", "cf_radius")
        integers = [(name, getattr(self, name)) for name in names] + [("L", self.rx_count)]
        for name in ("tx_antennas", "rx_antennas"):
            counts = getattr(self, name)
            if counts is not None and not isinstance(counts, (tuple, list)):
                raise ConfigError(f"{name} must be a sequence of counts, got {counts!r}")
            integers += [("an antenna count", a) for a in counts or ()]
        for name, value in integers:
            # bool is an Integral too, but True users or trials is a mistake
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.cap_enabled, bool):
            raise ConfigError(f"cap_enabled must be a bool, got {self.cap_enabled!r}")
        if self.scheme not in ("snc", "cf", "both"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.channel_model not in ("real", "complex"):
            raise ConfigError(f"unknown channel model {self.channel_model!r}")
        if self.seed < 0:
            raise ConfigError(f"the seed must be >= 0, got {self.seed}")
        for name in ("snr_start", "snr_stop", "snr_step"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.snr_step <= 0:
            raise ConfigError("SNR step must be positive")
        if self.snr_stop < self.snr_start:
            raise ConfigError("the SNR grid has no points: stop is below start")
        # counted before snr_grid builds them: a tiny step gives inf or ~1e300
        steps = (float(self.snr_stop) - float(self.snr_start)) / float(self.snr_step)
        if not steps + 1 <= MAX_SNR_POINTS:
            raise ConfigError(f"the SNR grid has more than {MAX_SNR_POINTS} points")
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        try:
            M = self.M
        except ValueError as exc:
            raise ConfigError(f"bad topology: {exc}") from exc
        if self.run_cf and self.K != self.rx_count:
            raise ConfigError("compute-and-forward requires K = L")
        if self.run_cf and self.channel_model != "real":
            raise ConfigError("compute-and-forward runs on real channels only")
        if self.run_cf and self.cf_radius < 1:
            raise ConfigError(
                f"the coefficient search radius must be >= 1, got {self.cf_radius}"
            )
        if self.run_cf and search_grid_size(M, self.cf_radius) > MAX_SEARCH_GRID:
            raise ConfigError(
                f"cf_radius {self.cf_radius} makes the coefficient search enumerate "
                f"(2 cf_radius + 1)^{M} vectors, more than {MAX_SEARCH_GRID}"
            )
        if self.n < 1:
            raise ConfigError(f"the extension parameter n must be >= 1, got {self.n}")
        if self.run_snc:
            if M < 2:
                raise ConfigError("the alignment scheme needs at least 2 virtual users")
            try:
                effective_system(extension_dims(M, self.n))
            except (CapacityError, RankDeficientError) as exc:
                raise ConfigError(f"no alignment plan for n={self.n}: {exc}") from exc
        snr_levels(self.snr_grid)
        try:
            PrimeField(self.q)
        except ValueError as exc:
            raise ConfigError(f"bad field size: {exc}") from exc
        if self.run_snc and self.q != 2:
            raise ConfigError(
                f"the alignment scheme demodulates BPSK over GF(2) only, got q={self.q}"
            )

    @property
    def rx_count(self) -> int:
        return self.K if self.L is None else self.L

    @property
    def M(self) -> int:
        tx = self.tx_antennas or (1,) * self.K
        rx = self.rx_antennas or (1,) * self.rx_count
        return expand_mimo_to_virtual(Topology(self.K, self.rx_count, tuple(tx), tuple(rx)))

    @property
    def run_snc(self) -> bool:
        return self.scheme in ("snc", "both")

    @property
    def run_cf(self) -> bool:
        return self.scheme in ("cf", "both")

    @property
    def snr_grid(self) -> tuple[float, ...]:
        count = int(math.floor((self.snr_stop - self.snr_start) / self.snr_step + 1e-9))
        return tuple(self.snr_start + i * self.snr_step for i in range(count + 1))


@dataclass(frozen=True)
class TrialBatch:
    """Outcomes of a chunk of trials.  ``kept`` (T,) marks the trials that
    did not abort; every other array covers the kept trials only, in index
    order, over the SNR points, and is None when its scheme did not run:
    block sum rates ``snc_rate`` (Tk, S), the detected-error flags
    ``detected`` (Tk, S), and ``cf_rate`` and ``cf_outage`` (Tk, S)."""

    kept: np.ndarray
    snc_rate: np.ndarray | None = None
    detected: np.ndarray | None = None
    cf_rate: np.ndarray | None = None
    cf_outage: np.ndarray | None = None


def _usable_channels(plan, h: np.ndarray, redraw):
    """Resample the draws of the chunk's channel *h* whose V_1 loses rank
    up to MAX_RESAMPLES times.  The first round builds, inverts and checks
    the whole chunk; each later round redraws, inverts and checks only the
    trials still pending and writes its results over theirs, so a kept
    trial keeps the inverse w that its rank test read.  Returns the kept
    trials' channel, precoders v1 and v_other, and filter inverses w, and
    the kept mask; the arrays are gathered only when some trial aborted."""
    v1, v_other = build_precoders(h, plan)
    w = build_filters(v1)
    kept = check_precoder_ranks(v1, w)
    pending = np.flatnonzero(~kept)
    for _ in range(MAX_RESAMPLES):
        if not pending.size:
            break
        h[pending] = redraw(pending)
        pv1, pv_other = build_precoders(h[pending], plan)
        pw = build_filters(pv1)
        passed = check_precoder_ranks(pv1, pw)
        v1[pending], v_other[pending], w[pending] = pv1, pv_other, pw
        kept[pending[passed]] = True
        pending = pending[~passed]
    if pending.size:
        return h[kept], v1[kept], v_other[kept], w[kept], kept
    return h, v1, v_other, w, kept


def run_trials(cfg: SimConfig, snr_dbs, indices) -> TrialBatch:
    """Paired Monte Carlo trials *indices*, evaluated at every SNR in
    *snr_dbs* in one stacked pass over a leading trial axis.

    Each trial draws from its own generator in the order of the
    draw-order contract, and every check and number of a trial is
    computed from that trial alone, so a trial's outcome does not depend
    on the other trials of the chunk.  A trial whose V_1 still lacks full
    rank after MAX_RESAMPLES resamples is aborted: ``kept`` is False for
    it.
    """
    M = cfg.M
    plan = extension_dims(M, cfg.n) if cfg.run_snc else None
    n_ext = plan.N if plan is not None else 1
    rhos, sigma2 = snr_levels(snr_dbs)
    rngs = [default_rng(SeedSequence([cfg.seed, i])) for i in indices]

    def draw(trials):
        return sample_extended_channel(M, n_ext, cfg.channel_model,
                                       [rngs[t] for t in trials])

    h = draw(range(len(rngs)))
    kept = np.ones(len(rngs), dtype=bool)
    if cfg.run_snc:
        h, v1, v_other, w, kept = _usable_channels(plan, h, draw)
    out = {}
    if not kept.any():
        return TrialBatch(kept=kept)
    if cfg.run_cf:
        out["cf_rate"], out["cf_outage"] = cf_trial_sum_rate(
            h, rhos, PrimeField(cfg.q), cfg.cf_radius, cfg.cap_enabled)
    if cfg.run_snc:
        eff = effective_system(plan)
        gains = stream_gains(h, v1, v_other, w, eff)
        out["snc_rate"] = end_to_end_sum_rate(per_link_rates(gains, sigma2), rhos,
                                              cfg.cap_enabled)
        # noisy end-to-end pass for the recovery statistics, every point at once
        kept_rngs = [rngs[t] for t in np.flatnonzero(kept)]
        msgs = np.stack([rng.integers(0, cfg.q, size=plan.total_streams)
                         for rng in kept_rngs])
        x = np.split(modulate_bpsk(msgs), eff.col_offset[1:], axis=-1)
        noise = sample_noise(sigma2, M, n_ext, cfg.channel_model, kept_rngs)
        y = transmit(h, v1, v_other, x, noise)
        _, out["detected"] = cp_recover(eff, filter_and_demodulate(y, h, w, eff))
    return TrialBatch(kept=kept, **out)


def run_trial(cfg: SimConfig, snr_dbs, trial_index: int) -> TrialBatch:
    """One paired Monte Carlo trial, evaluated at every SNR in *snr_dbs*:
    run_trials on one index, whose TrialBatch it returns.  Raises
    TrialAbortError when the trial's channel stays degenerate after
    MAX_RESAMPLES resamples.
    """
    b = run_trials(cfg, snr_dbs, [trial_index])
    if not b.kept[0]:
        raise TrialAbortError(f"degenerate channel after {MAX_RESAMPLES} resamples")
    return b


@dataclass(frozen=True)
class SweepPoint:
    scheme: str
    snr_db: float
    mean_sum_rate: float  # bits per channel use
    std_sum_rate: float
    trials: int
    outage_frac: float
    detected_err_frac: float


@dataclass
class SweepResult:
    points: list[SweepPoint] = field(default_factory=list)
    dof_slopes: dict[str, float] = field(default_factory=dict)
    n_ext: int = 1
    aborted_trials: int = 0  # aborted trials times SNR points
    warning: str | None = None

    def point(self, scheme: str, snr_db: float) -> SweepPoint:
        for pt in self.points:
            if pt.scheme == scheme and pt.snr_db == snr_db:
                return pt
        raise KeyError((scheme, snr_db))


def chunk_length(cfg: SimConfig, workers: int) -> int:
    """Trials per chunk: all of them when serial, trials // (4 workers) on
    a pool so that each worker gets several chunks, and at least 1.  At
    most BATCH_ELEMENTS // (elements per trial), so that large extensions
    stay in memory.  Elements per trial is a fixed bound, M N max(N, S M),
    and for CF at least N M candidates / 2: it is kept as it is, not
    fitted to the arrays the engine builds now, so that chunking, and with
    it the pool decision, do not move.  run_sweep uses a pool only when
    chunk_length(cfg, 1) < cfg.trials, that is when the sweep spans more
    than one such chunk."""
    M, S = cfg.M, len(cfg.snr_grid)
    n_ext = extension_dims(M, cfg.n).N if cfg.run_snc else 1
    elements = M * n_ext * max(n_ext, S * M)
    if cfg.run_cf:
        elements = max(elements, n_ext * M * search_grid_size(M, cfg.cf_radius) // 2)
    share = cfg.trials if workers <= 1 else cfg.trials // (4 * workers)
    return max(1, min(share, BATCH_ELEMENTS // elements))


def _sweep_points(scheme: str, snr_dbs, rates: np.ndarray, n_ext: int,
                  outages: np.ndarray | None = None,
                  detected: np.ndarray | None = None) -> list[SweepPoint]:
    """Aggregate the kept trials' block rates, CF outages and detected-error
    flags, each a [point, kept trial] array, in one pass over the trial
    axis: one SweepPoint per SNR in *snr_dbs*.  When every trial aborted
    there is nothing to average: the rates are NaN."""
    trials = rates.shape[1]
    if not trials:
        return [SweepPoint(scheme=scheme, snr_db=snr_db, mean_sum_rate=math.nan,
                           std_sum_rate=math.nan, trials=0, outage_frac=0.0,
                           detected_err_frac=0.0) for snr_db in snr_dbs]
    samples = rates / n_ext
    zeros = np.zeros(len(snr_dbs))
    outage = outages.mean(axis=1) if outages is not None else zeros
    err = np.count_nonzero(detected, axis=1) / trials if detected is not None else zeros
    return [SweepPoint(scheme=scheme, snr_db=snr_db, mean_sum_rate=float(m),
                       std_sum_rate=float(sd), trials=trials, outage_frac=float(o),
                       detected_err_frac=float(e))
            for snr_db, m, sd, o, e in zip(snr_dbs, samples.mean(axis=1),
                                           samples.std(axis=1), outage, err)]


def run_sweep(cfg: SimConfig) -> SweepResult:
    """Run the full (trials x SNR grid) experiment and aggregate.

    Trials are evaluated in chunks of consecutive indices (chunk_length),
    each chunk at every SNR point in one stacked pass.  A sweep that fits
    one chunk is one run_trials call in this process.  A larger one goes
    to a process pool when the SNCSIM_WORKERS environment variable is above
    1; that value is a ceiling on the pool's size (see worker_count).  A
    trial's outcome does not depend on its chunk, and aggregation happens
    in trial-index order, so results do not depend on the worker count.
    """
    cfg.validate()
    n_ext = extension_dims(cfg.M, cfg.n).N if cfg.run_snc else 1
    workers = worker_count()
    if chunk_length(cfg, 1) >= cfg.trials:
        workers = 1  # one chunk: a pool would cost more than it saves
    res = SweepResult(n_ext=n_ext)
    schemes = [s for s in ("snc", "cf") if cfg.scheme in (s, "both")]

    # only the outcome arrays of a chunk cross the process boundary
    fn = partial(run_trials, cfg, cfg.snr_grid)
    step = chunk_length(cfg, workers)
    chunks = [range(i, min(i + step, cfg.trials)) for i in range(0, cfg.trials, step)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(fn, chunks))
    else:
        batches = [fn(c) for c in chunks]
    aborted = sum(int(np.count_nonzero(~b.kept)) for b in batches)
    kept = [b for b in batches if b.kept.any()]

    def rows(name):
        """One outcome as [point, kept trial], each point's row contiguous."""
        parts = [getattr(b, name) for b in kept] or [np.empty((0, len(cfg.snr_grid)))]
        return np.ascontiguousarray(np.concatenate(parts).T)

    per_scheme = []
    if cfg.run_snc:
        per_scheme.append(_sweep_points("snc", cfg.snr_grid, rows("snc_rate"), n_ext,
                                        detected=rows("detected")))
    if cfg.run_cf:
        per_scheme.append(_sweep_points("cf", cfg.snr_grid, rows("cf_rate"), n_ext,
                                        outages=rows("cf_outage")))
    res.points = [pt for at_point in zip(*per_scheme) for pt in at_point]
    res.aborted_trials = aborted * len(cfg.snr_grid)

    if not cfg.cap_enabled:
        lo, hi = DOF_WINDOW_DB
        for scheme in schemes:
            fit = [pt for pt in res.points
                   if pt.scheme == scheme and math.isfinite(pt.mean_sum_rate)]
            if sum(1 for pt in fit if lo <= pt.snr_db <= hi) >= 2:
                res.dof_slopes[scheme] = estimate_dof_slope(
                    [pt.snr_db for pt in fit],
                    [pt.mean_sum_rate * n_ext for pt in fit], n_ext)
    notes = []
    if aborted > 0.01 * cfg.trials:
        notes.append(f"{aborted} of {cfg.trials} trials aborted on degenerate channels")
    if not kept:
        notes.append("every trial aborted at "
                     + ", ".join(f"{s:g} dB" for s in cfg.snr_grid)
                     + "; no rates there")
    res.warning = "; ".join(notes) or None
    return res


CSV_HEADER = ["scheme", "K", "L", "n", "q", "channel_model", "snr_db", "trials",
              "mean_sum_rate", "std_sum_rate", "outage_frac", "detected_err_frac"]


def write_results(res: SweepResult, cfg: SimConfig, path: str | Path):
    """Emit the CSV (plotting interface) plus a JSON sidecar with the full
    configuration, seed, version, and DoF-slope estimates."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for pt in res.points:
            writer.writerow([
                pt.scheme, cfg.K, cfg.rx_count, cfg.n, cfg.q, cfg.channel_model,
                repr(float(pt.snr_db)), pt.trials,
                repr(pt.mean_sum_rate), repr(pt.std_sum_rate),
                repr(pt.outage_frac), repr(pt.detected_err_frac),
            ])
    sidecar = path.with_suffix(".json")
    meta = {
        "tool": "sncsim",
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "block_length": res.n_ext,
        "normalization": "sum rates are bits per channel use (block rate / N)",
        "dof_slopes": res.dof_slopes,
        "aborted_trials": res.aborted_trials,
        "warning": res.warning,
    }
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return path, sidecar
