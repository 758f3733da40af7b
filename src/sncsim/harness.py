"""
Seeded Monte Carlo sweeps over SNR with CSV/JSON output.

Each trial derives its own RNG stream from (master seed, trial index), so
runs are byte-identical across repeats and across worker counts.  The two
schemes share the channel realization of a trial (paired comparison).
SNR is interpreted as p_max / sigma^2 with p_max fixed and the noise
variance swept.

Work that depends only on (K, n) -- the extension plan and its effective
system -- is built once per plan, and SimConfig.validate() rejects a
config whose plan cannot be built, or a p_max and SNR grid whose linear
SNR or noise variance leaves LEVEL_RANGE (snr_levels, which the engine
shares).  The engine evaluates chunks of consecutive trials: run_trials
stacks a chunk's channels into one bare (T, M, M, N) array and builds
everything that depends on the channel alone (precoders, rank and
conditioning checks, filters, link gains) in one stacked pass, redrawing
only the trials whose draw was degenerate, then evaluates the whole SNR
grid of every kept trial in one array pass.  The compute-and-forward leg
runs once per chunk over the grid and draws no randomness.  The arrays of
a chunk are the only shape: run_trial is run_trials on one index and
returns its one-trial TrialBatch.  A sweep that fits one chunk of at most
BATCH_ELEMENTS per array runs in this process, whatever SNCSIM_WORKERS
says: a process pool could not amortise its start-up over one chunk.  A
larger sweep goes to a pool of at most SNCSIM_WORKERS processes in chunks
of trials // (4 workers) trials.  run_sweep joins the chunks' outcomes
into [point, kept trial] arrays and aggregates every point of a scheme in
one pass over the trial axis.

Draw-order contract: each trial has its own generator, which draws the
channel and its resamples, then the messages, then unit-variance noise,
each once; only the noise scale depends on the SNR.  No draw depends on
the grid or on the other trials of the chunk, and every number of a
trial is computed from that trial's arrays alone, so a multi-point call
equals the one-point calls it replaces and a trial's result does not
depend on how the trials are chunked.  No check depends on the SNR, so
an aborted trial aborts at every point.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
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
    end_to_end_sum_rate,
    estimate_dof_slope,
    filter_and_demodulate,
    link_gains,
    modulate_bpsk,
    per_link_rates,
    transmit,
)
from .snc import (
    CapacityError,
    PrecoderSet,
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
# Every rate formula multiplies p_max, rho or 1 / sigma2 by a channel term.
# Holding them to the square root of the float range leaves the other half
# of the exponent range to that term, so no product overflows or goes
# subnormal.
LEVEL_RANGE = (2.0 ** -511, 2.0 ** 511)


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


def snr_levels(p_max: float, snr_dbs) -> tuple[list[float], np.ndarray]:
    """The linear SNR rho = 10^(snr/10) and the noise variance
    sigma2 = p_max / rho of every SNR point in dB, so that the per-signal
    SNR p_max / sigma2 is the labelled one whatever p_max is.

    Raises ConfigError unless p_max and every rho and sigma2 lie in
    LEVEL_RANGE, which excludes every value that is not a finite, positive,
    normal float: beyond it the sweep would overflow, divide by zero or
    write non-finite rates.
    """
    lo, hi = LEVEL_RANGE
    if not lo <= p_max <= hi:
        raise ConfigError(f"p_max must lie in [{lo:g}, {hi:g}], got {p_max:g}")
    rhos, sigma2 = [], []
    for snr_db in snr_dbs:
        try:
            rho = 10.0 ** (snr_db / 10.0)
            s2 = p_max / rho
        except (OverflowError, ZeroDivisionError):
            rho = s2 = math.nan
        if not (lo <= rho <= hi and lo <= s2 <= hi):
            raise ConfigError(f"at {snr_db:g} dB with p_max {p_max:g}, the linear SNR "
                              "10^(snr/10) or the noise variance p_max / rho "
                              f"leaves [{lo:g}, {hi:g}]")
        rhos.append(rho)
        sigma2.append(s2)
    return rhos, np.array(sigma2)


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
    p_max: float = 1.0
    cf_radius: int = 3
    cap_enabled: bool = True
    out_path: str = "sweep.csv"
    dof_window_db: tuple[float, float] = (40.0, 60.0)

    def validate(self):
        if self.scheme not in ("snc", "cf", "both"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.channel_model not in ("real", "complex"):
            raise ConfigError(f"unknown channel model {self.channel_model!r}")
        if self.seed < 0:
            raise ConfigError(f"the seed must be >= 0, got {self.seed}")
        for name in ("p_max", "snr_start", "snr_stop", "snr_step"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.snr_step <= 0:
            raise ConfigError("SNR step must be positive")
        if self.snr_stop < self.snr_start:
            raise ConfigError("the SNR grid has no points: stop is below start")
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        try:
            M = self.topology_expanded.M
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
        if self.p_max <= 0:
            raise ConfigError("p_max must be positive")
        snr_levels(self.p_max, self.snr_grid)
        PrimeField(self.q)  # raises on non-prime
        if self.run_snc and self.q != 2:
            raise ConfigError(
                f"the alignment scheme demodulates BPSK over GF(2) only, got q={self.q}"
            )

    @property
    def rx_count(self) -> int:
        return self.K if self.L is None else self.L

    @property
    def topology(self) -> Topology:
        tx = self.tx_antennas or (1,) * self.K
        rx = self.rx_antennas or (1,) * self.rx_count
        return Topology(self.K, self.rx_count, tuple(tx), tuple(rx))

    @property
    def topology_expanded(self):
        return expand_mimo_to_virtual(self.topology)

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
    block sum rates ``snc_rate`` (Tk, S), per-stream rates ``per_signal``
    (Tk, S, streams) before the backhaul cap, the detected-error flags
    ``detected`` (Tk, S), and ``cf_rate`` and ``cf_outage`` (Tk, S)."""

    kept: np.ndarray
    snc_rate: np.ndarray | None = None
    per_signal: np.ndarray | None = None
    detected: np.ndarray | None = None
    cf_rate: np.ndarray | None = None
    cf_outage: np.ndarray | None = None


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    return default_rng(SeedSequence([seed, trial_index]))


def _usable_channels(cfg: SimConfig, plan, h: np.ndarray, redraw):
    """Resample the degenerate draws of the chunk's channel *h* (precoder
    rank loss, an ill-conditioned filter) up to MAX_RESAMPLES times; each
    round redraws, and checks, only the trials still pending.  Returns the
    kept trials' channel, precoders and filters, and the kept mask."""
    T, K, N = len(h), plan.K, plan.N
    v1 = np.empty((T, N, N), h.dtype)
    v_other = np.empty((T, N, plan.N_prime), h.dtype)
    u = np.empty((T, K, N, N), h.dtype)
    scale = np.empty(T)
    kept = np.zeros(T, dtype=bool)
    pending = np.arange(T)
    for attempt in range(MAX_RESAMPLES + 1):
        if attempt:
            h[pending] = redraw(pending)
        prec = build_precoders(h[pending], plan, cfg.p_max)
        ranked = check_precoder_ranks(prec, plan).passed
        prec = PrecoderSet(K, prec.v1[ranked], prec.v_other[ranked],
                           prec.power_scale[ranked])
        u_ranked, ok = build_filters(h[pending[ranked]], prec)
        done = pending[ranked][ok]
        v1[done], v_other[done], u[done] = prec.v1[ok], prec.v_other[ok], u_ranked
        scale[done] = prec.power_scale[ok]
        kept[done] = True
        pending = pending[~kept[pending]]
        if not pending.size:
            break
    return h[kept], PrecoderSet(K, v1[kept], v_other[kept], scale[kept]), u[kept], kept


def run_trials(cfg: SimConfig, snr_dbs, indices) -> TrialBatch:
    """Paired Monte Carlo trials *indices*, evaluated at every SNR in
    *snr_dbs* in one stacked pass over a leading trial axis.

    Each trial draws from its own generator in the order of the
    draw-order contract, and every check and number of a trial is
    computed from that trial alone, so a trial's outcome does not depend
    on the other trials of the chunk.  A trial whose channel stays
    degenerate after MAX_RESAMPLES resamples is aborted: ``kept`` is False
    for it.
    """
    vt = cfg.topology_expanded
    plan = extension_dims(vt.M, cfg.n) if cfg.run_snc else None
    n_ext = plan.N if plan is not None else 1
    rhos, sigma2 = snr_levels(cfg.p_max, snr_dbs)
    rngs = [_trial_rng(cfg.seed, i) for i in indices]

    def draw(trials):
        return np.stack([sample_extended_channel(vt, n_ext, cfg.channel_model, rngs[t])
                         for t in trials])

    h = draw(range(len(rngs)))
    kept = np.ones(len(rngs), dtype=bool)
    if cfg.run_snc:
        h, prec, u, kept = _usable_channels(cfg, plan, h, draw)
    out = {}
    if not kept.any():
        return TrialBatch(kept=kept)
    if cfg.run_cf:
        out["cf_rate"], out["cf_outage"] = cf_trial_sum_rate(
            h, rhos, PrimeField(cfg.q), cfg.cf_radius, cfg.cap_enabled)
    if cfg.run_snc:
        eff = effective_system(plan)
        out["per_signal"], out["snc_rate"] = end_to_end_sum_rate(
            per_link_rates(link_gains(prec, u, eff), sigma2), eff, rhos, cfg.cap_enabled)
        # noisy end-to-end pass for the recovery statistics, every point at once
        kept_rngs = [rngs[t] for t in np.flatnonzero(kept)]
        msgs = np.stack([rng.integers(0, cfg.q, size=plan.total_streams)
                         for rng in kept_rngs])
        x = np.split(modulate_bpsk(msgs, cfg.q), eff.col_offset[1:], axis=-1)
        noise = np.stack([sample_noise(sigma2, vt.M, n_ext, cfg.channel_model, rng)
                          for rng in kept_rngs])
        y = transmit(h, prec, x, noise)
        out["detected"] = cp_recover(eff, filter_and_demodulate(y, u, eff)).detected_error
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
    aborted_trials: int = 0
    warning: str | None = None

    def point(self, scheme: str, snr_db: float) -> SweepPoint:
        for pt in self.points:
            if pt.scheme == scheme and pt.snr_db == snr_db:
                return pt
        raise KeyError((scheme, snr_db))


def chunk_length(cfg: SimConfig, workers: int) -> int:
    """Trials per chunk: all of them when serial, trials // (4 workers) on
    a pool so that each worker gets several chunks, and at least 1.  At
    most BATCH_ELEMENTS // (elements of one trial's largest array), so that
    large extensions stay in memory; the largest arrays are the filters
    (M, N, N), the per-link rates (S, M, M N) and the CF rates
    (N, M, candidates), up to small factors.  run_sweep uses a pool only
    when chunk_length(cfg, 1) < cfg.trials, that is when the sweep spans
    more than one such chunk."""
    M, S = cfg.topology_expanded.M, len(cfg.snr_grid)
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
    vt = cfg.topology_expanded
    n_ext = extension_dims(vt.M, cfg.n).N if cfg.run_snc else 1
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
        lo, hi = cfg.dof_window_db
        for scheme in schemes:
            fit = [pt for pt in res.points
                   if pt.scheme == scheme and math.isfinite(pt.mean_sum_rate)]
            if sum(1 for pt in fit if lo <= pt.snr_db <= hi) >= 2:
                res.dof_slopes[scheme] = estimate_dof_slope(
                    [pt.snr_db for pt in fit],
                    [pt.mean_sum_rate * n_ext for pt in fit],
                    n_ext, cfg.dof_window_db,
                )
    total = len(cfg.snr_grid) * cfg.trials
    notes = []
    if res.aborted_trials > 0.01 * total:
        notes.append(f"{res.aborted_trials} of {total} trials aborted "
                     "on degenerate channels")
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
