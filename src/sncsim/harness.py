"""
Seeded Monte Carlo sweeps over SNR with CSV/JSON output.

Each trial derives its own RNG stream from (master seed, trial index), so
runs are byte-identical across repeats and across worker counts.  The two
schemes share the channel realization of a trial (paired comparison).
SNR is interpreted as p_max / sigma^2 with p_max fixed and the noise
variance swept.

Work that depends only on (K, n) -- the extension plan and its effective
system -- is built once per plan, and SimConfig.validate() rejects a
config whose plan cannot be built.  The engine is trial-major: run_trial
draws a trial's channel and builds everything that depends on the channel
alone (precoders, rank and conditioning checks, filters, link gains)
once, then evaluates the whole SNR grid in one array pass.  The
compute-and-forward leg runs once per trial over the grid and draws no
randomness.  Draw-order contract: per trial the generator draws the
channel and its resamples, then the messages, then unit-variance noise,
each once; only the noise scale depends on the SNR.  No draw depends on
the grid, so a multi-point call equals the one-point calls it replaces.
No check depends on the SNR, so an aborted trial aborts at every point.
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

from . import __version__
from .channel import (
    Topology,
    expand_mimo_to_virtual,
    sample_extended_channel,
    sample_noise,
)
from .cf_baseline import cf_trial_sum_rate
from .gf import PrimeField
from .phy import (
    end_to_end_sum_rate,
    estimate_dof_slope,
    filter_and_demodulate,
    link_gains,
    modulate_bpsk,
    per_link_rates,
    transmit,
)
from .gf import RankDeficientError
from .snc import (
    CapacityError,
    SncError,
    build_filters,
    build_precoders,
    check_precoder_ranks,
    cp_recover,
    effective_system,
    extension_dims,
)

WORKERS_ENV = "SNCSIM_WORKERS"
MAX_RESAMPLES = 3


class ConfigError(Exception):
    """Invalid or contradictory simulation configuration."""


class TrialAbortError(Exception):
    """Channel stayed degenerate after the allowed resamples."""


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
class TrialResult:
    snc_sum_rate: float | None  # bits per extension block
    cf_sum_rate: float | None
    detected_error: bool | None
    cf_outage_frac: float | None
    snc_report: object = None  # RateReport when the SNC leg ran


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial_index]))


def run_trial(cfg: SimConfig, snr_dbs, trial_index: int) -> list[TrialResult]:
    """One paired Monte Carlo trial, evaluated at every SNR in *snr_dbs*.

    Degenerate channel draws (precoder rank loss, an ill-conditioned
    filter) are resampled up to MAX_RESAMPLES times before the trial is
    aborted with TrialAbortError.  Returns one result per SNR value, in
    order.
    """
    vt = cfg.topology_expanded
    plan = extension_dims(vt.M, cfg.n) if cfg.run_snc else None
    eff = effective_system(plan) if plan is not None else None
    n_ext = plan.N if plan is not None else 1
    rng = _trial_rng(cfg.seed, trial_index)

    for attempt in range(MAX_RESAMPLES + 1):
        h = sample_extended_channel(vt, n_ext, cfg.channel_model, rng)
        if not cfg.run_snc:
            break
        try:
            prec = build_precoders(h, plan, cfg.p_max)
            check_precoder_ranks(prec, plan).raise_if_deficient()
            filters = build_filters(h, prec)
        except SncError:
            if attempt == MAX_RESAMPLES:
                raise TrialAbortError(
                    f"degenerate channel after {MAX_RESAMPLES} resamples"
                )
            continue
        gains = link_gains(prec, filters, eff)
        break

    rhos = [cfg.p_max * 10.0 ** (snr_db / 10.0) for snr_db in snr_dbs]
    if cfg.run_cf:
        cf = cf_trial_sum_rate(h, rhos, PrimeField(cfg.q), cfg.cf_radius,
                               cfg.cap_enabled)
    else:
        cf = [(None, None)] * len(rhos)
    reports = detected = [None] * len(rhos)
    if cfg.run_snc:
        sigma2 = np.array([cfg.p_max / rho for rho in rhos])
        reports = end_to_end_sum_rate(per_link_rates(gains, sigma2), eff, rhos,
                                      cfg.cap_enabled)
        # noisy end-to-end pass for the recovery statistics, every point at once
        msgs = rng.integers(0, cfg.q, size=plan.total_streams)
        x = np.split(modulate_bpsk(msgs, cfg.q), eff.col_offset[1:])
        noise = sample_noise(sigma2, vt.M, n_ext, cfg.channel_model, rng)
        y = transmit(h, prec, x, noise)
        rec = cp_recover(eff, filter_and_demodulate(y, filters, eff))
        detected = rec.detected_error.tolist()

    return [TrialResult(snc_sum_rate=report.sum_rate if report else None,
                        cf_sum_rate=cf_rate,
                        detected_error=err, cf_outage_frac=outage, snc_report=report)
            for report, err, (cf_rate, outage) in zip(reports, detected, cf)]


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


def _trial_worker(cfg: SimConfig, trial_index: int):
    """Per-SNR-point (snc rate, detected error, cf rate, cf outage) tuples
    of one trial, or None when it aborted.  Only these numbers cross the
    process boundary, not the rate reports."""
    try:
        results = run_trial(cfg, cfg.snr_grid, trial_index)
    except TrialAbortError:
        return None
    return [(r.snc_sum_rate, r.detected_error, r.cf_sum_rate, r.cf_outage_frac)
            for r in results]


def _sweep_point(scheme: str, snr_db: float, rows: list, n_ext: int) -> SweepPoint:
    """Aggregate the kept trials' outcomes at one SNR point.  When every
    trial aborted there is nothing to average: the rates are NaN."""
    if not rows:
        return SweepPoint(scheme=scheme, snr_db=snr_db, mean_sum_rate=math.nan,
                          std_sum_rate=math.nan, trials=0, outage_frac=0.0,
                          detected_err_frac=0.0)
    if scheme == "snc":
        rates = [r[0] for r in rows]
        outage = 0.0
        errs = sum(1 for r in rows if r[1]) / len(rows)
    else:
        rates = [r[2] for r in rows]
        outage = float(np.mean([r[3] for r in rows]))
        errs = 0.0
    samples = np.array(rates) / n_ext
    return SweepPoint(scheme=scheme, snr_db=snr_db,
                      mean_sum_rate=float(samples.mean()),
                      std_sum_rate=float(samples.std()),
                      trials=len(rows), outage_frac=outage, detected_err_frac=errs)


def run_sweep(cfg: SimConfig) -> SweepResult:
    """Run the full (trials x SNR grid) experiment and aggregate.

    Trials are independent work items, each evaluated at every SNR point;
    set the SNCSIM_WORKERS environment variable above 1 for a process pool,
    which receives the trials in chunks.  Aggregation always happens in
    trial-index order, so results do not depend on the worker count.
    """
    cfg.validate()
    vt = cfg.topology_expanded
    n_ext = extension_dims(vt.M, cfg.n).N if cfg.run_snc else 1
    workers = int(os.environ.get(WORKERS_ENV, "1"))
    res = SweepResult(n_ext=n_ext)
    schemes = [s for s in ("snc", "cf") if cfg.scheme in (s, "both")]

    fn = partial(_trial_worker, cfg)
    indices = range(cfg.trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, cfg.trials // (4 * workers))
            results = list(pool.map(fn, indices, chunksize=chunk))
    else:
        results = [fn(i) for i in indices]
    kept = [r for r in results if r is not None]
    empty = []
    for p, snr_db in enumerate(cfg.snr_grid):
        res.aborted_trials += len(results) - len(kept)
        rows = [r[p] for r in kept]
        if not rows:
            empty.append(snr_db)
        res.points.extend(_sweep_point(s, snr_db, rows, n_ext) for s in schemes)

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
    if empty:
        notes.append("every trial aborted at "
                     + ", ".join(f"{s:g} dB" for s in empty)
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
