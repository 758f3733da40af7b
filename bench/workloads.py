"""The benchmark's pinned sweeps.

Each workload is one `SimConfig` minus its trial count and seed.  A timed
run repeats sweeps of `trials` trials over the workload's SNR grid; sweep
`rep` of a run with seed `s` uses the config seed drawn from
`SeedSequence([s, rep])`, so the same `--seed` gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # SimConfig keyword arguments, without trials and seed
    trials: int  # trials per timed sweep
    workers: int  # value of SNCSIM_WORKERS
    why: str

    @property
    def snr_points(self) -> int:
        c = self.config
        return int(round((c["snr_stop"] - c["snr_start"]) / c["snr_step"])) + 1

    @property
    def evals_per_sweep(self) -> int:
        return self.trials * self.snr_points

    def sweep_config(self, seed: int, rep: int) -> dict:
        cfg_seed = int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])
        return dict(self.config, trials=self.trials, seed=cfg_seed)

    def setup_config(self) -> dict:
        """One trial at the first SNR point: the set-up probe's sweep."""
        return dict(self.config, trials=1, snr_stop=self.config["snr_start"],
                    seed=DEFAULT_SEED)


_GRID_0_60_10 = dict(snr_start=0.0, snr_stop=60.0, snr_step=10.0)

WORKLOADS = {w.name: w for w in (
    Workload(
        "k2n2_both_real_w2",
        dict(K=2, n=2, scheme="both", channel_model="real", **_GRID_0_60_10),
        trials=60, workers=2,
        why="cheapest trial (N=3) on a 2-process pool, so one-trial-per-task "
            "dispatch is the largest share; the only workload that measures "
            "harness pool chunking",
    ),
    Workload(
        "k3n1_both_real",
        dict(K=3, n=1, scheme="both", channel_model="real", **_GRID_0_60_10),
        trials=12, workers=1,
        why="the CF leg dominates and gf runs thousands of tiny 3x3 ranks",
    ),
    Workload(
        "k3n2_snc_complex",
        dict(K=3, n=2, scheme="snc", channel_model="complex", **_GRID_0_60_10),
        trials=6, workers=1,
        why="gf solves 63x33 systems and per_link_rates is heavy; CF does not "
            "run, so a CF change must not move it",
    ),
    Workload(
        "k2n10_snc_uncapped",
        dict(K=2, n=10, scheme="snc", channel_model="complex", cap_enabled=False,
             snr_start=40.0, snr_stop=60.0, snr_step=5.0),
        trials=40, workers=1,
        why="degenerate-draw path: about half of evaluations abort after 3 "
            "resamples (failed_frac 0.48 in bench/baseline.json), so channel "
            "draws, precoders and rank checks dominate",
    ),
)}
