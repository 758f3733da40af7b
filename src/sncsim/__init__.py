"""Signal-aligned network coding simulator."""

__version__ = "0.1.0"

from .gf import PrimeField, gf_full_rank, gf_rank, gf_select_independent_rows, gf_solve
from .channel import (
    Topology,
    expand_mimo_to_virtual,
    sample_extended_channel,
    sample_noise,
    single_antenna,
)
from .snc import (
    EffectiveSystem,
    ExtensionPlan,
    build_filters,
    build_precoders,
    check_precoder_ranks,
    cp_recover,
    effective_system,
    extension_dims,
    pack_bits,
    theoretical_dof,
    verify_alignment,
)
from .phy import (
    end_to_end_sum_rate,
    estimate_dof_slope,
    filter_and_demodulate,
    link_rate,
    modulate_bpsk,
    per_link_rates,
    stream_gains,
    transmit,
)
from .cf_baseline import cf_computation_rate, cf_select_coeffs, cf_trial_sum_rate
from .harness import (
    SimConfig,
    SweepResult,
    run_sweep,
    run_trial,
    run_trials,
    write_results,
)
