"""Command-line entry point for SNR sweep experiments."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import ConfigError, SimConfig, run_sweep, worker_count, write_results

USAGE_EXIT = 1
IO_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # usage problems exit with status 1 (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _antenna_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad antenna list {text!r}")


def _snr_spec(text: str) -> tuple[float, float, float]:
    try:
        start, stop, step = map(float, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad SNR spec {text!r}: it must be "
                                         "start:stop:step (dB)") from None
    return start, stop, step


def build_parser() -> argparse.ArgumentParser:
    """The parser.  Each option stores into the SimConfig field it sets,
    and only when given, so every default lives in SimConfig alone."""
    p = _Parser(
        prog="snc-sim",
        description="Monte Carlo sum-rate sweeps for signal-aligned network "
                    "coding vs compute-and-forward in K-user interference "
                    "channels with limited receiver cooperation.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--users", dest="K", type=int, metavar="K",
                   help=f"number of transmitters (default {SimConfig.K})")
    p.add_argument("--rx", dest="L", type=int, metavar="L",
                   help="number of receivers (default: same as --users)")
    p.add_argument("--antennas-tx", dest="tx_antennas", type=_antenna_list,
                   metavar="LIST", help="comma-separated antennas per transmitter")
    p.add_argument("--antennas-rx", dest="rx_antennas", type=_antenna_list,
                   metavar="LIST", help="comma-separated antennas per receiver")
    p.add_argument("--ext-n", dest="n", type=int, metavar="n",
                   help=f"symbol-extension parameter (default {SimConfig.n})")
    p.add_argument("--scheme", choices=("snc", "cf", "both"))
    p.add_argument("--channel", dest="channel_model", choices=("real", "complex"))
    p.add_argument("--field-size", dest="q", type=int, metavar="q")
    p.add_argument("--snr", type=_snr_spec, metavar="START:STOP:STEP",
                   help=f"SNR grid in dB (default {SimConfig.snr_start:g}:"
                        f"{SimConfig.snr_stop:g}:{SimConfig.snr_step:g}); write a "
                        "negative start with '=', as --snr=-10:0:5, or it is "
                        "read as an option")
    p.add_argument("--trials", type=int, metavar="T")
    p.add_argument("--seed", type=int, metavar="S")
    p.add_argument("--cf-radius", dest="cf_radius", type=int, metavar="R",
                   help="max-norm bound of the coefficient search")
    p.add_argument("--no-backhaul-cap", dest="cap_enabled", action="store_false",
                   help="disable the per-stream cooperation-link cap")
    p.add_argument("--out", dest="out_path", metavar="PATH",
                   help="output CSV path (JSON sidecar written next to it)")
    return p


def parse_cli(argv=None) -> SimConfig:
    """The config the arguments ask for.  A config SimConfig rejects, a bad
    SNCSIM_WORKERS, or an --out whose CSV or JSON sidecar cannot be opened
    for appending (which creates a missing file and truncates nothing) is a
    usage error, raised before any trial runs."""
    given = vars(build_parser().parse_args(argv))
    if "snr" in given:
        given["snr_start"], given["snr_stop"], given["snr_step"] = given.pop("snr")
    try:
        cfg = SimConfig(**given)
        worker_count()
        with open(cfg.out_path, "a"), open(Path(cfg.out_path).with_suffix(".json"), "a"):
            pass
    except (ConfigError, OSError) as exc:
        print(f"snc-sim: error: {exc}", file=sys.stderr)
        sys.exit(USAGE_EXIT)
    return cfg


def main(argv=None) -> int:
    cfg = parse_cli(argv)
    res = run_sweep(cfg)
    try:
        csv_path, json_path = write_results(res, cfg)
    except OSError as exc:
        print(f"snc-sim: I/O error: {exc}", file=sys.stderr)
        return IO_EXIT
    if res.warning:
        print(f"warning: {res.warning}", file=sys.stderr)
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
