"""Command-line entry point for SNR sweep experiments."""

from __future__ import annotations

import argparse
import sys

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
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad antenna list {text!r}")
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError("antenna counts must be >= 1")
    return values


def _snr_spec(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("SNR spec must be start:stop:step (dB)")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad SNR spec {text!r}")
    return start, stop, step


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="snc-sim",
        description="Monte Carlo sum-rate sweeps for signal-aligned network "
                    "coding vs compute-and-forward in K-user interference "
                    "channels with limited receiver cooperation.",
    )
    p.add_argument("--users", type=int, default=2, metavar="K",
                   help="number of transmitters (default 2)")
    p.add_argument("--rx", type=int, default=None, metavar="L",
                   help="number of receivers (default: same as --users)")
    p.add_argument("--antennas-tx", type=_antenna_list, default=None,
                   metavar="LIST", help="comma-separated antennas per transmitter")
    p.add_argument("--antennas-rx", type=_antenna_list, default=None,
                   metavar="LIST", help="comma-separated antennas per receiver")
    p.add_argument("--ext-n", type=int, default=2, metavar="n",
                   help="symbol-extension parameter (default 2)")
    p.add_argument("--scheme", choices=("snc", "cf", "both"), default="both")
    p.add_argument("--channel", choices=("real", "complex"), default="real")
    p.add_argument("--field-size", type=int, default=2, metavar="q")
    p.add_argument("--snr", type=_snr_spec, default=(0.0, 60.0, 5.0),
                   metavar="START:STOP:STEP",
                   help="SNR grid in dB (default 0:60:5); write a negative start "
                        "with '=', as --snr=-10:0:5, or it is read as an option")
    p.add_argument("--trials", type=int, default=1000, metavar="T")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--cf-radius", type=int, default=3, metavar="R",
                   help="max-norm bound of the coefficient search")
    p.add_argument("--no-backhaul-cap", action="store_true",
                   help="disable the per-stream cooperation-link cap")
    p.add_argument("--out", default="sweep.csv", metavar="PATH",
                   help="output CSV path (JSON sidecar written next to it)")
    return p


def parse_cli(argv=None) -> SimConfig:
    args = build_parser().parse_args(argv)
    start, stop, step = args.snr
    cfg = SimConfig(
        K=args.users,
        L=args.rx,
        tx_antennas=args.antennas_tx,
        rx_antennas=args.antennas_rx,
        n=args.ext_n,
        scheme=args.scheme,
        channel_model=args.channel,
        q=args.field_size,
        snr_start=start,
        snr_stop=stop,
        snr_step=step,
        trials=args.trials,
        seed=args.seed,
        cf_radius=args.cf_radius,
        cap_enabled=not args.no_backhaul_cap,
        out_path=args.out,
    )
    try:
        cfg.validate()
        worker_count()  # a bad SNCSIM_WORKERS is a usage error too
    except ConfigError as exc:
        print(f"snc-sim: error: {exc}", file=sys.stderr)
        sys.exit(USAGE_EXIT)
    return cfg


def main(argv=None) -> int:
    cfg = parse_cli(argv)
    res = run_sweep(cfg)
    try:
        csv_path, json_path = write_results(res, cfg, cfg.out_path)
    except OSError as exc:
        print(f"snc-sim: I/O error: {exc}", file=sys.stderr)
        return IO_EXIT
    if res.warning:
        print(f"warning: {res.warning}", file=sys.stderr)
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
