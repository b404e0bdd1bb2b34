"""Command-line entry point.

Subcommands::

    nltrans generate --config experiment.yaml
    nltrans learn    --config experiment.yaml [--tt 36] [--model nonlocal]
    nltrans predict  --config experiment.yaml
    nltrans report   --config experiment.yaml
    nltrans sweep    --config experiment.yaml

Exit codes: 0 success, else ``errors.EXIT_CODES``: 2 configuration error,
3 numerical failure, 4 missing or malformed artifact or one built from other
settings.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import EXIT_CODES
from .experiment import (
    run_generate, run_learn_split, run_predict, run_report, run_sweep,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nltrans",
        description="Coarse-grained nonlocal transport experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("generate", "solve the flow, track particles, write the dataset"),
        ("learn", "fit the configured models on the training window"),
        ("predict", "forward-solve fitted models and tabulate misfits"),
        ("report", "summarize fits and misfits into report.json"),
        ("sweep", "learn+predict over the configured (tt, model) grid"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True,
                         help="path to the experiment YAML config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the experiment seed")
        cmd.add_argument("--tt", type=float, default=None,
                         help="override the training-window length")
        cmd.add_argument("--model", default=None,
                         help="restrict learning to a single model")
        cmd.add_argument("--out", default=None,
                         help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # an option left unset is None, which overrides nothing
        cfg = load_config(args.config, {key: getattr(args, key) for key in
                                        ("seed", "tt", "model", "out")})
        if args.command == "generate":
            out = run_generate(cfg)
            print(f"generate: dataset written to {out}")
        elif args.command == "learn":
            out = run_learn_split(cfg)
            print(f"learn: fitted {', '.join(cfg.models)} in {out}")
        elif args.command == "predict":
            out = run_predict(cfg)
            print(f"predict: misfit table written to {out / 'mse_table.csv'}")
        elif args.command == "report":
            out = run_report(cfg)
            print(f"report: summary written to {out / 'report.json'}")
        elif args.command == "sweep":
            out = run_sweep(cfg)
            print(f"sweep: job outputs under {out}")
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES.items()
                    if isinstance(exc, error))
    return 0


if __name__ == "__main__":
    sys.exit(main())
