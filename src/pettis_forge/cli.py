"""Command-line entry point.

    pettis-forge psi validate --config cfg.json [--out r.csv] [--format csv|json]
    pettis-forge build --config cfg.json [--out archive.json]
    pettis-forge verify <kind> --config cfg.json [--out r.csv] [--seed N]
                        [--samples N] [--format csv|json]

Exit codes: 0 all assertions pass, 1 violations found, 2 usage or config
error.  All campaign randomness derives from the config seed (CLI --seed
overrides it), so identical invocations write byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import campaigns
from .campaigns import Report
from .carriers import FULL_SWEEP
from .config import (
    _require_sound,
    build_campaign_from_config,
    build_model_from_config,
    gauge_from_config,
    load_json,
    write_archive,
)
from .errors import ConfigError, PettisForgeError
from .pettis import PettisModel


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pettis-forge")
    sub = parser.add_subparsers(dest="command", required=True)

    psi = sub.add_parser("psi", help="gauge-function tools")
    psi_sub = psi.add_subparsers(dest="psi_command", required=True)
    psi_validate = psi_sub.add_parser("validate", help="run the growth certificate")
    _flags(psi_validate, "format")

    build = sub.add_parser("build", help="build a model archive")
    _flags(build)

    verify = sub.add_parser("verify", help="run a verification campaign")
    verify_sub = verify.add_subparsers(dest="campaign", required=True)
    for kind in campaigns.VERIFY_CAMPAIGNS:
        _flags(verify_sub.add_parser(kind, help=f"{kind} campaign"), "seed", "samples", "format")
    return parser


def _flags(p: argparse.ArgumentParser, *overrides: str) -> None:
    """``--config`` and ``--out``, plus the campaign overrides the subcommand reads."""
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--out", default=None, help="report/archive output path")
    if "seed" in overrides:
        p.add_argument("--seed", type=int, default=None, help="override the campaign seed")
    if "samples" in overrides:
        p.add_argument("--samples", type=int, default=None, help="override the sample count")
    if "format" in overrides:
        p.add_argument("--format", choices=("csv", "json"), default=None, help="report format")


def _campaign_config(obj: dict, kind: str, args: argparse.Namespace):
    cfg = build_campaign_from_config(obj.get("campaign") or {}, kind=kind)
    # a flag the subcommand does not take is absent from args, as if unset
    given = {key: getattr(args, key, None) for key in ("seed", "samples", "format", "out")}
    return replace(cfg, **{key: v for key, v in given.items() if v is not None})


def _emit(report: Report, cfg) -> int:
    """Write the report to ``cfg.out``, or alone on stdout with the summary
    lines on stderr, so that stdout parses as CSV or JSON.  Each chunk of the
    text is written as it is made; an unknown format fails before the file
    is opened."""
    chunks = report.render_chunks(cfg.format)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        summary = sys.stdout
    else:
        sys.stdout.writelines(chunks)
        summary = sys.stderr
    for line in report.summary_lines():
        print(line, file=summary)
    return 0 if report.passed else 1


def _run_psi_validate(args: argparse.Namespace) -> int:
    obj = load_json(args.config)
    model = obj.get("model") or {}
    if not isinstance(model, dict):
        raise ConfigError(f"psi validate model must be an object, got {model!r}")
    for key in ("n_max", "r_max"):
        if key in obj:
            raise ConfigError(f"{key} is not a setting: psi validate certifies the model's depth")
    # top-level psi, rule, p and depth override the model's; they are what the model builds with
    merged = {**model, **{key: obj[key] for key in ("psi", "rule", "p", "depth") if key in obj}}
    spec, rule, p, depth = gauge_from_config(merged)
    # a continuous model is built on the summability certificate, not on growth at p
    kind = str(model.get("kind", "pettis"))
    if kind not in ("pettis", "continuous"):
        raise ConfigError(f"unknown model kind {kind!r}")
    cfg = _campaign_config(obj, campaigns.PSI_VALIDATE, args)
    report = campaigns.run_psi_validate(spec, p, rule, depth, continuous=kind == "continuous")
    return _emit(report, cfg)


def _run_build(args: argparse.Namespace) -> int:
    obj = load_json(args.config)
    model_cfg = obj.get("model")
    if not isinstance(model_cfg, dict):
        raise ConfigError("build config needs a 'model' object")
    model = build_model_from_config(model_cfg)
    if isinstance(model, PettisModel):
        if model.carriers.sets is None:
            mode = _require_sound(model.carriers).mode
        else:  # build_model_from_config swept the explicit sets before building on them
            mode = FULL_SWEEP
        print(f"carriers ok: depth {model.depth}, scheme {model.carriers.scheme}, mode {mode}")
    out = args.out or "model-archive.json"
    write_archive(model, out)
    print(f"archive written to {out}")
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    obj = load_json(args.config)
    model_cfg = obj.get("model")
    if not isinstance(model_cfg, dict):
        raise ConfigError("verify config needs a 'model' object")
    model = build_model_from_config(model_cfg)
    cfg = _campaign_config(obj, args.campaign, args)
    return _emit(campaigns.run(model, cfg), cfg)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "psi":
            return _run_psi_validate(args)
        if args.command == "build":
            return _run_build(args)
        return _run_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PettisForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
