"""Command-line front door: train, eval, reconstruct, gen-data, validate-config.

Exit codes: 0 success, 1 usage/validation error or a metric the model does
not support, 2 runtime error. The env
var MVX_SEED acts as a lowest-precedence seed override.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import check_seed, load_config, parse_config_text
from .data import MultiViewBatch, SyntheticSpec, generate_synthetic, read_dataset, write_dataset
from .errors import ConfigError, MvxError, UnsupportedMetricError
from .evaluation import (
    _coherence_pool,
    coherence,
    coherence_csv,
    joint_log_likelihood,
    metric_csv,
    train_probe_classifier,
)
from .training import fit, load_run, predict_reconstruction


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config and dataset")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)
    p_train.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a trained run")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--metric", required=True, choices=["coherence", "loglik"])
    p_eval.add_argument("--K", type=int, default=1000)
    p_eval.add_argument("--probe-data", default=None,
                        help="labelled dataset for probe training (defaults to --data)")

    p_rec = sub.add_parser("reconstruct", help="write the reconstruction grid")
    p_rec.add_argument("--run", required=True)
    p_rec.add_argument("--data", required=True)
    p_rec.add_argument("--out", required=True)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--classes", type=int, default=8)
    p_gen.add_argument("--samples", type=int, default=2000)
    p_gen.add_argument("--dims", default="24,24,24",
                       help="comma-separated per-view dimensions")
    p_gen.add_argument("--style-noise", type=float, default=0.1)
    p_gen.add_argument("--background-noise", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=None,
                       help="defaults to MVX_SEED, else 0")

    p_val = sub.add_parser("validate-config", help="validate a config file")
    p_val.add_argument("--config", required=True)
    return parser


def _env_seed() -> int | None:
    raw = os.environ.get("MVX_SEED")
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"MVX_SEED: expected an integer, got {raw!r}") from None
    return check_seed(seed, "MVX_SEED")


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    env_seed = _env_seed()
    if env_seed is not None:
        explicit = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
        if "model.seed" not in explicit:
            cfg.seed = env_seed
    if args.seed is not None:
        # --seed wins over the config, a draw that it asks for included
        cfg.seed, cfg.seed_everything = check_seed(args.seed, "--seed"), True
    data = read_dataset(args.data)
    run = fit(cfg, data, max_epochs=args.epochs, batch_size=args.batch_size,
              out_dir=args.out)
    final = run.history[-1]["total"] if run.history else float("nan")
    print(f"trained {cfg.name} for {run.epoch} epochs; final total loss {final:.6g}")
    print(f"outputs in {args.out}: checkpoint.mvxc, metrics.csv, resolved.cfg")
    return 0


def _cmd_eval(args) -> int:
    run_dir = Path(args.run)
    run = load_run(run_dir)
    data = read_dataset(args.data)
    if args.metric == "loglik":
        value = joint_log_likelihood(run, data, K=args.K)
        metric_csv("joint_log_likelihood", value, run_dir / "loglik.csv")
        print(f"joint log-likelihood (K={args.K}): {value:.4f} nats")
        return 0
    _coherence_pool(run.state)  # refused before any probe is trained
    probe_data = read_dataset(args.probe_data or args.data)
    if probe_data.labels is None:
        print("error: probe data has no labels", file=sys.stderr)
        return 2
    probes = [
        train_probe_classifier(view, probe_data.labels, seed=run.cfg.seed)
        for view in probe_data.views
    ]
    report = coherence(run, data, probes)
    coherence_csv(report, run_dir / "coherence.csv")
    parts = ", ".join(f"|S|={s}: {v:.3f}" for s, v in sorted(report.per_size.items()))
    print(f"coherence accuracy: {parts}")
    return 0


def _cmd_reconstruct(args) -> int:
    run = load_run(args.run)
    data = read_dataset(args.data)
    grid = predict_reconstruction(run, data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = ["source,target,file"]
    n_sources = len(grid)
    joint_row = n_sources - 1 if n_sources > run.state.n_views else None
    for s, row in enumerate(grid):
        source = "joint" if s == joint_row else str(s)
        for t, recon in enumerate(row):
            fname = f"recon_src{source}_dec{t}.mvds"
            write_dataset(out_dir / fname, MultiViewBatch(views=[recon]))
            manifest.append(f"{source},{t},{fname}")
    (out_dir / "manifest.csv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(r) for r in grid)} reconstruction files to {out_dir}")
    return 0


def _dims(raw: str) -> list[int]:
    """The per-view dims that `--dims` lists, comma-separated."""
    dims = []
    for part in filter(str.strip, raw.split(",")):
        try:
            dims.append(int(part))
        except ValueError:
            raise ConfigError(f"--dims: expected an integer, got {part.strip()!r}") from None
    return dims


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        n_classes=args.classes,
        n_samples=args.samples,
        dims=_dims(args.dims),
        style_noise=args.style_noise,
        background_noise=args.background_noise,
        seed=check_seed(args.seed, "--seed") if args.seed is not None else (_env_seed() or 0),
    )
    batch = generate_synthetic(spec)
    write_dataset(args.out, batch)
    print(f"wrote {batch.n_samples} samples x {batch.n_views} views to {args.out}")
    return 0


def _cmd_validate_config(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"invalid: {err}", file=sys.stderr)
        return 1
    print(f"ok: model '{cfg.name}' with z_dim={cfg.z_dim}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "reconstruct": _cmd_reconstruct,
    "gen-data": _cmd_gen_data,
    "validate-config": _cmd_validate_config,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, UnsupportedMetricError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (MvxError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
