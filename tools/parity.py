"""Compare this tree's outputs with those of another revision or checkout.

    python tools/parity.py --against REV_OR_DIR

REV_OR_DIR is a git revision, exported into a temporary directory that is
removed afterwards, or the directory of another checkout (see
`tools/checkout.py`). Both trees then run one fixed list of variants, each
tree in its own subprocess that imports that tree's `src/mvx`. Every variant
trains a small model for 2 epochs and records:

- the history, `metrics.csv`, `resolved.cfg` and the checkpoint (its bytes
  and each parameter);
- the `predict_latent` and `predict_reconstruction` arrays;
- coherence by subset size, and the K=13 joint log-likelihood (or the error
  that either raises);
- a `load_run` + `continue_fit` resume of one more epoch;
- the graph nodes that the fit builds.

For each variant and artefact it prints "identical", or the largest absolute
and relative difference and the first entry that differs. It exits 1 when
any artefact differs.
"""

from __future__ import annotations

import argparse
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from checkout import checkout

ROOT = Path(__file__).resolve().parents[1]

MODELS = ["ae", "jmvae", "dccae", "dvcca", "mcvae", "mvae", "me_mvae", "mmvae", "mvtcae",
          "mopoe", "weighted_mvae", "mmjsd", "mmvaeplus", "dmvae", "maae", "mwae"]

# (variant, model, config keys beyond the base ones)
VARIANTS = [(name, name, {}) for name in MODELS] + [
    ("dvcca-private", "dvcca", {"model.private": True}),
    ("mcvae-mean", "mcvae", {"model.join_type": "Mean"}),
    ("mcvae-sparse", "mcvae", {"model.sparse": True, "model.threshold": 0.2}),
    ("mopoe-stochastic", "mopoe", {"model.stochastic_subsets": True}),
    ("mmjsd-pi", "mmjsd", {"model.pi": [0.1, 0.2, 0.3, 0.4]}),
    ("dmvae-lambda", "dmvae", {"model.lambda": [0.5, 1.0, 2.0]}),
    ("mvtcae-alpha", "mvtcae", {"model.alpha": 0.3}),
    ("maae-non-saturating", "maae", {"model.non_saturating": True}),
    ("mwae-2-critic-steps", "mwae", {"trainer.critic_steps": 2}),
    ("mmvae-K3", "mmvae", {"model.K": 3}),
    # Bernoulli stays out: the synthetic views do not lie in [0, 1]
    ("mvae-laplace", "mvae", {"decoder.default.distribution": "Laplace"}),
    ("mvae-categorical", "mvae", {"decoder.default.distribution": "Categorical"}),
]

ARTEFACTS = ["history", "metrics.csv", "resolved.cfg", "checkpoint", "predict_latent",
             "predict_reconstruction", "coherence", "loglik", "resume", "graph_nodes"]


def _config(mvx, model: str, extra: dict):
    spec = mvx.objectives.MODEL_SPECS[model]
    flat = {"model.name": model, "model.z_dim": 2, "trainer.max_epochs": 2,
            "encoder.default.hidden_layer_dim": [8], "decoder.default.hidden_layer_dim": [8],
            **extra}
    if spec.private or flat.get("model.private"):
        flat["model.s_dim"] = 2
    if not spec.full_batch:  # a full-batch model does not read the batch size
        flat["trainer.batch_size"] = 16
    return mvx.config.build_config(flat)


def _or_error(mvx, read):
    """`read()`, or the text of the toolkit error that it raises."""
    try:
        return read()
    except mvx.MvxError as err:
        return f"{type(err).__name__}: {err}"


def _history(history: list[dict[str, float]]) -> dict[str, np.ndarray]:
    return {term: np.array([epoch[term] for epoch in history]) for term in history[0]}


def _checkpoint(run, path: Path) -> dict[str, object]:
    out: dict[str, object] = {"bytes": path.read_bytes()}
    out.update((name, p.data.copy()) for name, p in run.state.parameters())
    return out


def _capture_variant(mvx, model: str, extra: dict, work: Path) -> dict[str, dict]:
    nc = mvx.numcore
    n_views = mvx.objectives.MODEL_SPECS[model].n_views or 3
    data = mvx.data.generate_synthetic(mvx.data.SyntheticSpec(
        n_classes=3, n_samples=48, dims=[4, 3, 5][:n_views], style_noise=0.1, seed=0))
    cfg = _config(mvx, model, extra)

    nodes = 0
    make = nc._make

    def counting_make(*args, **kwargs):
        nonlocal nodes
        out = make(*args, **kwargs)
        nodes += out.requires_grad
        return out

    nc._make = counting_make
    try:
        run = mvx.training.fit(cfg, data, out_dir=work / "run")
    finally:
        nc._make = make

    latent = mvx.training.predict_latent(run, data)
    arrays = {"per_modality": latent.per_modality,
              "joint": [] if latent.joint is None else [latent.joint],
              "private": latent.private or [], "kept_masks": latent.kept_masks or []}
    grid = mvx.training.predict_reconstruction(run, data)
    probes = [mvx.evaluation.train_probe_classifier(v, data.labels, epochs=5)
              for v in data.views]
    coherence = _or_error(mvx, lambda: mvx.evaluation.coherence(run, data, probes).per_size)
    loglik = _or_error(mvx, lambda: mvx.evaluation.joint_log_likelihood(run, data, K=13))

    resumed = mvx.training.load_run(work / "run")
    mvx.training.continue_fit(resumed, data, 1, out_dir=work / "resume")
    return {
        "history": _history(run.history),
        "metrics.csv": {"text": (work / "run" / "metrics.csv").read_text()},
        "resolved.cfg": {"text": (work / "run" / "resolved.cfg").read_text()},
        "checkpoint": _checkpoint(run, work / "run" / "checkpoint.mvxc"),
        "predict_latent": {f"{key}[{i}]": a for key, items in arrays.items()
                           for i, a in enumerate(items)},
        "predict_reconstruction": {f"[{s}][{t}]": a for s, row in enumerate(grid)
                                   for t, a in enumerate(row)},
        "coherence": ({"error": coherence} if isinstance(coherence, str) else
                      {f"size {k}": np.array(v) for k, v in sorted(coherence.items())}),
        "loglik": {"error": loglik} if isinstance(loglik, str) else {"nats": np.array(loglik)},
        "resume": {"metrics.csv": (work / "resume" / "metrics.csv").read_text(),
                   **{f"history/{k}": v for k, v in _history(resumed.history).items()},
                   **{f"checkpoint/{k}": v for k, v in
                      _checkpoint(resumed, work / "resume" / "checkpoint.mvxc").items()}},
        "graph_nodes": {"fit": np.array(nodes)},
    }


def capture(names: list[str] | None = None) -> dict[str, dict[str, dict]]:
    """Each variant's artefacts (all variants when `names` is None), from the
    `mvx` package that is importable now."""
    import mvx

    chosen = [v for v in VARIANTS if names is None or v[0] in names]
    out = {}
    with tempfile.TemporaryDirectory(prefix="mvx-parity-") as tmp:
        for variant, model, extra in chosen:
            work = Path(tmp) / variant
            work.mkdir()
            out[variant] = _capture_variant(mvx, model, extra, work)
    return out


def _diff(a, b) -> tuple[float, float] | str | None:
    """None when `a` and `b` are equal; else (max abs, max rel) difference of
    two numeric arrays of one shape, or a description of how they differ."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape or a.dtype != b.dtype:
            return f"{a.dtype}{a.shape} vs {b.dtype}{b.shape}"
        if a.tobytes() == b.tobytes():
            return None
        if a.dtype == bool:
            return f"{int(np.sum(a != b))} entries differ"
        x, y = a.astype(np.float64), b.astype(np.float64)
        delta = np.abs(x - y)
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(delta, scale, out=np.zeros_like(delta), where=scale > 0)
        return float(np.nanmax(delta)), float(np.nanmax(rel))
    if type(a) is not type(b):
        return f"{type(a).__name__} vs {type(b).__name__}"
    if a == b:
        return None
    if isinstance(a, (str, bytes)):
        first = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
        return f"differs from offset {first}"
    return "differs"


def compare(ours: dict, theirs: dict) -> list[tuple[str, str, str]]:
    """(variant, artefact, report) for every variant and artefact of either capture."""
    report = []
    for variant in sorted(ours.keys() | theirs.keys(), key=[v[0] for v in VARIANTS].index):
        for artefact in ARTEFACTS:
            a = ours.get(variant, {}).get(artefact)
            b = theirs.get(variant, {}).get(artefact)
            if a is None or b is None:
                report.append((variant, artefact, "missing in one tree"))
                continue
            diffs = {key: _diff(a.get(key), b.get(key)) for key in sorted(a.keys() | b.keys())}
            diffs = {key: d for key, d in diffs.items() if d is not None}
            if not diffs:
                report.append((variant, artefact, "identical"))
                continue
            numeric = [d for d in diffs.values() if isinstance(d, tuple)]
            first, what = next(iter(diffs.items()))
            text = f"{len(diffs)} of {len(a.keys() | b.keys())} differ, first {first}"
            if numeric:
                text += (f"; max abs diff {max(d[0] for d in numeric):.3g}, "
                         f"max rel diff {max(d[1] for d in numeric):.3g}")
            if isinstance(what, str):
                text += f" ({what})"
            report.append((variant, artefact, text))
    return report


def _capture_tree(src: Path, out: Path) -> None:
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--capture", str(out),
                    "--src", str(src)], check=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against",
                        help="the git revision or checkout directory to compare this tree with")
    # internal: capture the tree whose package is in --src into the file --capture
    parser.add_argument("--capture", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.capture:
        sys.path.insert(0, args.src)
        with open(args.capture, "wb") as fh:
            pickle.dump(capture(), fh)
        return 0
    if not args.against:
        parser.error("--against REV_OR_DIR is required")

    with tempfile.TemporaryDirectory(prefix="mvx-parity-") as tmp:
        with checkout(args.against) as base:
            _capture_tree(base / "src", Path(tmp) / "theirs.pkl")
        _capture_tree(ROOT / "src", Path(tmp) / "ours.pkl")
        with open(Path(tmp) / "ours.pkl", "rb") as fh:
            ours = pickle.load(fh)
        with open(Path(tmp) / "theirs.pkl", "rb") as fh:
            theirs = pickle.load(fh)

    report = compare(ours, theirs)
    width = max(len(v) for v, _, _ in report)
    for variant, artefact, text in report:
        print(f"{variant:<{width}}  {artefact:<22}  {text}")
    differing = sum(text != "identical" for _, _, text in report)
    print(f"{len(report) - differing} of {len(report)} identical against {args.against}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
