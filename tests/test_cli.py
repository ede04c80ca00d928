"""CLI: exit codes, artifacts, and the train -> eval -> reconstruct round trip."""

from pathlib import Path

import pytest

from mvx.cli import main
from mvx.data import MultiViewBatch, read_dataset, write_dataset

from helpers import corrupt_first_moment_size

CONFIGS = Path(__file__).parent.parent / "configs"
FIXTURES = Path(__file__).parent / "fixtures"


def _write_config(tmp_path, name="mvae", extra=()):
    cfg = tmp_path / "model.cfg"
    lines = [
        f"model.name = {name}",
        "model.z_dim = 4",
        "model.seed = 1",
        "encoder.default.hidden_layer_dim = [8]",
        "decoder.default.hidden_layer_dim = [8]",
        "trainer.max_epochs = 3",
        "trainer.batch_size = 16",
    ]
    lines.extend(extra)
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


def _gen_data(tmp_path, name="train.mvds", samples=48):
    out = tmp_path / name
    rc = main([
        "gen-data", "--out", str(out), "--classes", "3", "--samples", str(samples),
        "--dims", "5,4", "--background-noise", "0.3", "--seed", "2",
    ])
    assert rc == 0
    return out


def test_gen_data_writes_readable_dataset(tmp_path):
    path = _gen_data(tmp_path)
    batch = read_dataset(path)
    assert batch.n_views == 2
    assert batch.n_samples == 48
    assert batch.labels is not None


def test_gen_data_rejects_a_dims_entry_that_is_not_an_integer(tmp_path, capsys):
    out = tmp_path / "bad.mvds"
    assert main(["gen-data", "--out", str(out), "--dims", "5,4.5"]) == 1
    assert capsys.readouterr().err.strip() == "error: --dims: expected an integer, got '4.5'"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--samples", "0"),
    ("--classes", "0"),
    ("--dims", "2"),  # below --classes
    ("--dims", ","),
    ("--style-noise", "-1"),
    ("--style-noise", "nan"),
    ("--background-noise", "-0.5"),
    ("--background-noise", "inf"),
])
def test_gen_data_refuses_a_bad_flag_by_name_and_exits_1(tmp_path, capsys, flag, value):
    out = tmp_path / "bad.mvds"
    argv = ["gen-data", "--out", str(out), "--classes", "3", "--dims", "5,4", flag, value]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


def test_validate_config_exit_codes(tmp_path, capsys):
    good = _write_config(tmp_path)
    assert main(["validate-config", "--config", str(good)]) == 0
    for fixture in sorted(FIXTURES.glob("neg_*.cfg")):
        assert main(["validate-config", "--config", str(fixture)]) == 1, fixture.name
    for fixture in sorted(FIXTURES.glob("pos_*.cfg")):
        assert main(["validate-config", "--config", str(fixture)]) == 0, fixture.name


def test_validate_all_shipped_configs():
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        assert main(["validate-config", "--config", str(cfg)]) == 0, cfg.name


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.stem)
def test_every_shipped_config_trains_on_gen_data_output(tmp_path, config):
    data = tmp_path / "train.mvds"
    assert main(["gen-data", "--out", str(data), "--samples", "300"]) == 0
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data), "--out", str(out),
                 "--epochs", "1"]) == 0
    assert (out / "checkpoint.mvxc").exists()


@pytest.mark.parametrize("extra, message", [
    (["decoder.default.distribution = Categorical"],
     "error: view 0 row 0: Categorical targets must be non-negative"),
    (["decoder.default.distribution = Bernoulli"],
     "error: view 0 row 0: Bernoulli targets must be in [0, 1]"),
], ids=["Categorical", "Bernoulli"])
def test_train_on_targets_outside_the_support_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                          extra, message):
    cfg = _write_config(tmp_path, extra=extra)
    data = _gen_data(tmp_path)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_train_writes_artifacts(tmp_path):
    cfg = _write_config(tmp_path)
    data = _gen_data(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)])
    assert rc == 0
    assert (out / "checkpoint.mvxc").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "resolved.cfg").exists()


def test_train_cli_epoch_override_wins(tmp_path):
    cfg = _write_config(tmp_path)
    data = _gen_data(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--data", str(data),
               "--out", str(out), "--epochs", "1"])
    assert rc == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    epochs = {line.split(",")[0] for line in metrics[1:]}
    assert epochs == {"1"}
    resolved = (out / "resolved.cfg").read_text()
    assert "trainer.max_epochs = 1" in resolved


@pytest.mark.parametrize("flag, value, message", [
    ("--batch-size", "0", "error: trainer.batch_size: must be >= 1"),
    ("--epochs", "-1", "error: trainer.max_epochs: must be >= 0"),
])
def test_train_rejects_an_invalid_override(tmp_path, capsys, flag, value, message):
    cfg = _write_config(tmp_path)
    data = _gen_data(tmp_path)
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out),
               flag, value])
    assert rc == 1
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


def test_train_invalid_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.name = mvae\nmodel.z_dim = 4\nmodel.learning_rate = 1.5\n")
    data = _gen_data(tmp_path)
    rc = main(["train", "--config", str(bad), "--data", str(data),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "model.learning_rate" in capsys.readouterr().err


def test_a_key_the_model_does_not_read_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, extra=["model.K = 7"])
    data = _gen_data(tmp_path)
    message = "model.K: model 'mvae' does not use this key"
    capsys.readouterr()
    assert main(["validate-config", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.strip() == f"invalid: {message}"
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()


def test_train_missing_data_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "nope.mvds"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "nope.mvds" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-data", "validate-config", "train"])
def test_a_directory_given_for_a_file_exits_2_without_traceback(tmp_path, capsys, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "gen-data": ["gen-data", "--out", str(folder), "--seed", "2"],
        "validate-config": ["validate-config", "--config", str(folder)],
        "train": ["train", "--config", str(_write_config(tmp_path)), "--data", str(folder),
                  "--out", str(tmp_path / "run")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err
    assert "Traceback" not in err


def test_eval_loglik_and_coherence_round_trip(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    train = _gen_data(tmp_path, "train.mvds")
    test = _gen_data(tmp_path, "test.mvds", samples=30)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(train),
                 "--out", str(out)]) == 0
    rc = main(["eval", "--run", str(out), "--data", str(test),
               "--metric", "loglik", "--K", "32"])
    assert rc == 0
    assert (out / "loglik.csv").exists()
    rc = main(["eval", "--run", str(out), "--data", str(test),
               "--metric", "coherence", "--probe-data", str(train)])
    assert rc == 0
    lines = (out / "coherence.csv").read_text().splitlines()
    assert lines[0] == "subset_size,accuracy"
    assert len(lines) == 3  # sizes 1 and 2


def test_eval_unsupported_metric_exits_1(tmp_path, capsys, monkeypatch):
    def no_probe(*args, **kwargs):
        raise AssertionError("a probe was trained")

    # both refusals come before any probe is trained
    monkeypatch.setattr("mvx.cli.train_probe_classifier", no_probe)
    for name, dims, message in [
            ("dvcca", "5,4", "model 'dvcca' does not support subset encoding"),
            ("mvae", ",".join(["3"] * 11),
             "has 11 views, more than pooling.MAX_SUBSET_MODALITIES = 10")]:
        cfg = _write_config(tmp_path, name=name)
        train = tmp_path / f"{name}.mvds"
        assert main(["gen-data", "--out", str(train), "--classes", "3", "--samples", "48",
                     "--dims", dims, "--seed", "2"]) == 0
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--data", str(train),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--run", str(out), "--data", str(train),
                   "--metric", "coherence"])
        assert rc == 1
        assert message in capsys.readouterr().err


def test_eval_coherence_with_unlabelled_probe_data_exits_2(tmp_path, capsys, monkeypatch):
    def no_probe(*args, **kwargs):
        raise AssertionError("a probe was trained")

    monkeypatch.setattr("mvx.cli.train_probe_classifier", no_probe)
    cfg = _write_config(tmp_path)
    train = _gen_data(tmp_path)
    unlabelled = tmp_path / "unlabelled.mvds"
    write_dataset(unlabelled, MultiViewBatch(views=read_dataset(train).views))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(train),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["eval", "--run", str(out), "--data", str(train), "--metric", "coherence",
               "--probe-data", str(unlabelled)])
    assert rc == 2
    assert capsys.readouterr().err == "error: probe data has no labels\n"
    assert not (out / "coherence.csv").exists()


def test_eval_on_data_with_another_view_count_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    train = tmp_path / "three.mvds"
    assert main(["gen-data", "--out", str(train), "--classes", "3", "--samples", "48",
                 "--dims", "5,4,3", "--seed", "2"]) == 0
    test = _gen_data(tmp_path, "test.mvds", samples=30)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(train),
                 "--out", str(out)]) == 0
    for metric, caller in (("loglik", "joint_log_likelihood"), ("coherence", "coherence")):
        capsys.readouterr()
        rc = main(["eval", "--run", str(out), "--data", str(test), "--metric", metric,
                   "--probe-data", str(train)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.strip() == f"error: {caller}: data dims [5, 4] vs model [5, 4, 3]"


@pytest.mark.parametrize("k", ["0", "-5"])
def test_eval_refuses_a_sample_count_below_one_before_loading_the_run(tmp_path, capsys, k):
    # the run does not exist: the refusal comes before it would be loaded
    rc = main(["eval", "--run", str(tmp_path / "no-run"), "--data", str(tmp_path / "x.mvds"),
               "--metric", "loglik", "--K", k])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: --K: must be >= 1, got {k}"


def test_eval_corrupt_checkpoint_exits_without_traceback(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    train = _gen_data(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(train),
                 "--out", str(out)]) == 0
    offset = corrupt_first_moment_size(out / "checkpoint.mvxc")
    capsys.readouterr()
    rc = main(["eval", "--run", str(out), "--data", str(train), "--metric", "loglik"])
    err = capsys.readouterr().err
    assert rc != 0
    assert "Traceback" not in err
    assert "m size" in err and f"byte {offset}" in err


def test_reconstruct_grid_and_manifest(tmp_path):
    cfg = _write_config(tmp_path)
    train = _gen_data(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(train),
                 "--out", str(out)]) == 0
    rec_dir = tmp_path / "recon"
    rc = main(["reconstruct", "--run", str(out), "--data", str(train),
               "--out", str(rec_dir)])
    assert rc == 0
    manifest = (rec_dir / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "source,target,file"
    # mvae: 2 modalities + joint source, 2 decoders -> 6 files
    assert len(manifest) == 7
    sources = {row.split(",")[0] for row in manifest[1:]}
    assert sources == {"0", "1", "joint"}
    for row in manifest[1:]:
        fname = row.split(",")[2]
        batch = read_dataset(rec_dir / fname)
        assert batch.n_samples == 48


def test_reconstruct_names_the_joint_row_after_the_encoders_of_dvcca(tmp_path):
    # dvcca has one (reference) encoder over 2 views: its second row is its
    # joint, which is the reference encoder's posterior
    cfg = _write_config(tmp_path, name="dvcca")
    train = _gen_data(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(train),
                 "--out", str(out)]) == 0
    rec_dir = tmp_path / "recon"
    assert main(["reconstruct", "--run", str(out), "--data", str(train),
                 "--out", str(rec_dir)]) == 0
    manifest = (rec_dir / "manifest.csv").read_text().splitlines()
    assert manifest[1:] == [f"{src},{t},recon_src{src}_dec{t}.mvds"
                            for src in ("0", "joint") for t in (0, 1)]
    for t in (0, 1):
        joint = (rec_dir / f"recon_srcjoint_dec{t}.mvds").read_bytes()
        assert joint == (rec_dir / f"recon_src0_dec{t}.mvds").read_bytes()


def test_reconstruct_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    train = _gen_data(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--data", str(train), "--out", str(out)])
    dirs = []
    for i in range(2):
        rec = tmp_path / f"rec{i}"
        main(["reconstruct", "--run", str(out), "--data", str(train),
              "--out", str(rec)])
        dirs.append(rec)
    for f in dirs[0].glob("*.mvds"):
        assert f.read_bytes() == (dirs[1] / f.name).read_bytes()


def test_unknown_flag_rejected(capsys):
    rc = main(["train", "--config", "x", "--data", "y", "--out", "z", "--bogus"])
    assert rc == 1


def test_env_seed_lowest_precedence(tmp_path, monkeypatch):
    data = _gen_data(tmp_path)
    cfg = tmp_path / "noseed.cfg"
    cfg.write_text("\n".join([
        "model.name = mvae",
        "model.z_dim = 2",
        "trainer.max_epochs = 1",
        "trainer.batch_size = 16",
    ]) + "\n")
    monkeypatch.setenv("MVX_SEED", "77")
    out = tmp_path / "env_run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    assert "model.seed = 77" in (out / "resolved.cfg").read_text()
    # explicit --seed wins over the env var
    out2 = tmp_path / "cli_run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out2), "--seed", "5"]) == 0
    assert "model.seed = 5" in (out2 / "resolved.cfg").read_text()


def test_seed_wins_over_a_drawn_seed(tmp_path):
    data = _gen_data(tmp_path)
    # sets model.seed too, as the resolved.cfg of a drawn-seed run did
    cfg = _write_config(tmp_path, extra=["model.seed_everything = false"])
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out), "--seed", "5"]) == 0
    resolved = (outs[0] / "resolved.cfg").read_text()
    assert "model.seed = 5" in resolved and "model.seed_everything = true" in resolved
    assert (outs[0] / "metrics.csv").read_text() == (outs[1] / "metrics.csv").read_text()


@pytest.mark.parametrize("source, value", [
    ("MVX_SEED", "seven"), ("MVX_SEED", "-3"), ("--seed", "-1"), ("--seed", str(2**32)),
])
def test_train_rejects_an_invalid_seed(tmp_path, monkeypatch, capsys, source, value):
    data = _gen_data(tmp_path)
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    argv = ["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]
    if source == "MVX_SEED":
        monkeypatch.setenv("MVX_SEED", value)
    else:
        argv += ["--seed", value]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert source in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_gen_data_seed_defaults_to_env_seed(tmp_path, monkeypatch):
    explicit = tmp_path / "explicit.mvds"
    assert main(["gen-data", "--out", str(explicit), "--samples", "20", "--seed", "9"]) == 0
    monkeypatch.setenv("MVX_SEED", "9")
    from_env = tmp_path / "env.mvds"
    assert main(["gen-data", "--out", str(from_env), "--samples", "20"]) == 0
    assert from_env.read_bytes() == explicit.read_bytes()
