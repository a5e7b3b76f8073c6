import json

import pytest

from baitradar.cli import main


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    code = run(["gen-data", "--n", "60", "--ratio", "0.5", "--seed", "7",
                "--out", str(d / "corpus.jsonl")])
    assert code == 0
    return d


# small-model config shared by the training commands
CFG = {
    "encoder": {"fusion_dim": 8, "embed_dim": 6, "conv_channels": [2, 3],
                "conv_kernel": 3, "thumb_size": 16, "stats_hidden": 6, "head_hidden": 6},
    "vocab_min_freq": 1,
    "batch_size": 8,
    "max_epochs": 3,
}


@pytest.fixture(scope="module")
def config_path(workdir):
    p = workdir / "config.json"
    p.write_text(json.dumps(CFG))
    return p


@pytest.fixture(scope="module")
def trained(workdir, config_path):
    out = workdir / "model.ckpt"
    code = run(["train", "--in", str(workdir / "corpus.jsonl"), "--seed", "7",
                "--config", str(config_path), "--out", str(out),
                "--report", str(workdir / "report.jsonl")])
    assert code == 0
    return out


def test_gen_data_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run(["gen-data", "--n", "20", "--seed", "9",
                    "--out", str(tmp_path / sub / "c.jsonl")]) == 0
    assert (tmp_path / "a/c.jsonl").read_bytes() == (tmp_path / "b/c.jsonl").read_bytes()


def test_gen_data_signal_overrides(tmp_path, capsys):
    code = run(["gen-data", "--n", "15", "--seed", "1", "--signals", "0.5",
                "--signal", "tags=1.0", "--out", str(tmp_path / "c.jsonl")])
    assert code == 0
    assert "15 records" in capsys.readouterr().out


def test_gen_data_bad_signal_exits_2(tmp_path):
    assert run(["gen-data", "--n", "15", "--seed", "1", "--signal", "bogus=1.0",
                "--out", str(tmp_path / "c.jsonl")]) == 2


def test_build_vocab(workdir, capsys):
    out = workdir / "vocab.txt"
    code = run(["build-vocab", "--in", str(workdir / "corpus.jsonl"), "--seed", "7",
                "--min-freq", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "<pad>\t0"
    assert lines[1] == "<unk>\t1"


def test_train_writes_checkpoint_and_report(trained, workdir):
    assert trained.exists()
    report_lines = (workdir / "report.jsonl").read_text().strip().split("\n")
    summary = json.loads(report_lines[-1])
    assert summary["stop_reason"] in ("loss_threshold", "patience", "max_epochs")
    assert "wall" not in report_lines[-1]


def test_train_deterministic_checkpoints(workdir, config_path, tmp_path):
    outs = []
    for name in ("m1.ckpt", "m2.ckpt"):
        out = tmp_path / name
        assert run(["train", "--in", str(workdir / "corpus.jsonl"), "--seed", "7",
                    "--config", str(config_path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_eval_prints_accuracy_and_latency(trained, workdir, capsys):
    code = run(["eval", "--model", str(trained), "--in", str(workdir / "corpus.jsonl"),
                "--split", "test", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    assert "latency" in out
    assert "confusion matrix" in out


def test_eval_missing_model_exits_2(workdir):
    assert run(["eval", "--model", str(workdir / "nope.ckpt"),
                "--in", str(workdir / "corpus.jsonl")]) == 2


def test_predict_jsonl_omits_absent_modalities(trained, workdir, tmp_path, capsys):
    records = [json.loads(line) for line in (workdir / "corpus.jsonl").read_text().splitlines()]
    rec = records[0]
    rec["comments"] = None
    rec["thumbnail"] = None
    single = tmp_path / "one.jsonl"
    single.write_text(json.dumps(rec) + "\n")
    code = run(["predict", "--model", str(trained), "--in", str(single)])
    assert code == 0
    obj = json.loads(capsys.readouterr().out.strip())
    assert "comments" not in obj["modalities_used"]
    assert "thumbnail" not in obj["modalities_used"]
    assert obj["label"] in ("clickbait", "non_clickbait")


def test_predict_single_record_flags(trained, capsys):
    code = run(["predict", "--model", str(trained), "--title", "SHOCKING secret EXPOSED",
                "--tags", "a,b,c", "--views", "100000"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out.strip())
    assert obj["id"] == "record0"
    assert set(obj["modalities_used"]) == {"title", "tags", "statistics"}


def test_predict_modalities_flag_restricts(trained, workdir, capsys):
    code = run(["predict", "--model", str(trained), "--in", str(workdir / "corpus.jsonl"),
                "--modalities", "title"])
    assert code == 0
    for line in capsys.readouterr().out.strip().splitlines():
        assert json.loads(line)["modalities_used"] == ["title"]


def test_sweep_requires_seed(workdir, tmp_path, capsys):
    assert run(["sweep", "--in", str(workdir / "corpus.jsonl"),
                "--out-dir", str(tmp_path)]) == 1


def test_sweep_writes_tables(workdir, config_path, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = run(["sweep", "--in", str(workdir / "corpus.jsonl"), "--seed", "7",
                "--config", str(config_path), "--combos", "title;title+tags",
                "--out-dir", str(out_dir), "--gnuplot"])
    assert code == 0
    csv = (out_dir / "sweep.csv").read_text()
    assert csv.splitlines()[0] == "combination,accuracy,epochs,checkpoint"
    assert len(csv.strip().splitlines()) == 4  # header + full set + 2 requested
    assert (out_dir / "sweep.json").exists()
    assert (out_dir / "sweep.dat").exists()
    assert len(list(out_dir.glob("*.ckpt"))) == 3


def test_grad_check_passes(capsys):
    assert run(["grad-check"]) == 0
    out = capsys.readouterr().out
    assert "dense" in out and "PASS" in out


def test_grad_check_strict_tolerance_fails(capsys):
    assert run(["grad-check", "--tol", "1e-12"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_unknown_subcommand_exits_1(capsys):
    assert run(["frobnicate"]) == 1


def test_unknown_flag_exits_1(capsys):
    assert run(["gen-data", "--n", "5", "--out", "x.jsonl", "--bogus"]) == 1


@pytest.mark.parametrize("text,named", [
    ('{"batch_size": 8, "bogus": 1}', "bogus"),
    ("[1, 2]", "JSON object"),
    ('{"encoder": {"fusion_dim": 8, "width": 3}}', "width"),
    ('{"encoder": [8]}', "encoder must be"),
    ('{"batch_size": ', "invalid JSON"),
    ('{"batch_size": "8"}', "'batch_size' must be int"),
    ('{"lr": "fast"}', "'lr' must be float"),
    ('{"patience": true}', "'patience' must be int"),
    ('{"modalities": "title"}', "'modalities' must be tuple"),
    ('{"modality_keep_prob": [0.5]}', "'modality_keep_prob' must be float | None"),
    ('{"encoder": {"conv_channels": [2]}}', "encoder field 'conv_channels'"),
    ('{"encoder": {"fusion_dim": 8.5}}', "encoder field 'fusion_dim' must be int"),
    ('{"encoder": {"fusion_dim": 0}}', "encoder field 'fusion_dim' must be >= 1"),
    ('{"encoder": {"pool_size": 0}}', "encoder field 'pool_size' must be >= 1"),
    ('{"encoder": {"thumb_size": 8}}', "encoder field 'thumb_size' 8 is too small"),
    ('{"encoder": {"conv_channels": [0, 4]}}', "encoder field 'conv_channels' must be >= 1"),
    ('{"encoder": {"embed_dim": -1}}', "encoder field 'embed_dim' must be >= 1"),
    ('{"batch_size": 0}', "field 'batch_size' must be >= 1"),
    pytest.param("[" * 100_000 + "]" * 100_000, "invalid JSON", id="deep-nesting"),
])
def test_malformed_config_exits_1_with_one_line(workdir, tmp_path, capsys, text, named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    code = run(["train", "--in", str(workdir / "corpus.jsonl"), "--out", str(tmp_path / "m"),
                "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and named in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value,named", [
    ("--batch-size", "0", "'batch_size' must be >= 1"),
    ("--fusion-dim", "0", "'fusion_dim' must be >= 1"),
    ("--regime", "individual", "exactly one modality"),
])
def test_invalid_training_flag_exits_1_with_one_line(workdir, tmp_path, capsys, flag, value,
                                                     named):
    code = run(["train", "--in", str(workdir / "corpus.jsonl"), "--out", str(tmp_path / "m"),
                flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and named in err and "Traceback" not in err


def test_deeply_nested_corpus_exits_2_with_one_line(trained, tmp_path, capsys):
    bad = tmp_path / "deep.jsonl"
    bad.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    assert run(["predict", "--model", str(trained), "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 1" in err


def test_malformed_corpus_exits_2(trained, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    assert run(["eval", "--model", str(trained), "--in", str(bad)]) == 2


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_config_precedence_flags_over_file_over_defaults(tmp_path):
    import argparse

    from baitradar.cli import make_train_config
    from baitradar.training import TrainConfig

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lr": 0.5, "batch_size": 4, "modalities": ["title", "tags"]}))
    args = argparse.Namespace(
        config=str(cfg_file), seed=3, regime=None, modalities=None, batch_size=8,
        max_epochs=None, lr=None, loss_threshold=None, patience=None,
        modality_keep_prob=None, vocab_max_size=None, vocab_min_freq=None, fusion_dim=None,
    )
    cfg = make_train_config(args)
    assert cfg.batch_size == 8          # flag overrides file
    assert cfg.lr == 0.5                # file overrides default
    assert cfg.max_epochs == TrainConfig().max_epochs  # default survives
    assert cfg.modalities == ("title", "tags")
    assert cfg.seed == 3

    cfg_file.write_text(json.dumps({"seed": 9}))
    args.seed = None
    assert make_train_config(args).seed == 9  # file seed honored without the flag


def test_config_effective_settings_echoed_into_checkpoint(trained):
    from baitradar.checkpoint import load_checkpoint

    model = load_checkpoint(trained)
    assert model.config_echo is not None
    assert model.config_echo["regime"] == "scratch"
    assert model.config_echo["seed"] == 7
    assert model.config_echo["batch_size"] == CFG["batch_size"]
