"""Training on the worker path: two encoder worker processes give the bytes
of the in-process path, and a failing worker ends train() with a typed
error and leaves no process behind."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from baitradar import encoder_groups, nncore
from baitradar.checkpoint import dumps
from baitradar.corpus import SyntheticConfig, generate_synthetic, select_records, split_dataset
from baitradar.model import SCORE_CHUNK, BaitRadarModel
from baitradar.training import (TrainConfig, TrainingError, batch_accuracy, prepare_corpus,
                                train)

from conftest import SMALL_ENCODER

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def workers(monkeypatch):
    """Forces the worker path; collects every WorkerGroup started."""
    started = []
    init = encoder_groups.WorkerGroup.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        started.append(self)

    monkeypatch.setattr(encoder_groups, "_use_workers", lambda *args: True)
    monkeypatch.setattr(encoder_groups.WorkerGroup, "__init__", spy)
    return started


def _assert_all_stopped(started):
    assert started
    for w in started:
        assert w.proc.returncode is not None
        assert w.proc.stdin.closed and w.proc.stdout.closed


def _artifacts(records, split, cfg, **kw):
    model, report = train(records, split, cfg, **kw)
    return dumps(model), report.to_jsonl()


@pytest.fixture(scope="module")
def corpus60():
    records = generate_synthetic(SyntheticConfig(n_records=60, seed=5))
    return records, split_dataset(records, seed=5)


def test_worker_path_gives_the_in_process_bytes(corpus60, monkeypatch):
    """Scratch with modality dropout at the default EncoderConfig, whose
    thumbnail projection contracts over 2,704 inputs (the workers run at one
    BLAS thread), then head_only and finetune from a pretrained model."""
    records, split = corpus60
    scratch = TrainConfig(seed=5, vocab_min_freq=1, batch_size=16, max_epochs=2,
                          modality_keep_prob=0.7)
    small = dataclasses.replace(scratch, encoder=SMALL_ENCODER, modality_keep_prob=None)
    prepared = prepare_corpus(records, split, small)
    pretrained = BaitRadarModel.build(small.modalities, prepared.vocab, prepared.stats_norm,
                                      SMALL_ENCODER, seed=77)
    runs = [
        (scratch, {}),
        (dataclasses.replace(small, regime="head_only"),
         dict(init=pretrained, prepared=prepared)),
        (dataclasses.replace(small, regime="finetune"),
         dict(init=pretrained, prepared=prepared)),
    ]
    monkeypatch.setattr(encoder_groups, "_use_workers", lambda *args: False)
    in_process = [_artifacts(records, split, cfg, **kw) for cfg, kw in runs]

    shares = []
    split_of = encoder_groups._shares
    monkeypatch.setattr(encoder_groups, "_use_workers", lambda *args: True)
    monkeypatch.setattr(encoder_groups, "_shares",
                        lambda *args: shares.append(split_of(*args)) or shares[-1])
    on_workers = [_artifacts(records, split, cfg, **kw) for cfg, kw in runs]

    assert len(shares) == 3 and all(len(s) == 2 for s in shares)
    assert sorted(sum(shares[0], ())) == sorted(scratch.modalities)
    for (ckpt, report), (ckpt_w, report_w) in zip(in_process, on_workers):
        assert ckpt == ckpt_w
        assert report == report_w


def test_default_rule_trains_small_runs_in_process(corpus60, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("started a worker")

    monkeypatch.setattr(encoder_groups.WorkerGroup, "__init__", refuse)
    records, split = corpus60
    train(records, split, TrainConfig(seed=5, vocab_min_freq=1, max_epochs=1,
                                      encoder=SMALL_ENCODER))


def _inputs(modalities, n):
    return [dict.fromkeys(modalities)] * n


def test_the_rule_counts_encoder_work_over_every_epoch(monkeypatch):
    monkeypatch.setattr(encoder_groups, "_usable_cores", lambda: 2)
    six = ("title", "thumbnail", "comments", "audio_transcript", "tags", "statistics")
    per_record = sum(encoder_groups._COST_PER_RECORD.values())
    # enough training records for one epoch, or half of them over two epochs
    n = math.ceil(encoder_groups._WORKER_MIN_WORK / per_record)
    use = encoder_groups._use_workers
    assert use(six, _inputs(six, n), [], True, 1)
    assert not use(six, _inputs(six, n - 1), [], True, 1)
    assert use(six, _inputs(six, math.ceil(n / 2)), [], True, 2)
    # validation records and frozen encoders run forward only
    share = encoder_groups._FORWARD_SHARE
    assert not use(six, [], _inputs(six, n), True, 1)
    assert use(six, [], _inputs(six, math.ceil(n / share)), True, 1)
    assert not use(six, _inputs(six, n), [], False, 1)
    assert use(six, _inputs(six, math.ceil(n / share)), [], False, 1)
    # the four text encoders cost less per record than the six
    text = ("title", "comments", "audio_transcript", "tags")
    assert not use(text, _inputs(text, n), [], True, 1)
    # one encoder or one core never starts workers
    assert not use(("thumbnail",), _inputs(("thumbnail",), 10**5), [], True, 300)
    monkeypatch.setattr(encoder_groups, "_usable_cores", lambda: 1)
    assert not use(six, _inputs(six, 10**5), [], True, 300)


def test_the_rule_reads_the_core_count_where_affinity_is_unknown(corpus60, monkeypatch):
    """``os.sched_getaffinity`` exists on Linux only."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert encoder_groups._usable_cores() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert encoder_groups._usable_cores() == 1
    records, split = corpus60
    model, report = train(records, split, TrainConfig(seed=5, vocab_min_freq=1, max_epochs=1,
                                                      encoder=SMALL_ENCODER))
    assert report.epochs_run == 1


def test_shares_balance_the_measured_costs():
    full = [dict.fromkeys(("title", "thumbnail", "comments", "audio_transcript", "tags",
                           "statistics"))] * 10
    assert encoder_groups._shares(tuple(full[0]), full) == [
        ("thumbnail", "statistics"), ("title", "comments", "audio_transcript", "tags")]
    text = [dict.fromkeys(("title", "comments", "audio_transcript", "tags"))] * 10
    assert encoder_groups._shares(tuple(text[0]), text) == [
        ("title", "audio_transcript"), ("comments", "tags")]


_NO_MAIN_GUARD = """
from baitradar import encoder_groups
from baitradar.corpus import SyntheticConfig, generate_synthetic, split_dataset
from baitradar.encoders import EncoderConfig
from baitradar.training import TrainConfig, train

encoder_groups._use_workers = lambda *args: True
started = []
launch = encoder_groups.WorkerGroup.__init__
encoder_groups.WorkerGroup.__init__ = lambda self, *a: started.append(a) or launch(self, *a)

records = generate_synthetic(SyntheticConfig(n_records=40, seed=5))
cfg = TrainConfig(seed=5, vocab_min_freq=1, max_epochs=1, encoder=EncoderConfig(
    fusion_dim=8, embed_dim=6, conv_channels=(2, 3), conv_kernel=3, thumb_size=16,
    stats_hidden=6, head_hidden=6))
model, report = train(records, split_dataset(records, seed=5), cfg)
print("workers", len(started), "epochs", report.epochs_run)
"""


def test_a_script_without_a_main_guard_trains_on_the_worker_path(tmp_path):
    """The workers import baitradar, never the caller's __main__."""
    script = tmp_path / "no_guard.py"
    script.write_text(_NO_MAIN_GUARD)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["workers 2 epochs 1"]


def _small_run(corpus60):
    records, split = corpus60
    return records, split, TrainConfig(seed=5, vocab_min_freq=1, max_epochs=2,
                                       encoder=SMALL_ENCODER)


def test_a_worker_that_exits_early_is_a_training_error(corpus60, workers, monkeypatch):
    monkeypatch.setattr(encoder_groups, "_WORKER_ARGV",
                        (sys.executable, "-c", "import sys; sys.exit(3)"))
    with pytest.raises(TrainingError, match=r"encoder worker for [a-z_, ]+ exited with code 3"):
        train(*_small_run(corpus60))
    _assert_all_stopped(workers)


_RAISING_WORKER = textwrap.dedent("""
    import runpy
    from baitradar import encoder_groups

    def step(self, d_outs, t):
        raise RuntimeError("planted failure at step " + str(t))

    encoder_groups.EncoderGroup.step = step
    runpy.run_module("baitradar.encoder_worker", run_name="__main__")
""")


def test_a_worker_that_raises_is_a_training_error_with_its_traceback(
        corpus60, workers, monkeypatch):
    monkeypatch.setattr(encoder_groups, "_WORKER_ARGV", (sys.executable, "-c", _RAISING_WORKER))
    with pytest.raises(TrainingError) as info:
        train(*_small_run(corpus60))
    message = str(info.value)
    assert "exited with code 1" in message
    assert "Traceback" in message and "RuntimeError: planted failure at step 1" in message
    assert any(f"encoder worker for {', '.join(w.modalities)} " in message for w in workers)
    _assert_all_stopped(workers)


def test_workers_stop_when_the_trainer_itself_fails(corpus60, workers, monkeypatch):
    monkeypatch.setattr(nncore, "binary_cross_entropy", lambda probs, labels: float("nan"))
    with pytest.raises(TrainingError, match="non-finite loss"):
        train(*_small_run(corpus60))
    _assert_all_stopped(workers)
    assert all(w.proc.returncode == 0 for w in workers)



_THUMBNAIL_WORKER_RAISES = textwrap.dedent("""
    import runpy
    from baitradar import encoder_groups

    step = encoder_groups.EncoderGroup.step

    def planted_step(self, d_outs, t):
        if "thumbnail" in self.modalities:
            raise RuntimeError("planted failure at step " + str(t))
        step(self, d_outs, t)

    encoder_groups.EncoderGroup.step = planted_step
    runpy.run_module("baitradar.encoder_worker", run_name="__main__")
""")


def test_a_worker_still_writing_a_reply_stops_without_being_killed(workers, monkeypatch,
                                                                    capfd):
    """The thumbnail worker raises at step 1 while the other worker writes
    the next batch's forward reply: 64 rows of four 64-wide text encodings
    at the default EncoderConfig, more than a pipe holds. Closing the reply
    pipe ends that worker too; it is not left to time out and be killed,
    and it prints nothing."""
    monkeypatch.setattr(encoder_groups, "_WORKER_ARGV",
                        (sys.executable, "-c", _THUMBNAIL_WORKER_RAISES))
    records = generate_synthetic(SyntheticConfig(n_records=200, seed=5))
    cfg = TrainConfig(seed=5, vocab_min_freq=1, batch_size=64, max_epochs=1)
    with pytest.raises(TrainingError, match="planted failure at step 1"):
        train(records, split_dataset(records, seed=5), cfg)
    _assert_all_stopped(workers)
    assert sorted(w.proc.returncode for w in workers) == [1, 1]
    err = capfd.readouterr().err
    assert "BrokenPipeError" not in err and "Exception ignored" not in err


def test_validation_is_scoring_in_chunks_on_both_paths(monkeypatch):
    """36 validation records take two SCORE_CHUNK passes, so the second
    pass's forward addresses records past the first chunk on the workers."""
    records = generate_synthetic(SyntheticConfig(n_records=400, seed=5))
    split = split_dataset(records, seed=5)
    assert len(split.validation) > SCORE_CHUNK
    cfg = TrainConfig(seed=5, vocab_min_freq=1, batch_size=32, max_epochs=1,
                      encoder=SMALL_ENCODER)
    prepared = prepare_corpus(records, split, cfg)
    val_feats = [prepared.features[rid] for rid in split.validation]
    labels = np.array([f.label for f in val_feats])
    artifacts = []
    for on_workers in (False, True):
        monkeypatch.setattr(encoder_groups, "_use_workers", lambda *args: on_workers)
        model, report = train(records, split, cfg, prepared=prepared)
        masks = [model.effective_mask(r, None) for r in select_records(records, split.validation)]
        assert report.val_accuracies[0] == batch_accuracy(model, val_feats, masks, labels)
        artifacts.append((dumps(model), report.to_jsonl()))
    assert artifacts[0] == artifacts[1]


_GROUP_FAILS = textwrap.dedent("""
    import runpy
    from baitradar import encoder_groups

    def planted_init(self, *args):
        raise RuntimeError("planted failure building the group")

    encoder_groups.EncoderGroup.__init__ = planted_init
    runpy.run_module("baitradar.encoder_worker", run_name="__main__")
""")


def test_a_worker_that_cannot_build_its_group_reports_its_traceback(
        corpus60, workers, monkeypatch):
    """The group arguments are not answered; the failure comes back at the
    first receive."""
    monkeypatch.setattr(encoder_groups, "_WORKER_ARGV", (sys.executable, "-c", _GROUP_FAILS))
    with pytest.raises(TrainingError, match="(?s)exited with code 1.*planted failure building"):
        train(*_small_run(corpus60))
    _assert_all_stopped(workers)
