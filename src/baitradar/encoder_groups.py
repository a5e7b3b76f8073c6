"""Encoder groups: the part of a training step that runs between the row
bookkeeping and the fusion average.

An ``EncoderGroup`` holds the encoders of some modalities with their
parameters and the payloads they read. It runs their forward on a batch of
training or validation records, their backward and Adam update, and hands
out its parameter values. ``train`` drives one group holding every encoder in
process, or, for a run big enough to pay for it, two ``WorkerGroup``s: the
same group class run in two worker processes (``python -m
baitradar.encoder_worker``), each at one BLAS thread. The encoders share
nothing until the fusion average, so each one runs the same operations on
the same operands either way, and checkpoints keep their bytes (a row's bits
do not depend on the BLAS thread count since long contractions are summed in
fixed chunks).

Both kinds take a call as ``send(method, *args)`` and give the results of
the calls sent, in order, from ``receive()``. So the caller can start a call
on every group before it waits for any, and queue a call behind another.
"""

from __future__ import annotations

import collections
import contextlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

from . import nncore
from .encoders import ENCODERS, EncoderConfig
from .model import run_encoders

# Workers pay off from this much encoder work in one run, counted in
# _COST_PER_RECORD units (one thumbnail record through forward and backward)
# over max_epochs epochs: each training record costs its modalities' weights,
# each validation record (forward only) _FORWARD_SHARE of them. Starting two
# workers costs a fixed 0.25-0.8 s. With the rule forced each way in 5
# alternating pairs of one-epoch train() calls on the benchmark's corpora
# (seed 1, 180 validation records, main process at 2 BLAS threads), the
# six-modality score-stream records broke even at 256 training records (543
# units; workers faster in 3 pairs of 5) and trained faster on workers at
# 384 (764 units) in 4 of 5; the four text encoders of train-text-missing
# trained slower on workers at 512 records (480 units) in 5 of 5 and faster
# at 768 (690 units) in 3 of 5 (2-vCPU VM, OpenBLAS 0.3.31). The weights
# were measured at the default EncoderConfig, and other configs are costed
# as if they were the default; max_epochs overstates a run that stops early.
_WORKER_MIN_WORK = 600.0
# A forward-only pass over a record costs this share of its forward,
# backward and Adam step: 0.32-0.42 over 640 records of either corpus at the
# default EncoderConfig, six runs.
_FORWARD_SHARE = 0.37
_WORKERS = 2
# Relative cost of one record through each encoder's forward and backward,
# timed inside the two workers while both trained: default EncoderConfig,
# batch 32, one BLAS thread each, one epoch of the benchmark's train-full
# corpus (1,620 records, seed 1), four runs. Median seconds per epoch:
# thumbnail 3.00, audio_transcript 1.31, comments 1.27, tags 0.38, title
# 0.24, statistics 0.013 (2-vCPU VM, OpenBLAS 0.3.31). Only the balance of
# the workers depends on these.
_COST_PER_RECORD = {
    "title": 0.08, "thumbnail": 1.0, "comments": 0.42,
    "audio_transcript": 0.44, "tags": 0.13, "statistics": 0.004,
}
_WORKER_ARGV = (sys.executable, "-m", "baitradar.encoder_worker")
_STOP_TIMEOUT_S = 5.0


class WorkerError(RuntimeError):
    """An encoder worker process failed or exited early."""


class EncoderGroup:
    """The encoders of ``modalities`` over ``params`` (their Parameters).
    ``inputs[i]`` maps record i's modalities to payloads: the training
    records, then the validation records. With ``trainable`` False the
    encoders are frozen and ``step`` does nothing."""

    def __init__(self, modalities, params: dict[str, nncore.Parameter], trainable: bool,
                 config: EncoderConfig, adam: tuple[float, float, float, float],
                 inputs: list[dict]):
        self.modalities = tuple(modalities)
        self.params = params
        self.trainable = [params[n] for n in sorted(params)] if trainable else []
        self.config = config
        self.adam = adam
        self.inputs = inputs
        self._caches: dict[str, tuple] = {}
        self._results: collections.deque = collections.deque()

    def send(self, method: str, *args) -> None:
        self._results.append(getattr(self, method)(*args))

    def receive(self):
        return self._results.popleft()

    def forward(self, records, masks):
        """``run_encoders`` on records ``records`` under ``masks``; the
        caches are kept for ``step``."""
        encoded, self._caches = run_encoders(
            self.modalities, [self.inputs[i] for i in records], masks,
            self.params, self.config)
        return encoded

    def step(self, d_outs: dict, t: int) -> None:
        """Back-propagates each encoder's output grad from the last forward,
        then takes Adam step ``t``."""
        if not self.trainable:
            return
        for p in self.trainable:
            p.zero_grad()
        for m, d_out in d_outs.items():
            ENCODERS[m].backward(d_out, self._caches[m], self.params)
        nncore.adam_step(self.trainable, *self.adam, t)

    def values(self) -> dict:
        return {n: p.value.copy() for n, p in self.params.items()}


class WorkerGroup:
    """An ``EncoderGroup`` of ``modalities`` in a worker process. Requests
    and results are pickled over the worker's stdin and stdout."""

    def __init__(self, modalities):
        self.modalities = tuple(modalities)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        # the worker imports the same baitradar sources as this process
        root = str(Path(__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
        self.proc = subprocess.Popen(_WORKER_ARGV, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env)

    def start(self, group_args: tuple) -> None:
        """Sends the ``EncoderGroup`` arguments. They are not answered: a
        worker that cannot build its group says so at the first ``receive``."""
        self._write(group_args)

    def send(self, method: str, *args) -> None:
        self._write((method, args))

    def receive(self):
        try:
            status, value = pickle.load(self.proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            self._fail()
        if status == "error":
            self._fail(value)
        return value

    def close_requests(self) -> None:
        """Closes the worker's stdin, which tells it to exit."""
        with contextlib.suppress(OSError):
            self.proc.stdin.close()

    def stop(self) -> int:
        """Closes the worker's stdin and stdout, so a worker still writing a
        reply stops too, waits for it to exit and kills it if it does not;
        returns its exit code."""
        self.close_requests()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return self.proc.returncode

    def _write(self, message) -> None:
        # a worker that has stopped reading says why at the next receive
        with contextlib.suppress(OSError):
            pickle.dump(message, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()

    def _fail(self, worker_traceback: str | None = None) -> NoReturn:
        code = self.stop()
        detail = f":\n{worker_traceback}" if worker_traceback else ""
        raise WorkerError(f"encoder worker for {', '.join(self.modalities)} "
                          f"exited with code {code}{detail}")


def _usable_cores() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _costs(modalities, inputs) -> dict[str, float]:
    """Each modality's estimated cost of one forward and backward over
    ``inputs``."""
    return {m: _COST_PER_RECORD[m] * sum(m in x for x in inputs) for m in modalities}


def _use_workers(modalities, train_inputs, val_inputs, trainable: bool, max_epochs: int) -> bool:
    if len(modalities) < 2:
        return False
    train_share = 1.0 if trainable else _FORWARD_SHARE
    work = max_epochs * (train_share * sum(_costs(modalities, train_inputs).values())
                         + _FORWARD_SHARE * sum(_costs(modalities, val_inputs).values()))
    return work >= _WORKER_MIN_WORK and _usable_cores() >= 2


def _shares(modalities, train_inputs) -> list[tuple[str, ...]]:
    """Greedy longest-first: each modality, costliest first, goes to the
    worker with the least estimated cost so far."""
    cost = _costs(modalities, train_inputs)
    shares: list[list[str]] = [[] for _ in range(_WORKERS)]
    loads = [0.0] * _WORKERS
    for m in sorted(modalities, key=lambda m: -cost[m]):
        k = loads.index(min(loads))
        shares[k].append(m)
        loads[k] += cost[m]
    return [tuple(m for m in modalities if m in share) for share in shares if share]


@contextlib.contextmanager
def open_groups(modalities, params: dict[str, nncore.Parameter], trainable: bool,
                config: EncoderConfig, adam, inputs, n_train: int, max_epochs: int):
    """The encoder groups a training run of at most ``max_epochs`` epochs
    drives over ``inputs``, its ``n_train`` training records and then its
    validation records: in process, or in worker processes that are stopped
    on the way out."""
    train_inputs = inputs[:n_train]
    if not _use_workers(modalities, train_inputs, inputs[n_train:], trainable, max_epochs):
        yield [EncoderGroup(modalities, params, trainable, config, adam, inputs)]
        return

    workers: list[WorkerGroup] = []
    try:
        # both start importing before either is sent its payloads
        for share in _shares(modalities, train_inputs):
            workers.append(WorkerGroup(share))
        for w in workers:
            share_params = {n: p for n, p in params.items()
                            if n.split(".", 1)[0] in w.modalities}
            w.start((w.modalities, share_params, trainable, config, adam,
                     [{m: x[m] for m in w.modalities if m in x} for x in inputs]))
        yield workers
    finally:
        for w in workers:  # both exit at once
            w.close_requests()
        for w in workers:
            w.stop()
