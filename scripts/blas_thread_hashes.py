"""Which nncore outputs change with the BLAS thread count.

Run from the repository root::

    python3 scripts/blas_thread_hashes.py

The script runs itself twice, at ``OPENBLAS_NUM_THREADS=1`` and ``=2``, and
compares what the two runs computed. Each run wraps every public ``nncore``
function by rebinding the module attribute, as ``perfbench/tracer.py`` does,
so that ``src/`` carries no hashing code, and hashes every array each call
returns during one seeded epoch of ``train()`` on a 400-record synthetic
corpus; it also hashes the checkpoint. (The thumbnail convolutions at the
model's shapes are checked on their own by a test in ``tests/test_nncore.py``.)

The table lists each output whose bits differed at the two thread counts: how
many of its calls differed, and the first such call, numbered over all nncore
calls of the epoch. Outputs computed from already differing inputs differ too,
so the earliest first call names the op where the dependence starts.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(arr) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _training_hashes() -> tuple[dict[str, list[tuple[int, str, str]]], str]:
    import numpy as np
    from baitradar import nncore
    from baitradar.checkpoint import dumps
    from baitradar.corpus import SyntheticConfig, generate_synthetic, split_dataset
    from baitradar.training import TrainConfig, train

    calls: dict[str, list[tuple[int, str, str]]] = {}
    seq = iter(range(sys.maxsize))

    def wrap(name, fn):
        def hashed(*args, **kwargs):
            result = fn(*args, **kwargs)
            parts = result if isinstance(result, tuple) else (result,)
            n = next(seq)
            shapes = " ".join(str(list(a.shape)) for a in args if isinstance(a, np.ndarray))
            for i, part in enumerate(parts):
                if isinstance(part, np.ndarray):
                    calls.setdefault(f"nncore.{name}[{i}]", []).append((n, _digest(part), shapes))
            return result
        return hashed

    for name, fn in list(vars(nncore).items()):
        if inspect.isfunction(fn) and not name.startswith("_") and name != "as_f64":
            setattr(nncore, name, wrap(name, fn))
    records = generate_synthetic(SyntheticConfig(n_records=400, seed=11))
    cfg = TrainConfig(seed=11, batch_size=32, max_epochs=1, modality_keep_prob=0.7)
    model, _ = train(records, split_dataset(records, seed=11), cfg)
    return calls, hashlib.sha256(dumps(model)).hexdigest()[:16]


def child() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    calls, checkpoint = _training_hashes()
    print(json.dumps({"calls": calls, "checkpoint": checkpoint}))


def main() -> int:
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                             capture_output=True, text=True, timeout=1800)
        runs[threads] = json.loads(out.stdout.splitlines()[-1])
    one, two = runs["1"], runs["2"]
    print("one training epoch at 1 vs 2 BLAS threads: each nncore output that differed")
    print("(calls differing / calls, the first differing call, numbered over all nncore")
    print("calls in the epoch, and the shapes of its array arguments):")
    rows = []
    for key, calls in one["calls"].items():
        other = two["calls"].get(key, [])
        diff = [(n, shapes) for (n, a, shapes), (_, b, _) in zip(calls, other) if a != b]
        if len(calls) != len(other):
            rows.append((-1, f"  {key:34s} call counts differ: {len(calls)} vs {len(other)}"))
        elif diff:
            rows.append((diff[0][0], f"  {key:34s} {len(diff):4d} / {len(calls):4d}  "
                                     f"call {diff[0][0]:4d}  {diff[0][1]}"))
    for _, line in sorted(rows):
        print(line)
    print(f"  ({len(one['calls']) - len(rows)} other outputs gave the same bits in every call)")
    same = one["checkpoint"] == two["checkpoint"]
    print(f"checkpoint: {'byte-equal' if same else 'DIFFERENT'} "
          f"({one['checkpoint']} vs {two['checkpoint']})")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main())
