"""One encoder worker process: ``python -m baitradar.encoder_worker``.

It reads pickled messages from stdin. The first holds the arguments of its
``EncoderGroup`` and is not answered; each later one is a ``(method, args)``
call on that group, answered on the process's original stdout with a
pickled ``("ok", result)``. A failure, in building the group or in a call,
is answered with ``("error", traceback)`` and ends the process with exit
code 1. The process exits with 0 when stdin closes, and with 1 when the
trainer closes its end of stdout. Anything printed goes to stderr, so it
cannot corrupt the replies.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback

from .encoder_groups import EncoderGroup


def serve(requests, replies) -> int:
    def reply(status, value):
        pickle.dump((status, value), replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()

    try:
        try:
            group = EncoderGroup(*pickle.load(requests))
            while True:
                try:
                    method, args = pickle.load(requests)
                except EOFError:
                    return 0
                reply("ok", getattr(group, method)(*args))
        except Exception:  # noqa: BLE001 - every failure goes back to the trainer
            reply("error", traceback.format_exc())
            return 1
    except BrokenPipeError:
        # the trainer has gone; what is left in ``replies`` is flushed to
        # devnull when it closes, so nothing is printed (see the SIGPIPE note
        # in Python's ``signal`` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), replies.fileno())
        return 1


def main() -> int:
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    with replies:
        return serve(sys.stdin.buffer, replies)


if __name__ == "__main__":
    sys.exit(main())
