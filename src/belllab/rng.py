"""Deterministic counter-based random streams.

Every stochastic routine in this package draws from a Philox generator keyed
by ``(seed, *stream_ids)``. Streams with different ids are statistically
independent, and a stream's output depends only on its key, never on how many
other streams exist or in which order they are consumed. That is what makes
chunked generation reproducible when ``core.ordered_map`` runs the chunks on
``BELLLAB_THREADS`` workers: chunk ``i`` of a protocol run always uses the
stream ``(seed, purpose, i)``, and point ``i`` of a theta sweep the stream
``(seed, "sweep", i)``, whatever the worker count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]

# Fixed purpose labels -> sub-stream indices. Tests that re-implement a draw
# sequence as an oracle rely on these staying stable.
PURPOSES = {
    "event-ready": 0,
    "source-times": 1,
    "source-settings-a": 2,
    "source-settings-b": 3,
    "source-model": 4,
    "source-jitter-a": 5,
    "source-jitter-b": 6,
    "source-dark-a": 7,
    "source-dark-b": 8,
    "sampling": 9,
    "sweep": 10,
}


def stream(seed: int, *ids: int | str) -> np.random.Generator:
    """Return the Philox generator for key ``(seed, *ids)``.

    ``ids`` components may be integers or one of the registered purpose
    labels. The same key always yields the same generator state.
    """
    key = tuple(PURPOSES[i] if isinstance(i, str) else int(i) for i in ids)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(seed=ss))
