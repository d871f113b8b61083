"""Write the version-2 fixture: a checkpoint, its journal and the
fingerprint of the state they hold.

Run from the root of a checkout whose ``tests/`` has
``test_v2_compat.py``, with the version-2 writer's package first on the
path::

    PYTHONPATH=<v2 checkout>/src:. python \
        tests/durability/fixtures/v2/make_fixture.py tests/durability/fixtures/v2

The run feeds :func:`tests.durability.test_v2_compat.fixture_stream`
through a ``Checkpointer`` with ``every=3`` and crashes (``abort()``)
after batch 8, so the checkpoint holds sequence 6 and the journal the
batches 7 and 8.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro import Checkpointer

from tests.durability.conftest import fingerprint, make_clusterer
from tests.durability.test_v2_compat import fixture_stream


def main(out: Path) -> None:
    vocabulary, batches = fixture_stream()
    clusterer = make_clusterer()
    checkpointer = Checkpointer(
        clusterer, vocabulary, out / "state.json", every=3
    )
    clusterer.add_commit_hook(checkpointer.record_batch)
    for at_time, batch in batches:
        clusterer.process_batch(batch, at_time=at_time)
    checkpointer.abort()
    (out / "state.json.bak").unlink()
    (out / "fingerprint.json").write_text(
        json.dumps(fingerprint(clusterer), ensure_ascii=False, indent=1)
        + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main(Path(sys.argv[1]))
