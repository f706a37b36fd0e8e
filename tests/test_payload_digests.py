"""Every default-seed benchmark payload, byte for byte.

`perfbench/digests.json` holds the sha256 of the payload of each CLI call
the benchmark makes at its default seed, keyed by its argv joined with
spaces.  Each call runs here through `ckcoh.cli.main` in process, with one
sweep worker, and must exit 0 with its recorded digest.  The file is only
read.
"""

import contextlib
import hashlib
import io
import json
import os

from ckcoh.cli import main

DIGESTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "digests.json"
)


def test_every_default_seed_payload_has_its_recorded_digest(monkeypatch):
    monkeypatch.setenv("CKCOH_THREADS", "1")
    with open(DIGESTS, encoding="utf-8") as handle:
        digests = {key: d for table in json.load(handle).values() for key, d in table.items()}
    assert len(digests) == 145
    wrong = []
    for key, want in digests.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(key.split(" "))
        got = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if (code, got) != (0, want):
            wrong.append((key, code))
    assert not wrong, wrong[:5]
