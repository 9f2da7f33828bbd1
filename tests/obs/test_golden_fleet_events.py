"""Golden test: the observed fleet's event stream, byte for byte.

A 16-chip ``run_fleet_observed`` at seed 2019 writes its probe and
rollback events through the single-file and the rotating JSONL sink.
The digest pins the stream's exact bytes, so a change to the line
codec, a sink, the probe walk or the seeding that moves any byte shows
up here.  If a deliberate change moves the stream, update the digest in
the same commit and say why.
"""

import hashlib

import pytest

from repro.core.fleet import run_fleet_observed
from repro.obs.stream.rotate import segment_index_path

SEED = 2019
CHIPS = 16
EVENTS = 7726
EVENTS_SHA256 = "83c8d75ebaf6da649f2056d828bcd47bc093d17cd1fa3120c4b7fdda6ea8c169"


@pytest.mark.parametrize("segment_events", [0, 1000], ids=["single", "segmented"])
def test_fleet_event_stream_is_pinned(tmp_path, segment_events):
    run = run_fleet_observed(
        CHIPS, out_dir=tmp_path, seed=SEED, segment_events=segment_events
    )
    assert run.event_count == EVENTS
    assert run.manifest.events_sha256 == EVENTS_SHA256
    if segment_events:
        assert segment_index_path(run.events_path).exists()
    else:
        digest = hashlib.sha256(run.events_path.read_bytes()).hexdigest()
        assert digest == EVENTS_SHA256
