"""Seeded mutation fuzzing of the SPDREC01, SPDEVT01 and SPDFEA01 files.

Every mutant of a valid file must either be refused with a FormatError or
load into an object that saves back to exactly the mutant's bytes: no other
exception, and no silent change.
"""

import numpy as np
import pytest

from spadevents.core import FormatError
from spadevents.dataio import SynthConfig, load_recording, save_recording, synth_generate
from spadevents.eventgen import firstand_convert, oobu_convert, read_stream, write_stream
from spadevents.feast import (FeastParams, binarize, feast_infer, initial_features,
                              load_features, save_features)

MUTANTS_PER_SAMPLE = 400


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """(name, file bytes, header size, loader, saver) for each sample file."""
    root = tmp_path_factory.mktemp("samples")
    _, recordings = synth_generate(SynthConfig(n_classes=1, recordings_per_class=1,
                                               frames_per_recording=6, grid_width=12,
                                               grid_height=12, seed=3))
    rec = recordings[0]
    oobu = oobu_convert(rec)
    params = FeastParams(n_neurons=3, polarity_count=4, roi_side=3, seed=1)
    items = [("recording", rec, 22, load_recording, save_recording),
             ("firstand", firstand_convert(rec), 22, read_stream, write_stream),
             ("oobu", oobu, 22, read_stream, write_stream),
             ("feature", feast_infer(oobu, binarize(initial_features(params), 8)), 22,
              read_stream, write_stream),
             ("binary", binarize(initial_features(params), 8), 16,
              load_features, save_features),
             ("continuous", initial_features(params), 16, load_features, save_features)]
    out = []
    for name, obj, header_size, load, save in items:
        path = root / name
        save(obj, path)
        out.append((name, path.read_bytes(), header_size, load, save))
    return out


def mutate(data: bytes, header_size: int, rng: np.random.Generator) -> bytes:
    """Truncate, flip bits, overwrite a header byte, or append bytes."""
    raw = bytearray(data)
    op = int(rng.integers(4))
    if op == 0:
        return bytes(raw[:int(rng.integers(len(raw)))])
    if op == 1:
        for _ in range(int(rng.integers(1, 4))):
            bit = int(rng.integers(8 * len(raw)))
            raw[bit // 8] ^= 1 << (bit % 8)
        return bytes(raw)
    if op == 2:
        i = int(rng.integers(header_size))
        raw[i] = (raw[i] + int(rng.integers(1, 256))) % 256
        return bytes(raw)
    return bytes(raw) + rng.integers(0, 256, size=int(rng.integers(1, 9)),
                                     dtype=np.uint8).tobytes()


def round_trip_failure(data: bytes, load, save, tmp_path) -> str | None:
    """None if the mutant is refused or re-saves to its own bytes, else why not."""
    src, dst = tmp_path / "mutant", tmp_path / "resaved"
    src.write_bytes(data)
    try:
        obj = load(src)
    except FormatError:
        return None
    except Exception as exc:  # any other exception breaks the rule
        return f"load raised {type(exc).__name__}: {exc}"
    try:
        save(obj, dst)
    except Exception as exc:
        return f"loaded, then save raised {type(exc).__name__}: {exc}"
    if dst.read_bytes() != data:
        return "loaded, then saved to different bytes"
    return None


@pytest.mark.parametrize("seed", [1, 2])
def test_every_mutant_round_trips_or_is_refused(samples, seed, tmp_path):
    rng = np.random.default_rng(seed)
    failures = []
    for name, data, header_size, load, save in samples:
        assert round_trip_failure(data, load, save, tmp_path) is None, name
        for i in range(MUTANTS_PER_SAMPLE):
            why = round_trip_failure(mutate(data, header_size, rng), load, save, tmp_path)
            if why is not None:
                failures.append(f"{name} mutant {i}: {why}")
    assert not failures, f"{len(failures)} mutants broke the rule, e.g. {failures[:5]}"

