"""Recording format, manifests, augmentation, synthesis and splits."""

import struct

import numpy as np
import pytest

from spadevents.core import BadMagicError, DimensionError, Recording, TruncatedError
from spadevents.dataio import (AUGMENT_OPS, DatasetManifest, ManifestEntry, SynthConfig,
                               augment, augment_recording, default_silhouettes, load_manifest,
                               load_manifest_recordings, load_recording, save_recording,
                               split_indices, synth_generate, write_dataset)


def small_recording(seed=0, n_frames=3, h=2, w=2, class_id=1):
    rng = np.random.default_rng(seed)
    return Recording(frames=rng.integers(0, 65536, size=(n_frames, h, w)).astype(np.uint16),
                     pulse_period=10, class_id=class_id, recording_id=f"rec{seed}")


def huge_recording_header():
    """A SPDREC01 header claiming 65535x65535 frames, 2^32-1 of them, and no payload."""
    return struct.pack("<8sHHIIH", b"SPDREC01", 0xFFFF, 0xFFFF, 0xFFFFFFFF, 10, 0)


class TestRecordingFormat:
    def test_round_trip(self, tmp_path):
        rec = small_recording()
        path = tmp_path / "rec0.spdrec"
        save_recording(rec, path)
        loaded = load_recording(path)
        assert np.array_equal(loaded.frames, rec.frames)
        assert loaded.pulse_period == rec.pulse_period
        assert loaded.class_id == rec.class_id
        assert loaded.recording_id == "rec0"

    def test_bit_exact_on_disk(self, tmp_path):
        rec = small_recording()
        p1, p2 = tmp_path / "a.spdrec", tmp_path / "b.spdrec"
        save_recording(rec, p1)
        save_recording(load_recording(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spdrec"
        path.write_bytes(b"XXXXXXXX" + bytes(14))
        with pytest.raises(BadMagicError):
            load_recording(path)

    def test_truncated_payload(self, tmp_path):
        rec = small_recording(n_frames=10)
        path = tmp_path / "trunc.spdrec"
        save_recording(rec, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 2 * 2 * 2])  # drop one 2x2 frame
        with pytest.raises(TruncatedError):
            load_recording(path)

    def test_huge_payload_claim_refused(self, tmp_path):
        path = tmp_path / "huge.spdrec"
        path.write_bytes(huge_recording_header())
        with pytest.raises(TruncatedError, match="header promises"):
            load_recording(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.spdrec"
        path.write_bytes(b"SPDREC01")
        with pytest.raises(TruncatedError):
            load_recording(path)

    def test_dimension_overflow(self, tmp_path):
        rec = Recording(frames=np.zeros((1, 2, 2), dtype=np.uint16), class_id=70000)
        with pytest.raises(DimensionError):
            save_recording(rec, tmp_path / "x.spdrec")

    def test_header_peek(self, tmp_path):
        rec = small_recording(n_frames=5, h=3, w=4, class_id=2)
        path = tmp_path / "peek.spdrec"
        save_recording(rec, path)
        loaded = load_recording(path)
        assert (loaded.width, loaded.height, loaded.n_frames, loaded.pulse_period,
                loaded.class_id) == (4, 3, 5, 10, 2)


class TestManifest:
    def make_dataset(self, tmp_path, n=6, n_classes=3):
        entries = []
        recordings = []
        for i in range(n):
            rec = small_recording(seed=i, class_id=i % n_classes)
            recordings.append(rec)
            entries.append(ManifestEntry(path=f"{rec.recording_id}.spdrec",
                                         class_id=rec.class_id, recording_id=rec.recording_id))
        manifest = DatasetManifest(entries=entries, n_classes=n_classes)
        write_dataset(manifest, recordings, tmp_path)
        return manifest, recordings

    def test_round_trip(self, tmp_path):
        manifest, recordings = self.make_dataset(tmp_path)
        loaded = load_manifest(tmp_path / "manifest.tsv")
        assert len(loaded) == len(manifest)
        assert loaded.n_classes == 3
        recs = load_manifest_recordings(loaded, tmp_path)
        for a, b in zip(recs, recordings):
            assert np.array_equal(a.frames, b.frames)
            assert a.recording_id == b.recording_id
            assert a.pulse_period == b.pulse_period

    def test_tab_separated_lines(self, tmp_path):
        manifest, _ = self.make_dataset(tmp_path)
        first = (tmp_path / "manifest.tsv").read_text().splitlines()[0]
        assert first.split("\t") == ["rec0.spdrec", "0", "rec0"]

    def test_duplicate_paths_rejected(self):
        entries = [ManifestEntry("a.spdrec", 0, "a"), ManifestEntry("a.spdrec", 0, "b")]
        with pytest.raises(ValueError, match="unique"):
            DatasetManifest(entries=entries, n_classes=1)

    def test_class_bound_enforced(self):
        with pytest.raises(ValueError):
            DatasetManifest(entries=[ManifestEntry("a", 3, "a")], n_classes=3)


class TestAugment:
    def test_count_times_eight(self):
        recs = [small_recording(seed=i, h=4, w=4) for i in range(3)]
        out = augment(recs)
        assert len(out) == 24
        assert len(AUGMENT_OPS) == 8
        ids = [r.recording_id for r in out]
        assert len(set(ids)) == 24

    def test_rot180_is_involution(self):
        rec = small_recording(h=4, w=4)
        variants = augment_recording(rec)
        rot180 = next(r for r in variants if r.recording_id.endswith(".r180"))
        back = next(r for r in augment_recording(rot180) if r.recording_id.endswith(".r180"))
        assert np.array_equal(back.frames, rec.frames)

    def test_rot90_single_pixel_coordinate(self):
        frames = np.zeros((1, 5, 5), dtype=np.uint16)
        y, x, value = 1, 3, 77
        frames[0, y, x] = value
        rec = Recording(frames=frames, recording_id="px")
        rot90 = next(r for r in augment_recording(rec) if r.recording_id.endswith(".r90"))
        # counterclockwise quarter turn maps (y, x) -> (W-1-x, y)
        assert rot90.frames[0, 5 - 1 - x, y] == value
        assert np.count_nonzero(rot90.frames) == 1

    def test_preserves_code_multiset_per_frame(self):
        rec = small_recording(seed=4, n_frames=4, h=6, w=6)
        for variant in augment_recording(rec):
            for k in range(rec.n_frames):
                assert np.array_equal(np.sort(variant.frames[k].ravel()),
                                      np.sort(rec.frames[k].ravel()))
                assert (np.count_nonzero(variant.frames[k])
                        == np.count_nonzero(rec.frames[k]))

    def test_labels_preserved(self):
        rec = small_recording(h=4, w=4, class_id=7)
        assert all(v.class_id == 7 for v in augment_recording(rec))

    def test_non_square_rejected(self):
        rec = small_recording(h=4, w=6)
        with pytest.raises(ValueError, match="square"):
            augment_recording(rec)


class TestSynth:
    def noiseless_config(self, **kw):
        base = dict(n_classes=2, recordings_per_class=2, frames_per_recording=20,
                    grid_width=24, grid_height=24, p_false_positive=0.0,
                    p_false_negative=0.0, timing_jitter_sigma=0.0, seed=3)
        base.update(kw)
        return SynthConfig(**base)

    def test_noiseless_support_is_target_union_distractor(self):
        cfg = self.noiseless_config(frames_per_recording=60)
        _, recs = synth_generate(cfg)
        rec = recs[0]
        target, distractor = cfg.target_depth_code, cfg.distractor_depth_code
        codes = set(np.unique(rec.frames))
        assert codes <= {0, target, distractor}
        # the static distractor is present in every frame
        for k in range(rec.n_frames):
            assert (rec.frames[k] == distractor).sum() > 0
        # once fully on-grid, the target covers exactly its silhouette area
        from spadevents.dataio import default_silhouettes
        area = int(default_silhouettes(cfg.n_classes, seed=cfg.seed)[rec.class_id].sum())
        target_counts = [(rec.frames[k] == target).sum() for k in range(rec.n_frames)]
        assert area in target_counts

    def test_false_negative_one_drops_all_signal(self):
        cfg = self.noiseless_config(p_false_negative=1.0)
        _, recs = synth_generate(cfg)
        for rec in recs:
            assert rec.frames.sum() == 0

    def test_same_seed_bit_identical(self):
        cfg = self.noiseless_config(p_false_positive=0.01, p_false_negative=0.1,
                                    timing_jitter_sigma=1.5)
        _, a = synth_generate(cfg)
        _, b = synth_generate(cfg)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.frames, rb.frames)

    def test_different_seeds_differ(self):
        _, a = synth_generate(self.noiseless_config(seed=1, p_false_positive=0.05))
        _, b = synth_generate(self.noiseless_config(seed=2, p_false_positive=0.05))
        assert any(not np.array_equal(ra.frames, rb.frames) for ra, rb in zip(a, b))

    def test_oversized_silhouette_rejected(self):
        big = np.ones((10, 10), dtype=bool)
        other = big.copy()
        other[0, 0] = False
        cfg = self.noiseless_config(grid_width=8, grid_height=8, target_shapes=[big, other])
        with pytest.raises(ValueError, match="larger than grid"):
            synth_generate(cfg)

    def test_duplicate_shapes_rejected(self):
        cfg = self.noiseless_config(target_shapes=[np.ones((4, 4), bool)] * 2)
        with pytest.raises(ValueError, match="distinct"):
            synth_generate(cfg)

    def test_target_moves_across_frames(self):
        cfg = self.noiseless_config(frames_per_recording=60, target_speed=0.5)
        _, recs = synth_generate(cfg)
        rec = recs[0]
        rows_with_target = [np.nonzero((rec.frames[k] == cfg.target_depth_code).any(axis=1))[0]
                            for k in range(rec.n_frames)]
        first = next(r for r in rows_with_target if len(r))
        last = next(r for r in reversed(rows_with_target) if len(r))
        assert last.mean() > first.mean()  # vertical drop

    def test_default_silhouettes_equal_area_distinct(self):
        shapes = default_silhouettes(7, seed=1)
        areas = {int(s.sum()) for s in shapes[:5]}
        assert len(areas) == 1
        flat = [tuple(s.ravel().tolist()) for s in shapes]
        assert len(set(flat)) == len(flat)

    def test_manifest_matches_recordings(self):
        cfg = self.noiseless_config()
        manifest, recs = synth_generate(cfg)
        assert len(manifest) == len(recs) == 4
        for entry, rec in zip(manifest.entries, recs):
            assert entry.class_id == rec.class_id
            assert entry.recording_id == rec.recording_id


class TestSplit:
    def test_paper_scale_sizes(self):
        train, test = split_indices(24000, 0.9, seed=0)
        assert len(train) == 21600
        assert len(test) == 2400

    def test_partition(self):
        train, test = split_indices(100, 0.7, seed=3)
        assert set(train.tolist()) | set(test.tolist()) == set(range(100))
        assert not set(train.tolist()) & set(test.tolist())

    def test_stable_per_seed(self):
        a1, b1 = split_indices(50, 0.8, seed=9)
        a2, b2 = split_indices(50, 0.8, seed=9)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_seeds_differ(self):
        differing = 0
        for seed in range(100):
            a, _ = split_indices(100, 0.5, seed=seed)
            b, _ = split_indices(100, 0.5, seed=seed + 1000)
            if not np.array_equal(a, b):
                differing += 1
        assert differing >= 1

    def test_bad_fraction_rejected(self):
        for fraction in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_indices(10, fraction, seed=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_indices(0, 0.5, seed=0)

    def test_recording_granularity(self):
        # split_indices returns recording indices, never per-frame rows
        train, test = split_indices(10, 0.8, seed=1)
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))
