"""Event-based processing of SPAD direct time-of-flight depth recordings.

Converts frame-based depth recordings into sparse event streams (First-AND,
On-Off, OOBU), learns binary feature extractors from the events, and
evaluates pooling + linear-classifier pipelines against the frame-based
baseline, reporting accuracy and data-rate reduction.
"""

__version__ = "0.1.0"

from .core import EventStream, Recording, StreamKind
from .dataio import (DatasetManifest, SynthConfig, augment, load_manifest, load_recording,
                     save_manifest, save_recording, split_indices, synth_generate)
from .eventgen import (FirstAndParams, count_ratio_demo, datarate_stats,
                       firstand_convert, onoff_convert, oobu_convert, read_stream,
                       write_stream)
from .feast import (BinaryFeatureSet, ContinuousFeatureSet, FeastParams, binarize,
                    feast_infer, feast_train, load_features, save_features)
from .classify import (EvalReport, PoolConfig, predict_batch, region_from_activity,
                       train_classifier)
from .pipeline import PipelineParams, PipelineSpec, evaluate_cells, run_pipeline

__all__ = [
    "EventStream", "Recording", "StreamKind",
    "DatasetManifest", "SynthConfig", "augment", "load_manifest", "load_recording",
    "save_manifest", "save_recording", "split_indices", "synth_generate",
    "FirstAndParams", "count_ratio_demo", "datarate_stats",
    "firstand_convert", "onoff_convert", "oobu_convert", "read_stream", "write_stream",
    "BinaryFeatureSet", "ContinuousFeatureSet", "FeastParams", "binarize",
    "feast_infer", "feast_train", "load_features", "save_features",
    "EvalReport", "PoolConfig", "predict_batch",
    "region_from_activity", "train_classifier",
    "PipelineParams", "PipelineSpec", "evaluate_cells", "run_pipeline",
]
