"""Deterministic attention-filtered cost volume toolkit for stereo matching."""

from .volume_core import (
    CostVolume,
    DisparityMap,
    FeatureMap,
    ProbabilityVolume,
    build_concat_volume,
    group_correlation,
    soft_argmin,
    softmax_over_disparity,
    unfold_cross,
)
from .acv import (
    PatchWeights,
    attention_filter,
    build_mapm_volume,
    filtered_correlation,
    generate_attention_weights,
    mapm_level,
)
from .fast_acv import (
    HypothesisSet,
    PropagationField,
    build_compact_concat,
    confidence,
    cross_propagate,
    cross_propagate_volume,
    estimate_uncertainty,
    f2i_mask,
    f2i_select,
    f2i_topk,
    fast_attention_filter,
    matching_score,
    predict_from_hypotheses,
    predict_from_mask,
    propagation_weights,
    read_disparity_planes,
    regress_initial_disparity,
    sample_cross_disparities,
)
from .pipeline import (
    FeaturePyramid,
    PipelineConfig,
    RunReport,
    box3d_regularize,
    build_feature_pyramid,
    census_features,
    expected_volume_elements,
    run_acv_pipeline,
    run_fast_acv_pipeline,
    run_pipeline,
)
from .metrics import (
    EvalMask,
    bad_x,
    d1,
    epe,
    exclude_border,
    smooth_l1,
)
from .io_formats import (
    GrayImage,
    StereogramSpec,
    generate_stereogram,
    read_gray_image,
    read_kitti_disp_png,
    read_pfm,
    write_gray_png,
    write_kitti_disp_png,
    write_pfm,
    write_pgm,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
