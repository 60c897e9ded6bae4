"""spandep: joint span-based frame parsing and bilexical semantic dependency
parsing, trained from disjoint corpora with latent structure."""

__version__ = "0.1.0"

from .parts import (  # noqa: F401
    VIRTUAL_ROOT,
    Argument,
    CandidateSpace,
    CrossTask,
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Head,
    LabeledArc,
    Ontology,
    Predicate,
    Sentence,
    SpaceLimits,
    SpandepError,
    Target,
    Token,
    UnlabeledArc,
    build_candidate_space,
    make_sentence,
    weighted_hamming,
)
from .autodiff import (  # noqa: F401
    Graph,
    Node,
    ParameterStore,
    clip_and_step,
    grad_check,
)
from .encoder import Encoder, Vocabulary, build_vocabularies  # noqa: F401
from .model import ModelConfig, ParserModel, SpaceScores  # noqa: F401
from .inference import (  # noqa: F401
    DecodeResult,
    GraphConstraints,
    Infeasible,
    build_factor_graph,
    cost_augment,
    decode,
    drop_sparse_cross_task,
    semi_markov_map,
    semi_markov_marginals,
)
from .pruning import (  # noqa: F401
    PruneConfig,
    PrunerModel,
    load_pruner,
    pretrain_arc_pruner,
    pretrain_span_pruner,
    prune_arcs,
    prune_spans,
    retain_arcs,
    retain_spans,
    save_pruner,
)
from .training import (  # noqa: F401
    TrainConfig,
    TrainResult,
    ensemble_scores,
    latent_hinge_loss,
    predict_dependencies,
    predict_frames,
    sdp_hinge_loss,
    train,
)
from .evaluation import (  # noqa: F401
    ErrorBreakdown,
    FnEvalResult,
    LengthBin,
    SdpEvalResult,
    error_breakdown,
    eval_frames,
    eval_sdp,
    length_binned_pr,
)
from .formats import (  # noqa: F401
    FormatError,
    load_embeddings,
    load_model,
    ontology_hash,
    ontology_to_dict,
    read_frames,
    read_ontology,
    read_sdp,
    save_model,
    write_frames,
    write_sdp,
)
