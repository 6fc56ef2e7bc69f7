"""Test-time contrastive concepts for open-vocabulary segmentation.

The package mines concepts that frequently surround a query concept in
caption corpora, filters them, and uses them as additional prompts that
absorb background pixels during prompt-based segmentation before being
discarded from the final mask.
"""

from .ccgen import (
    BACKGROUND,
    CCDictionary,
    CCSet,
    build_dictionary,
    cc_bg,
    cc_d,
    cc_llm,
    cc_multi,
    cc_none,
    cc_privileged,
)
from .cooc import CoocMatrix, FreqMatrix, build_cooc, mine_corpus, normalize, select_all
from .corpus import Lexicon, normalize_concept, scan_corpus, tokenize
from .embed import EmbeddingTable, TableProvider, ToyEmbeddingProvider, cosines, nearest_neighbor
from .errors import (
    CCMineError,
    FormatError,
    MissingEmbeddingError,
    ResponseParseError,
    ServiceError,
    TransportError,
    ValidationError,
)
from .filters import DEFAULT_STOPWORDS, FilterConfig, VisibilityTable, filter_rows
from .llm import CC_GENERATION, PART_REMOVAL, VISIBILITY, LLMClient, parse_cc_list, parse_visibility, render
from .metrics import GroundTruth, aggregate_iou_single, iou_single_image, load_ground_truth
from .segment import (
    BOTTOM,
    FeatureMap,
    PromptSet,
    SegMap,
    apply_cc_mask,
    bilinear_resize,
    build_prompt_set,
    patch_logits,
    remap_cc_to_background,
    segment_pixels,
    sigmoid,
    upsample_and_argmax,
)

__version__ = "0.1.0"
