"""Test-time contrastive concepts for open-vocabulary segmentation.

The package mines concepts that frequently surround a query concept in
caption corpora, filters them, and uses them as additional prompts that
absorb background pixels during prompt-based segmentation before being
discarded from the final mask.
"""

__version__ = "0.1.0"
