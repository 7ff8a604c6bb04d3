"""Privacy policies: corpus generation and PoliCheck consistency analysis."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "AMAZON_POLICY_TEXT": "corpus",
        "PHRASING_NOISE_RATE": "corpus",
        "PolicyCorpus": "corpus",
        "PolicyDocument": "corpus",
        "build_corpus": "corpus",
    },
)
