"""PoliCheck-style privacy-policy consistency analysis (paper §7.2)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "CODER_NOISE_RATE": "validation",
        "DISCLOSURE_CLASSES": "analyzer",
        "DataFlow": "extraction",
        "DataOntology": "ontology",
        "Disclosure": "analyzer",
        "EntityOntology": "ontology",
        "PolicheckAnalyzer": "analyzer",
        "TermMatch": "ontology",
        "ValidationReport": "validation",
        "default_data_ontology": "ontology",
        "default_entity_ontology": "ontology",
        "extract_datatype_flows": "extraction",
        "extract_endpoint_flows": "extraction",
        "human_code_flows": "validation",
        "score_multiclass": "validation",
    },
)
