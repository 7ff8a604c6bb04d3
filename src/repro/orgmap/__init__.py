"""Organization mapping: entity lists, WHOIS, filter lists, and resolution.

The auditor-side knowledge used to turn raw endpoints from captures into
organizations and advertising/tracking labels (paper §3.2, §4.2).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "Attribution": "resolver",
        "EntityDatabase": "entity_db",
        "FilterList": "filterlists",
        "FilterRule": "filterlists",
        "OrgEntity": "entity_db",
        "OrgResolver": "resolver",
        "REDACTED": "whois",
        "UNKNOWN_ORG": "resolver",
        "WhoisRecord": "whois",
        "WhoisService": "whois",
        "parse_rules": "filterlists",
    },
)
