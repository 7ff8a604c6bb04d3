"""HTTP message models.

Application traffic in the simulation is HTTP(-over-TLS).  These models are
what a device hands to the router; whether an observer sees the parsed
message or only ciphertext metadata is decided by the vantage point
(:mod:`repro.netsim.router`).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, urlencode, urlparse

__all__ = ["HttpRequest", "HttpResponse", "estimate_size"]

QueryPairs = Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class HttpRequest:
    """An HTTP request issued by a device or browser; its URL is parsed once.

    ``body`` carries the parsed application payload (e.g. the data types a
    skill uploads); ``cookies`` carry client-side identifiers, which is what
    cookie-sync detection inspects.  ``url`` is split by
    :func:`urllib.parse.urlparse` once, at construction, into ``scheme``,
    ``host`` (no port), ``path`` and the query pairs, which every accessor
    reads; :meth:`from_parts` builds a request from parts without parsing.
    The parts are left out of equality, hashing, ``repr`` and pickling.
    """

    method: str
    url: str
    headers: Mapping[str, str] = field(default_factory=dict)
    cookies: Mapping[str, str] = field(default_factory=dict)
    body: Mapping[str, Any] = field(default_factory=dict)
    #: ``(scheme, host, path, query pairs)`` of ``url``, if already known.
    parts: InitVar[Optional[Tuple[str, str, str, QueryPairs]]] = None
    scheme: str = field(init=False, repr=False, compare=False)
    host: str = field(init=False, repr=False, compare=False)
    path: str = field(init=False, repr=False, compare=False)
    _pairs: QueryPairs = field(init=False, repr=False, compare=False)

    def __post_init__(self, parts: Optional[Tuple[str, str, str, QueryPairs]]) -> None:
        if self.method not in {"GET", "POST", "PUT", "DELETE", "HEAD"}:
            raise ValueError(f"unsupported HTTP method: {self.method}")
        if parts is None:
            parsed = urlparse(self.url)
            host, pairs = parsed.netloc.split(":")[0], tuple(parse_qsl(parsed.query))
            parts = (parsed.scheme, host, parsed.path or "/", pairs)
        if parts[0] not in ("http", "https") or not parts[1]:
            raise ValueError(f"invalid URL: {self.url}")
        for name, value in zip(("scheme", "host", "path", "_pairs"), parts):
            object.__setattr__(self, name, value)

    @classmethod
    def from_parts(
        cls, method: str, scheme: str, host: str, path: str,
        query_pairs: QueryPairs = (), query_string: Optional[str] = None, **fields: Any,
    ) -> "HttpRequest":
        """The request for ``{scheme}://{host}{path}?{query_string}``, unparsed.

        ``query_string`` defaults to ``urlencode(query_pairs)``; pass it to
        share one encoding across requests.  The pairs must be what
        ``parse_qsl`` reads back from it: ``str`` keys, non-empty values.
        """
        if query_string is None:
            query_string = urlencode(query_pairs)
        url = f"{scheme}://{host}{path}" + (f"?{query_string}" if query_string else "")
        return cls(method, url, parts=(scheme, host, path or "/", tuple(query_pairs)), **fields)

    def __reduce__(self):
        return (type(self), (self.method, self.url, self.headers, self.cookies, self.body))

    @property
    def query(self) -> Dict[str, str]:
        """Query parameters, last value winning for repeated keys.

        Kept for backward compatibility; sync/ID detection should use
        :attr:`query_pairs` or :meth:`query_values`, which preserve
        duplicated parameters (``uid=a&uid=b`` carries *two* IDs).
        """
        return dict(self._pairs)

    @property
    def query_pairs(self) -> List[Tuple[str, str]]:
        """All query parameters in URL order, duplicates preserved."""
        return list(self._pairs)

    def query_values(self, key: str) -> List[str]:
        """Every value carried for ``key``, in URL order."""
        return [value for name, value in self._pairs if name == key]

    @property
    def is_https(self) -> bool:
        return self.scheme == "https"

    def with_cookies(self, cookies: Mapping[str, str]) -> "HttpRequest":
        """Return a copy sending ``cookies``; the URL is not parsed again."""
        parts = (self.scheme, self.host, self.path, self._pairs)
        return HttpRequest(self.method, self.url, self.headers, cookies, self.body, parts=parts)

    def with_query(self, **params: str) -> "HttpRequest":
        """Return a copy with extra query parameters merged in."""
        merged = self.query
        merged.update(params)
        rebuilt = urlparse(self.url)._replace(query=urlencode(merged)).geturl()
        return HttpRequest(
            method=self.method,
            url=rebuilt,
            headers=self.headers,
            cookies=self.cookies,
            body=self.body,
        )

    def to_payload(self) -> Dict[str, Any]:
        """Serialize into a packet payload mapping."""
        return {
            "kind": "http-request",
            "method": self.method,
            "url": self.url,
            "host": self.host,
            "path": self.path,
            "query": self.query,
            "headers": dict(self.headers),
            "cookies": dict(self.cookies),
            "body": dict(self.body),
        }


@dataclass(frozen=True)
class HttpResponse:
    """An HTTP response delivered back to the client."""

    status: int
    headers: Mapping[str, str] = field(default_factory=dict)
    set_cookies: Mapping[str, str] = field(default_factory=dict)
    body: Mapping[str, Any] = field(default_factory=dict)
    #: Follow-up URL for 3xx responses — how cookie-sync redirect chains run.
    redirect_url: Optional[str] = None

    def __post_init__(self) -> None:
        if not 100 <= self.status <= 599:
            raise ValueError(f"invalid HTTP status: {self.status}")
        if self.redirect_url is not None and not 300 <= self.status <= 399:
            raise ValueError("redirect_url requires a 3xx status")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": "http-response",
            "status": self.status,
            "headers": dict(self.headers),
            "set_cookies": dict(self.set_cookies),
            "body": dict(self.body),
            "redirect_url": self.redirect_url,
        }


def estimate_size(payload: Mapping[str, Any]) -> int:
    """Rough wire size (bytes) of a parsed message, for flow statistics."""

    def measure(value: Any) -> int:
        kind = type(value)
        if kind is str:
            return len(value)
        # Exact-type checks first: an ABC isinstance costs far more.
        if kind is dict or isinstance(value, Mapping):
            return sum(len(str(k)) + measure(v) + 4 for k, v in value.items())
        if isinstance(value, (list, tuple)):
            return sum(measure(v) + 2 for v in value)
        return len(str(value))

    return 64 + measure(payload)  # 64 ≈ framing overhead
