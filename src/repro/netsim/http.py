"""HTTP message models.

Application traffic in the simulation is HTTP(-over-TLS).  These models are
what a device hands to the router; whether an observer sees the parsed
message or only ciphertext metadata is decided by the vantage point
(:mod:`repro.netsim.router`).
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, urlencode, urlparse

__all__ = ["HttpRequest", "HttpResponse", "estimate_size", "EMPTY_MAPPING"]

QueryPairs = Tuple[Tuple[str, str], ...]

_METHODS = frozenset({"GET", "POST", "PUT", "DELETE", "HEAD"})

#: Exact types :func:`estimate_size` knows are not mappings without an ABC check.
_NON_MAPPING_TYPES = frozenset({int, float, bool, type(None), list, tuple})
#: Bytes :func:`estimate_size` adds to every message (≈ framing overhead).
_FRAMING = 64


class _EmptyMapping(abc.Mapping):
    """An immutable empty mapping that equals, and prints as, ``{}``.

    There is one instance, :data:`EMPTY_MAPPING`, and it pickles by
    reference to it: unlike ``types.MappingProxyType({})`` it crosses a
    shard worker's result pipe, and arrives as the same shared object.
    """

    __slots__ = ()

    def __getitem__(self, key: str) -> Any:
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        return "EMPTY_MAPPING"


#: The ``set_cookies`` of every response that sets none; the request log
#: keeps one reference per entry instead of one empty dict per response.
EMPTY_MAPPING: Mapping[str, Any] = _EmptyMapping()


@dataclass(frozen=True)
class HttpRequest:
    """An HTTP request issued by a device or browser; its URL is split once.

    ``body`` carries the parsed application payload (e.g. the data types a
    skill uploads); ``cookies`` carry client-side identifiers, which is what
    cookie-sync detection inspects.  ``url`` is split by
    :func:`urllib.parse.urlparse` once, at construction, into ``scheme``,
    ``host`` (no port), ``path`` and the raw query string; the query pairs
    are parsed from that string by :func:`urllib.parse.parse_qsl` only when
    an accessor first reads them, and kept.  :meth:`from_parts` builds a
    request from parts, pairs included, without parsing.  The parts are
    left out of equality, hashing, ``repr`` and pickling.
    """

    method: str
    url: str
    headers: Mapping[str, str] = field(default_factory=dict)
    cookies: Mapping[str, str] = field(default_factory=dict)
    body: Mapping[str, Any] = field(default_factory=dict)
    scheme: str = field(init=False, repr=False, compare=False)
    host: str = field(init=False, repr=False, compare=False)
    path: str = field(init=False, repr=False, compare=False)
    #: The query string, kept until :attr:`_pairs` is first read.
    _query: str = field(init=False, repr=False, compare=False)
    #: Parsed query pairs; ``None`` until first read.
    _parsed: Optional[QueryPairs] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parsed = urlparse(self.url)
        host = parsed.netloc.split(":")[0]
        _validate(self.method, parsed.scheme, host, self.url)
        # Frozen: the derived parts go straight into the instance dict.
        self.__dict__.update(
            scheme=parsed.scheme, host=host, path=parsed.path or "/",
            _query=parsed.query, _parsed=None if parsed.query else (),
        )

    @classmethod
    def from_parts(
        cls, method: str, scheme: str, host: str, path: str,
        query_pairs: QueryPairs = (), query_string: Optional[str] = None, *,
        headers: Optional[Mapping[str, str]] = None,
        cookies: Optional[Mapping[str, str]] = None,
        body: Optional[Mapping[str, Any]] = None,
    ) -> "HttpRequest":
        """The request for ``{scheme}://{host}{path}?{query_string}``, unparsed.

        ``query_string`` defaults to ``urlencode(query_pairs)``; pass it to
        share one encoding across requests.  The pairs must be what
        ``parse_qsl`` reads back from it: ``str`` keys, non-empty values.
        Validated as the constructor validates, but built without its
        ``__init__``/``__post_init__`` round trip.
        """
        if query_string is None:
            query_string = urlencode(query_pairs) if query_pairs else ""
        url = f"{scheme}://{host}{path}" + (f"?{query_string}" if query_string else "")
        _validate(method, scheme, host, url)
        request = object.__new__(cls)
        request.__dict__.update(
            method=method, url=url,
            headers={} if headers is None else headers,
            cookies={} if cookies is None else cookies,
            body={} if body is None else body,
            scheme=scheme, host=host, path=path or "/", _query="", _parsed=tuple(query_pairs),
        )
        return request

    def __reduce__(self):
        return (type(self), (self.method, self.url, self.headers, self.cookies, self.body))

    @property
    def _pairs(self) -> QueryPairs:
        """The query pairs, parsed on first read."""
        pairs = self._parsed
        if pairs is None:
            pairs = tuple(parse_qsl(self._query))
            self.__dict__["_parsed"] = pairs
        return pairs

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
        """Return a copy sending ``cookies``.

        The copy takes this (already validated) request's state as is,
        query pairs parsed or not; nothing is parsed or validated again.
        """
        copy = object.__new__(HttpRequest)
        state = copy.__dict__
        state.update(self.__dict__)
        state["cookies"] = cookies
        return copy

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

    def wire_size(self) -> int:
        """``estimate_size(self.to_payload())``, without building the payload."""
        pairs = self._pairs
        return (
            _REQUEST_FRAME
            + _value_size(self.method)
            + _value_size(self.url)
            + _value_size(self.host)
            + _value_size(self.path)
            + (estimate_size(dict(pairs)) - _FRAMING if pairs else 0)
            + _mapping_size(self.headers)
            + _mapping_size(self.cookies)
            + _mapping_size(self.body)
        )


@dataclass(frozen=True)
class HttpResponse:
    """An HTTP response delivered back to the client."""

    status: int
    headers: Mapping[str, str] = field(default_factory=dict)
    #: :data:`EMPTY_MAPPING` when the response sets no cookie.
    set_cookies: Mapping[str, str] = field(default_factory=lambda: EMPTY_MAPPING)
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

    def wire_size(self) -> int:
        """``estimate_size(self.to_payload())``, without building the payload."""
        return (
            _RESPONSE_FRAME
            + _value_size(self.status)
            + _mapping_size(self.headers)
            + _mapping_size(self.set_cookies)
            + _mapping_size(self.body)
            + _value_size(self.redirect_url)
        )


def _validate(method: str, scheme: str, host: str, url: str) -> None:
    """Raise ``ValueError`` for a method or URL no request may carry."""
    if method not in _METHODS:
        raise ValueError(f"unsupported HTTP method: {method}")
    if scheme not in ("http", "https") or not host:
        raise ValueError(f"invalid URL: {url}")


def estimate_size(payload: Mapping[str, Any]) -> int:
    """Rough wire size (bytes) of a parsed message, for flow statistics.

    Walks the payload iteratively; exact types are dispatched before the
    far costlier ABC ``isinstance``, which only unusual types reach.
    """
    total = _FRAMING
    stack = [payload]
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is str:
            total += len(value)
        elif kind is dict or (kind not in _NON_MAPPING_TYPES and isinstance(value, abc.Mapping)):
            for key, item in value.items():
                total += (len(key) if type(key) is str else len(str(key))) + 4
                if type(item) is str:
                    total += len(item)
                else:
                    stack.append(item)
        elif isinstance(value, (list, tuple)):
            total += 2 * len(value)
            stack.extend(value)
        else:
            total += len(str(value))
    return total


def _value_size(value: Any) -> int:
    """What ``value`` adds to :func:`estimate_size` as a payload field's value."""
    kind = type(value)
    if kind is str:
        return len(value)
    if kind is int or value is None:
        return len(str(value))
    return estimate_size(value) - _FRAMING


def _mapping_size(mapping: Mapping[str, Any]) -> int:
    """What ``dict(mapping)`` adds to :func:`estimate_size` as a field's value."""
    if not mapping:
        return 0
    return estimate_size(mapping if type(mapping) is dict else dict(mapping)) - _FRAMING


# The sizes of the payload skeletons: framing, field names and the ``kind``
# tag.  ``wire_size`` adds what each field's value contributes on top.
_REQUEST_FRAME = estimate_size(
    dict.fromkeys(("method", "url", "host", "path", "query", "headers", "cookies", "body"), "")
    | {"kind": "http-request"}
)
_RESPONSE_FRAME = estimate_size(
    dict.fromkeys(("status", "headers", "set_cookies", "body", "redirect_url"), "")
    | {"kind": "http-response"}
)
