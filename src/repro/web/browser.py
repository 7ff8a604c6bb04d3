"""Browser profiles, cookie jars, and the client-side web universe.

Each persona gets a *fresh* browser profile (§3.1) that is logged into
the persona's Amazon account — the cross-device link that lets Echo
interactions influence web ads.  The browser records every request and
response like OpenWPM's instrumentation does; cookie-sync detection and
bid collection both work from that log.

Browsers do not transit the home router (they ran on lab machines in the
paper); the web universe is its own dispatch table of domain handlers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.alexa.account import AmazonAccount
from repro.netsim.endpoints import registrable_domain
from repro.netsim.faults import DEFAULT_RETRY_POLICY, FaultPlan, RetryPolicy
from repro.netsim.http import EMPTY_MAPPING, HttpRequest, HttpResponse
from repro.netsim.router import NetworkError
from repro.obs.collector import NULL_OBS
from repro.util.clock import SimClock
from repro.util.ids import stable_hash

__all__ = ["CookieJar", "BrowserProfile", "Browser", "WebUniverse", "LoggedRequest"]

WebHandler = Callable[[HttpRequest], HttpResponse]

#: Redirect-chain depth guard (cookie-sync chains are short in practice).
MAX_REDIRECTS = 10


class CookieJar:
    """Per-registrable-domain cookie store, copy-on-write per domain.

    :meth:`set` replaces a domain's dict instead of changing it, so a
    dict :meth:`snapshot` hands out never changes afterwards: every
    request to a domain until its next ``set`` shares one.
    """

    def __init__(self) -> None:
        self._cookies: Dict[str, Dict[str, str]] = {}

    def set(self, domain: str, name: str, value: str) -> None:
        base = registrable_domain(domain)
        cookies = self._cookies.get(base)
        self._cookies[base] = {**cookies, name: value} if cookies else {name: value}

    def get(self, domain: str) -> Dict[str, str]:
        """Cookies sent to ``domain`` (same registrable domain only)."""
        return dict(self.snapshot(domain))

    def snapshot(self, domain: str) -> Mapping[str, str]:
        """:meth:`get` without the copy: shared, so read it, never change it."""
        return self._cookies.get(registrable_domain(domain), EMPTY_MAPPING)

    def domains(self) -> List[str]:
        return sorted(self._cookies)

    def __len__(self) -> int:
        return sum(len(v) for v in self._cookies.values())


@dataclass
class BrowserProfile:
    """A fresh browser profile bound to one persona."""

    profile_id: str
    persona: str
    jar: CookieJar = field(default_factory=CookieJar)
    account: Optional[AmazonAccount] = None

    def login_amazon(self, account: AmazonAccount) -> None:
        """Log into Amazon + the Alexa companion app (§3.1.1 step 9)."""
        self.account = account
        for name, value in account.amazon_cookies.items():
            self.jar.set("amazon.com", name, value)
            self.jar.set("amazon-adsystem.com", name, value)


@dataclass(frozen=True, slots=True)
class LoggedRequest:
    """One entry in the OpenWPM-style request log."""

    timestamp: float
    url: str
    method: str
    cookies_sent: Mapping[str, str]
    status: int
    set_cookies: Mapping[str, str]
    redirect_to: Optional[str]
    #: First URL of the redirect chain this request belongs to.
    chain_root: str


class WebUniverse:
    """Dispatch table for the browser-visible Internet."""

    def __init__(self) -> None:
        self._handlers: Dict[str, WebHandler] = {}

    def register(self, domain: str, handler: WebHandler) -> None:
        self._handlers[domain] = handler

    def handle(self, request: HttpRequest) -> HttpResponse:
        handler = self._handlers.get(request.host)
        if handler is None:
            return HttpResponse(status=404, body={"error": f"no site at {request.host}"})
        return handler(request)

    def __contains__(self, domain: object) -> bool:
        return domain in self._handlers


class Browser:
    """A cookie-aware, redirect-following, request-logging browser."""

    def __init__(
        self,
        profile: BrowserProfile,
        universe: WebUniverse,
        clock: SimClock,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        obs=NULL_OBS,
    ) -> None:
        self.profile = profile
        self.universe = universe
        self.clock = clock
        #: Seeded fault schedule, keyed by this profile's id — ``None``
        #: leaves the browser on a perfectly healthy network.
        self.faults = faults
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.obs = obs
        self.request_log: List[LoggedRequest] = []

    def get(self, target: Union[str, HttpRequest]) -> HttpResponse:
        """GET a URL, or send a request built with
        :meth:`HttpRequest.from_parts`, following redirects and recording
        every hop."""
        request = target if isinstance(target, HttpRequest) else HttpRequest("GET", target)
        return self._fetch(request, chain_root=request.url, depth=0)

    def _fetch(self, request: HttpRequest, chain_root: str, depth: int) -> HttpResponse:
        if depth > MAX_REDIRECTS:
            raise RuntimeError(f"redirect loop fetching {chain_root}")
        host = request.host
        cookies = self._cookies_for(host)
        request = request.with_cookies(cookies)
        response = self._dispatch(request)
        set_cookies = response.set_cookies
        if set_cookies is not EMPTY_MAPPING:
            for name, value in set_cookies.items():
                self.profile.jar.set(host, name, value)
        redirect_url = response.redirect_url
        clock = self.clock
        # Positional, in field order: timestamp, url, method, cookies_sent,
        # status, set_cookies, redirect_to, chain_root.
        self.request_log.append(
            LoggedRequest(
                clock.now, request.url, request.method, cookies,
                response.status, set_cookies, redirect_url, chain_root,
            )
        )
        clock.advance(0.02)
        if redirect_url is not None:
            return self._fetch(HttpRequest("GET", redirect_url), chain_root, depth + 1)
        return response

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        """Hand the request to the universe, faults and retries applied.

        Exhausted retries never raise: the hop degrades to a synthetic
        error response so the failed fetch still lands in the request log
        (OpenWPM records failed loads too) and callers checking
        ``response.ok`` degrade instead of crashing the crawl.
        """
        if self.faults is None:
            return self.universe.handle(request)

        def attempt() -> HttpResponse:
            decision = self.faults.decide(self.profile.profile_id, request.host)
            if decision is None:
                return self.universe.handle(request)
            self.obs.inc(f"web.faults.{decision.kind}")
            self.clock.advance(decision.seconds)
            if decision.kind == "slow":
                return self.universe.handle(request)
            if decision.kind == "http_5xx":
                return HttpResponse(
                    status=503,
                    headers={"x-injected-fault": "http-5xx"},
                    body={"error": f"service unavailable: {request.host}"},
                )
            reason = "NXDOMAIN" if decision.kind == "nxdomain" else "connection timed out"
            raise NetworkError(f"{reason}: {request.host} [injected fault]")

        try:
            return self.retry.call(self.clock, attempt, obs=self.obs, scope="web")
        except NetworkError:
            self.obs.inc("web.requests_failed")
            return HttpResponse(
                status=504,
                headers={"x-injected-fault": "unreachable"},
                body={"error": f"unreachable: {request.host}"},
            )

    def _cookies_for(self, host: str) -> Mapping[str, str]:
        """The jar's snapshot of the cookies sent to ``host`` — what the
        log keeps, shared with every other request that sent the same."""
        jar = self.profile.jar
        cookies = jar.snapshot(host)
        if not cookies:
            # First visit to this party: mint its first-party cookie, the
            # identifier ad services use for syncing.
            uid = stable_hash("uid", self.profile.profile_id, registrable_domain(host))
            jar.set(host, "uid", uid)
            cookies = jar.snapshot(host)
        return cookies
