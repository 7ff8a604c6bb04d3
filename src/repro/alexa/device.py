"""Echo devices: the commercial Echo and the instrumented AVS Echo.

:class:`EchoDevice` models a 4th-gen Amazon Echo: all of its traffic is
HTTPS, so the router capture sees only encrypted metadata.

:class:`AVSEcho` models the paper's instrumented AVS-SDK build on a
Raspberry Pi (§3.2): it logs every application payload *before*
encryption into :attr:`AVSEcho.plaintext_log`, only talks to Amazon
endpoints, and cannot stream third-party content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.alexa.account import AmazonAccount
from repro.alexa.cloud import VOICE_ENDPOINT, AlexaCloud
from repro.alexa.voice_traits import SpeakerProfile
from repro.data.skill_catalog import SkillSpec
from repro.netsim.endpoints import registrable_domain
from repro.netsim.faults import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.netsim.http import HttpRequest, HttpResponse
from repro.netsim.router import NetworkError, Router
from repro.obs.collector import NULL_OBS
from repro.util.rng import Seed

__all__ = ["EchoDevice", "AVSEcho", "PlaintextRecord"]

#: Amazon-owned registrable domains the AVS Echo is allowed to contact.
_AMAZON_BASE_DOMAINS = {
    "amazon.com",
    "amcs-tachyon.com",
    "amazonalexa.com",
    "cloudfront.net",
    "amazonaws.com",
    "acsechocaptiveportal.com",
    "fireoscaptiveportal.com",
    "alexa.a2z.com",
    "amazon-dss.com",
}


@dataclass(frozen=True)
class PlaintextRecord:
    """One pre-encryption message logged by the instrumented AVS SDK."""

    timestamp: float
    host: str
    payload: Mapping[str, Any]
    skill_id: Optional[str] = None


class EchoDevice:
    """A smart speaker attached to the router."""

    def __init__(
        self,
        device_id: str,
        account: AmazonAccount,
        router: Router,
        cloud: AlexaCloud,
        seed: Seed,
        retry: Optional[RetryPolicy] = None,
        obs=NULL_OBS,
    ) -> None:
        self.device_id = device_id
        self.account = account
        self.router = router
        self.cloud = cloud
        #: Shared client retry policy; backoff burns SimClock time only.
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.obs = obs
        self._rng = seed.rng("device", device_id)
        self.ip = router.attach_device(device_id)
        cloud.register_account(account)
        #: Set during a skill session for plaintext attribution.
        self._current_skill: Optional[str] = None
        # Raw audio carries the speaker's physical/emotional
        # characteristics (the patent-[69] threat); derived per speaker.
        self.speaker_profile = SpeakerProfile.derive(seed, account.email)

    # -- capabilities differ between device types ----------------------- #

    instrumented: bool = False
    allows_non_amazon: bool = True
    allows_streaming: bool = True

    # ------------------------------------------------------------------ #

    def say(self, utterance: str) -> Optional[str]:
        """Speak to the device.  Returns Alexa's spoken reply, or None
        when the wake word did not trigger."""
        command = self.cloud.voice.detect_wake_word(utterance, speaker=self.device_id)
        if command is None:
            return None
        try:
            response = self._send(
                VOICE_ENDPOINT,
                body={
                    "event": "recognize",
                    "voice_recording": command,
                    # Raw audio inevitably carries the speaker's voice signal.
                    "voice_characteristics": self.speaker_profile.as_signal(),
                    "customer_id": self.account.customer_id,
                    "device_id": self.device_id,
                    "allow_streaming": self.allows_streaming,
                },
            )
        except NetworkError:
            # Retries exhausted: the utterance is lost, the session isn't.
            self.obs.inc("device.voice_failures")
            return None
        if not response.ok:
            return None
        self._current_skill = (
            response.body.get("handled_by")
            if response.body.get("handled_by") != "alexa"
            else None
        )
        speech = self._execute_directives(response.body.get("directives", []))
        self._current_skill = None
        return speech

    def run_skill_session(self, spec: SkillSpec) -> List[Optional[str]]:
        """Utter every sample utterance of an installed skill (§3.1.1)."""
        replies = []
        for utterance in spec.sample_utterances:
            replies.append(self.say(f"alexa, {utterance}"))
            # Long responses are cut short, as in the paper's method.
            replies.append(self.say("alexa, stop!"))
        return replies

    def background_sync(self, endpoints: List[str]) -> None:
        """Periodic device housekeeping against Amazon endpoints.

        The per-skill Amazon endpoint mix (metrics, captive portal,
        updates) rides along each skill session as background traffic —
        which is why those endpoints show up attributed to skills in the
        per-skill captures (Table 1).  Metrics endpoints batch-upload
        several times per session, which is why device-metrics dominates
        the platform's tracking traffic share (§4.2, Table 2).
        """
        for domain in endpoints:
            repeats = 2 if _is_metrics_endpoint(domain) else 1
            for batch in range(repeats):
                try:
                    self._send(
                        domain,
                        body={
                            "event": "device-sync",
                            "batch": batch,
                            "device_id": self.device_id,
                            "customer_id": self.account.customer_id,
                        },
                    )
                except NetworkError:
                    # Endpoint unreachable (blocked or retries exhausted);
                    # drop the remaining batches and sync again next time.
                    self.obs.inc("device.sync_failures")
                    break

    # ------------------------------------------------------------------ #

    def _execute_directives(self, directives: List[Dict[str, Any]]) -> Optional[str]:
        speech: Optional[str] = None
        for directive in directives:
            kind = directive.get("kind")
            if kind == "speak":
                speech = directive.get("speech")
            elif kind in {"fetch", "stream"}:
                url = directive.get("url", "")
                host = url.split("/")[2] if url.startswith("https://") else ""
                if not host:
                    continue
                if not self._may_contact(host):
                    continue
                if kind == "stream" and not self.allows_streaming:
                    continue
                try:
                    self._send_raw(HttpRequest("GET", url))
                except NetworkError:
                    continue  # dead third-party endpoint; skill degrades
            elif kind == "upload":
                try:
                    self._send(
                        "api.amazonalexa.com",
                        body={
                            "event": "skill-data",
                            "skill_id": self._current_skill,
                            "data": dict(directive.get("data", {})),
                        },
                    )
                except NetworkError:
                    self.obs.inc("device.upload_failures")
                    continue  # the skill's data upload is lost, not the session
        return speech

    def _may_contact(self, host: str) -> bool:
        if self.allows_non_amazon:
            return True
        return registrable_domain(host) in _AMAZON_BASE_DOMAINS

    def _send(self, host: str, body: Mapping[str, Any]) -> HttpResponse:
        request = HttpRequest.from_parts("POST", "https", host, "/v1/events", body=dict(body))
        return self._send_raw(request)

    def _send_raw(self, request: HttpRequest) -> HttpResponse:
        if self.instrumented:
            self._log_plaintext(request)
        return self.retry.call(
            self.router.clock,
            lambda: self.router.send(self.device_id, request),
            obs=self.obs,
            scope="device",
        )

    def _log_plaintext(self, request: HttpRequest) -> None:
        raise NotImplementedError  # only AVSEcho logs plaintext


def _is_metrics_endpoint(domain: str) -> bool:
    """Amazon endpoints that batch-upload device telemetry."""
    return (
        domain.startswith("device-metrics")
        or domain.startswith("unagi")
        or "arteries" in domain
    )


class AVSEcho(EchoDevice):
    """Instrumented AVS-SDK device with a pre-encryption tap (§3.2)."""

    instrumented = True
    allows_non_amazon = False
    allows_streaming = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.plaintext_log: List[PlaintextRecord] = []

    def _log_plaintext(self, request: HttpRequest) -> None:
        self.plaintext_log.append(
            PlaintextRecord(
                timestamp=self.router.clock.now,
                host=request.host,
                payload=request.to_payload(),
                skill_id=self._current_skill,
            )
        )
