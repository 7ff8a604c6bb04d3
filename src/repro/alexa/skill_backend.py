"""Skill backend execution.

When the Alexa cloud routes an utterance to a skill, the backend produces
*directives*: content URLs for the device to fetch (this is how Echo
traffic reaches vendor and third-party endpoints) and data-collection
events to upload to Amazon (this is what the AVS Echo's plaintext tap
exposes to the data-type analysis of §7.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.data import datatypes as dt
from repro.data.skill_catalog import SkillSpec
from repro.util.rng import Seed, StreamFamily

__all__ = ["Directive", "SkillResult", "SkillBackend"]


@dataclass(frozen=True)
class Directive:
    """One instruction returned to the device."""

    kind: str  # "fetch" | "upload" | "speak" | "stream"
    url: str = ""
    speech: str = ""
    data: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in {"fetch", "upload", "speak", "stream"}:
            raise ValueError(f"unknown directive kind: {self.kind}")


@dataclass
class SkillResult:
    """Outcome of one skill invocation."""

    skill_id: str
    handled: bool
    directives: List[Directive] = field(default_factory=list)
    #: True when the backend was unavailable and Alexa answered instead
    #: (the "redirected to Alexa" failure mode of §3.1.1).
    redirected_to_alexa: bool = False


class SkillBackend:
    """Executes a skill's server-side logic for one invocation."""

    #: Probability a request is redirected to Alexa (backend flakiness).
    REDIRECT_RATE = 0.02

    def __init__(self, spec: SkillSpec, seed: Seed) -> None:
        self.spec = spec
        # One flakiness stream per customer: backends are shared across
        # accounts (streaming skills serve several personas), and a single
        # sequential stream would make one persona's redirects depend on
        # which other personas invoked the skill first.
        self._streams = StreamFamily(seed, "skill-backend", spec.skill_id)

    def invoke(
        self,
        transcript: str,
        customer_id: str,
        allow_streaming: bool = True,
        account_linked: bool = True,
    ) -> SkillResult:
        """Handle one routed utterance.

        ``allow_streaming`` is False on the AVS Echo, which cannot play
        streamed content (§3.2): stream/fetch directives are suppressed
        there by the caller, but data uploads still occur.

        ``account_linked`` is False when the skill requires an external
        account that was never linked (§3.1.1's iRobot example): the
        skill asks for linking and skips its content fetches, but Amazon-
        mediated data collection happens regardless.
        """
        if self._streams.random(customer_id) < self.REDIRECT_RATE:
            return SkillResult(
                skill_id=self.spec.skill_id, handled=False, redirected_to_alexa=True
            )

        if self.spec.requires_account_linking and not account_linked:
            directives = [
                Directive(
                    kind="speak",
                    speech=(
                        f"To use {self.spec.name}, please link your account in "
                        "the Alexa app."
                    ),
                )
            ]
            data = self._collected_data(transcript, customer_id)
            if data:
                directives.append(Directive(kind="upload", data=data))
            return SkillResult(
                skill_id=self.spec.skill_id, handled=True, directives=directives
            )

        directives: List[Directive] = [
            Directive(
                kind="speak",
                speech=f"Here is {self.spec.name}: your {self.spec.category} update.",
            )
        ]
        for domain in self.spec.other_endpoints:
            directives.append(
                Directive(kind="fetch", url=f"https://{domain}/content/{self.spec.skill_id}")
            )
        if self.spec.is_streaming and allow_streaming:
            directives.append(
                Directive(kind="stream", url=f"https://{self._stream_host()}/stream")
            )
        data = self._collected_data(transcript, customer_id)
        if data:
            directives.append(Directive(kind="upload", data=data))
        return SkillResult(
            skill_id=self.spec.skill_id, handled=True, directives=directives
        )

    def _stream_host(self) -> str:
        """Pick the streaming host: first non-Amazon endpoint or Amazon CDN."""
        if self.spec.other_endpoints:
            return self.spec.other_endpoints[0]
        return "d1s31zyz7dcc2d.cloudfront.net"

    def _collected_data(self, transcript: str, customer_id: str) -> Dict[str, str]:
        """Materialize the data types this skill collects (Table 13)."""
        values: Dict[str, str] = {}
        for data_type in self.spec.data_types:
            if data_type == dt.VOICE_RECORDING:
                values[data_type] = transcript
            elif data_type == dt.CUSTOMER_ID:
                values[data_type] = customer_id
            elif data_type == dt.SKILL_ID:
                values[data_type] = self.spec.skill_id
            elif data_type == dt.LANGUAGE:
                values[data_type] = "en-US"
            elif data_type == dt.TIMEZONE:
                values[data_type] = "America/Los_Angeles"
            elif data_type == dt.OTHER_PREFERENCES:
                values[data_type] = "units=imperial;explicit=off"
            elif data_type == dt.AUDIO_PLAYER_EVENTS:
                values[data_type] = "PlaybackStarted,PlaybackStopped"
        return values
