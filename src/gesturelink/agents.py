"""Three-agent orchestration: matrix description, context dialogue, and
final grounding to a ranked function list.

The description stage is two completions (pose, then movement over the
pose's time span). The inference stage is a loop: each model turn either
asks the context agent a question or concludes with up to five ranked
function ids. Every turn is one _exchange with the model, and each
parser returns the record the transcript stores. Parsing is lenient on
input (fenced or prefixed JSON is tolerated, one repair retry per
malformed turn) and strict on output (transcripts store canonical JSON).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .context import (
    ContextLibrary,
    FunctionEntry,
    function_entries,
    render_library_prompt,
    resolve_placeholders,
)
from .encoder import GestureStateMatrix, serialize_matrix, serialize_movement
from .errors import MalformedInput, ParseError
from .prompts import AgentPromptSet, render_prompt
from .transport import ChatMessage, CompletionRequest, UsageRecord

logger = logging.getLogger(__name__)

# Longest model reply extract_json_object will parse. Trying a decode at
# every "{" costs time that grows with the square of the reply length,
# so the cap bounds the cost of a degenerate reply.
MAX_REPLY_CHARS = 32_000
_DECODER = json.JSONDecoder()

_REPAIR_REMINDER = (
    "Your previous reply could not be parsed. Respond again with exactly one "
    "JSON object in the documented output format, and nothing else."
)
# A malformed reply is re-asked once, with _REPAIR_REMINDER appended.
_PARSE_ATTEMPTS = 2
_FORCED_CONCLUSION = (
    "You have reached the round limit. Do not ask further questions: respond "
    "now with your final JSON conclusion ranking up to five function ids."
)


@dataclass(frozen=True)
class SessionConfig:
    max_rounds: int = 10

    def __post_init__(self):
        if self.max_rounds < 1:
            raise MalformedInput("max_rounds must be >= 1")


@dataclass(frozen=True)
class PoseDescription:
    candidate_gestures: str
    time_span: tuple[int, int]


@dataclass(frozen=True)
class Conclusion:
    """Final ranking, most to least likely; ids validated and unique."""

    ranked_functions: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.ranked_functions) <= 5:
            raise ParseError("conclusion must rank 1-5 functions")
        if len(set(self.ranked_functions)) != len(self.ranked_functions):
            raise ParseError("conclusion ids must be unique")


@dataclass(frozen=True)
class TranscriptTurn:
    role: str  # description_pose | description_movement | inference | context | outcome
    raw: str
    parsed: dict
    usage: UsageRecord | None = None

    def to_record(self) -> dict:
        return {
            "role": self.role,
            "raw": self.raw,
            "parsed": self.parsed,
            "input_tokens": self.usage.input_tokens if self.usage else 0,
            "output_tokens": self.usage.output_tokens if self.usage else 0,
            "latency": self.usage.latency if self.usage else 0.0,
        }


@dataclass
class DialogueTranscript:
    turns: list[TranscriptTurn] = field(default_factory=list)

    def append(self, turn: TranscriptTurn) -> None:
        self.turns.append(turn)

    @property
    def rounds(self) -> int:
        """Inference-agent rounds (questions plus the concluding turn)."""
        return sum(t.role == "inference" for t in self.turns)

    @property
    def total_input_tokens(self) -> int:
        return sum(t.usage.input_tokens for t in self.turns if t.usage)

    @property
    def total_output_tokens(self) -> int:
        return sum(t.usage.output_tokens for t in self.turns if t.usage)

    @property
    def total_latency(self) -> float:
        return sum(t.usage.latency for t in self.turns if t.usage)

    def to_jsonl(self) -> str:
        return (
            "\n".join(
                json.dumps(t.to_record(), ensure_ascii=False, sort_keys=True)
                for t in self.turns
            )
            + "\n"
        )


def extract_json_object(raw: str) -> dict:
    """First JSON object in raw text; tolerates code fences and prose.

    Decodes at every "{" in order and returns the first object that
    parses. Replies longer than MAX_REPLY_CHARS and objects nested too
    deeply to decode raise ParseError.
    """
    if len(raw) > MAX_REPLY_CHARS:
        raise ParseError(f"response of {len(raw)} characters exceeds {MAX_REPLY_CHARS}")
    start = raw.find("{")
    try:
        while start != -1:
            try:
                return _DECODER.raw_decode(raw, start)[0]
            except json.JSONDecodeError:
                start = raw.find("{", start + 1)
    except RecursionError:
        raise ParseError("JSON in response is nested too deeply") from None
    raise ParseError(f"no JSON object found in response: {raw[:120]!r}")


def parse_inference_turn(raw: str) -> dict:
    """{"thought", "question"} or {"thought", "conclusion": [ids]}; the ids
    are validated against the function list later."""
    obj = extract_json_object(raw)
    thought = obj.get("thought")
    if not isinstance(thought, str) or not thought.strip():
        raise ParseError("inference turn missing a non-empty 'thought'")
    question = obj.get("question")
    conclusion = obj.get("conclusion")
    if (question is None) == (conclusion is None):
        raise ParseError("inference turn must carry exactly one of question/conclusion")
    if question is not None:
        if not isinstance(question, str) or not question.strip():
            raise ParseError("'question' must be a non-empty string")
        return {"thought": thought, "question": question}
    if not isinstance(conclusion, list) or not conclusion:
        raise ParseError("'conclusion' must be a non-empty list of function ids")
    return {"thought": thought, "conclusion": [str(item) for item in conclusion]}


def parse_context_turn(raw: str) -> dict:
    """{"thought", "answer"}."""
    obj = extract_json_object(raw)
    thought = obj.get("thought")
    answer = obj.get("answer")
    if not isinstance(thought, str) or not isinstance(answer, str) or not answer.strip():
        raise ParseError("context turn needs 'thought' and a non-empty 'answer'")
    return {"thought": thought, "answer": answer}


def _exchange(llm, messages, parser):
    """One agent turn: ask, and re-ask once with _REPAIR_REMINDER when the
    reply cannot be parsed. Returns (record, error, raw, usage) for the
    last reply: record is what parser returned, or None and error says
    why."""
    for attempt in range(1, _PARSE_ATTEMPTS + 1):
        if attempt > 1:
            messages = messages + [
                ChatMessage("assistant", raw or "(empty)"),
                ChatMessage("user", _REPAIR_REMINDER),
            ]
        raw, usage = llm.complete(CompletionRequest(messages=tuple(messages)))
        try:
            return parser(raw), None, raw, usage
        except ParseError as exc:
            logger.warning("malformed agent reply (attempt %d): %s", attempt, exc)
            error = f"unparseable after {_PARSE_ATTEMPTS} attempts: {exc}"
    return None, error, raw, usage


def _describe(llm, role: str, prompt: str, parser, transcript) -> dict:
    """One description turn, recorded as a `role` turn; ParseError if the
    reply stays unparseable."""
    record, error, raw, usage = _exchange(llm, [ChatMessage("user", prompt)], parser)
    if record is None:
        raise ParseError(error)
    if transcript is not None:
        transcript.append(TranscriptTurn(role=role, raw=raw, parsed=record, usage=usage))
    return record


def describe_pose(
    matrix: GestureStateMatrix,
    prompts: AgentPromptSet,
    llm,
    transcript: DialogueTranscript | None = None,
) -> PoseDescription:
    """Pose-channel description: candidate gestures plus the time span,
    clamped to the matrix's column range."""
    prompt = render_prompt(
        prompts.description_pose_prompt, matrix_text=serialize_matrix(matrix)
    )

    def parser(raw: str) -> dict:
        obj = extract_json_object(raw)
        gestures = obj.get("candidate_gestures")
        span = obj.get("time_span")
        if not isinstance(gestures, str) or not gestures.strip():
            raise ParseError("missing 'candidate_gestures'")
        if not (isinstance(span, list) and len(span) == 2):
            raise ParseError("'time_span' must be [start, end]")
        try:
            start, end = int(span[0]), int(span[1])
        except (TypeError, ValueError):
            raise ParseError("'time_span' entries must be integers") from None
        clamped = (min(max(start, 0), matrix.T - 1), min(max(end, 0), matrix.T - 1))
        if clamped != (start, end):
            logger.warning("time span %s clamped to %s for T=%d", (start, end), clamped, matrix.T)
        if clamped[0] > clamped[1]:
            raise ParseError(f"time span reversed: {span}")
        return {"candidate_gestures": gestures, "time_span": list(clamped)}

    record = _describe(llm, "description_pose", prompt, parser, transcript)
    return PoseDescription(record["candidate_gestures"], tuple(record["time_span"]))


def describe_movement(
    matrix: GestureStateMatrix,
    span: tuple[int, int],
    prompts: AgentPromptSet,
    llm,
    transcript: DialogueTranscript | None = None,
) -> str:
    """Movement description over the pose's time span."""
    prompt = render_prompt(
        prompts.description_movement_prompt,
        movement_text=serialize_movement(matrix, span[0], span[1]),
    )

    def parser(raw: str) -> dict:
        obj = extract_json_object(raw)
        movement = obj.get("movement")
        if not isinstance(movement, str):
            raise ParseError("missing 'movement'")
        return {"movement": movement}

    return _describe(llm, "description_movement", prompt, parser, transcript)["movement"]


def compose_description(pose: PoseDescription, movement: str) -> str:
    """Bullet-style gesture description; deterministic byte output."""
    bullets = []
    for line in pose.candidate_gestures.splitlines():
        line = line.strip()
        if line:
            bullets.append(line if line.startswith("- ") else f"- {line}")
    movement = movement.strip()
    if movement:
        bullets.append(movement if movement.startswith("- ") else f"- {movement}")
    return "\n".join(bullets)


def _function_list_text(functions: tuple[FunctionEntry, ...]) -> str:
    lines = []
    for f in functions:
        loc = ", ".join(f"{v:g}" for v in f.location)
        lines.append(f"- {f.id}: {f.name} (location: {loc})")
    return "\n".join(lines)


def _prune_conclusion(ids: list[str], valid: set[str]) -> tuple[str, ...]:
    """Drop unknown ids and duplicates (keep first), cap at five."""
    seen: list[str] = []
    for fid in ids:
        if fid in valid and fid not in seen:
            seen.append(fid)
        elif fid not in valid:
            logger.warning("dropping unknown function id %r from conclusion", fid)
        if len(seen) == 5:
            break
    return tuple(seen)


def _outcome(transcript: DialogueTranscript, **parsed) -> None:
    """Close the transcript with an outcome marker."""
    transcript.append(TranscriptTurn(role="outcome", raw="", parsed=parsed))


def _negative(transcript: DialogueTranscript, reason: str) -> tuple[None, DialogueTranscript]:
    _outcome(transcript, result="negative", reason=reason)
    return None, transcript


def run_inference_session(
    description: str,
    lib: ContextLibrary,
    prompts: AgentPromptSet,
    llm,
    cfg: SessionConfig | None = None,
    transcript: DialogueTranscript | None = None,
) -> tuple[Conclusion | None, DialogueTranscript]:
    """Inference/context dialogue until a valid conclusion, the round cap
    plus one forced turn, or an irreparable reply (Negative).

    Returns (Conclusion or None, transcript); the transcript always ends
    with an outcome marker. A TransportError propagates and leaves the
    turns so far in the transcript the caller passed in.
    """
    cfg = cfg or SessionConfig()
    transcript = transcript if transcript is not None else DialogueTranscript()
    if "function_list" not in lib:
        raise MalformedInput("session needs a function_list context")
    functions = function_entries(lib)
    valid_ids = {f.id for f in functions}

    inference_messages = [
        ChatMessage("system", render_prompt(
            prompts.inference_prompt, function_list=_function_list_text(functions)
        )),
        ChatMessage("user", f"Gesture description:\n{description}"),
    ]
    context_messages = [
        ChatMessage("system", render_prompt(
            prompts.context_prompt, library_overview=render_library_prompt(lib)
        )),
    ]

    rounds = 0
    forced = False
    while True:
        rounds += 1
        turn, error, raw, usage = _exchange(llm, inference_messages, parse_inference_turn)
        transcript.append(TranscriptTurn(
            role="inference", raw=raw, parsed=turn or {"error": error}, usage=usage
        ))
        if turn is None:
            return _negative(transcript, f"unparseable inference turn: {error}")
        inference_messages.append(ChatMessage("assistant", raw or "(empty)"))

        if "conclusion" in turn:
            kept = _prune_conclusion(turn["conclusion"], valid_ids)
            if not kept:
                return _negative(transcript, "conclusion contained no valid function ids")
            _outcome(transcript, result="conclusion", ranked=list(kept))
            return Conclusion(ranked_functions=kept), transcript

        if forced:
            return _negative(transcript, "no conclusion after the forced turn")
        if rounds >= cfg.max_rounds:
            forced = True
            inference_messages.append(ChatMessage("user", _FORCED_CONCLUSION))
            continue

        context_messages.append(ChatMessage("user", turn["question"]))
        reply, _, raw, usage = _exchange(llm, context_messages, parse_context_turn)
        if reply is None:
            # Lenient fallback: deliver the raw reply as the answer.
            reply = {"answer": raw or "no answer available", "parse_fallback": True}
        resolved = resolve_placeholders(lib, reply["answer"])
        reply["delivered"] = resolved
        transcript.append(TranscriptTurn(role="context", raw=raw, parsed=reply, usage=usage))
        context_messages.append(ChatMessage("assistant", raw or "(empty)"))
        inference_messages.append(ChatMessage("user", f"Context Management Agent: {resolved}"))


def ground_matrix(
    matrix: GestureStateMatrix,
    lib: ContextLibrary,
    prompts: AgentPromptSet,
    llm,
    cfg: SessionConfig | None = None,
    transcript: DialogueTranscript | None = None,
) -> tuple[Conclusion | None, DialogueTranscript]:
    """Full grounding of one matrix: describe (pose + movement), compose,
    then run the inference session. One transcript covers all stages; a
    TransportError leaves the turns so far in the one passed in."""
    transcript = transcript if transcript is not None else DialogueTranscript()
    try:
        pose = describe_pose(matrix, prompts, llm, transcript)
        movement = describe_movement(matrix, pose.time_span, prompts, llm, transcript)
    except ParseError as exc:
        return _negative(transcript, f"description failed: {exc}")
    description = compose_description(pose, movement)
    return run_inference_session(description, lib, prompts, llm, cfg, transcript)
