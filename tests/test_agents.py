import cProfile
import io
import json
import pstats
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    FLAT_HAND_POINTS,
    conclusion_reply,
    context_reply,
    make_frame,
    movement_reply,
    pose_reply,
    question_reply,
    seq_fixtures,
    smart_home_library,
)
from gesturelink.agents import (
    Conclusion,
    DialogueTranscript,
    MAX_REPLY_CHARS,
    PoseDescription,
    SessionConfig,
    compose_description,
    describe_movement,
    describe_pose,
    extract_json_object,
    ground_matrix,
    parse_inference_turn,
    run_inference_session,
)
from gesturelink.encoder import build_state_matrix
from gesturelink.errors import MalformedInput, ParseError, TransportError
from gesturelink.prompts import load_prompt_set
from gesturelink.rules import RuleThresholds
from gesturelink.transport import BackendConfig, LiveBackend, ScriptedBackend, UsageRecord

PROMPTS = load_prompt_set()
TH = RuleThresholds()


def make_matrix(t_count=4):
    samples = [make_frame(FLAT_HAND_POINTS, t=0.2 * j) for j in range(t_count)]
    return build_state_matrix(samples, TH)


class RecordingBackend:
    """Wraps a scripted backend and keeps every request for inspection."""

    def __init__(self, responses):
        self.inner = ScriptedBackend(seq_fixtures(*responses))
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        return self.inner.complete(req)


# --- JSON extraction ------------------------------------------------------------

def test_extract_plain_json():
    assert extract_json_object('{"a": 1}') == {"a": 1}


def test_extract_fenced_json():
    raw = 'Sure, here you go:\n```json\n{"thought": "t", "question": "q"}\n```'
    assert extract_json_object(raw)["question"] == "q"


def test_extract_first_object_from_prose():
    raw = 'I think {"a": {"b": 2}} and also {"c": 3}'
    assert extract_json_object(raw) == {"a": {"b": 2}}


def test_extract_object_in_prose_wins_over_a_later_fence():
    raw = 'Earlier I said {"a": 1}.\n```json\n{"b": 2}\n```'
    assert extract_json_object(raw) == {"a": 1}


def test_extract_handles_braces_inside_strings():
    raw = 'prefix {"a": "curly } brace", "b": 1} suffix'
    assert extract_json_object(raw) == {"a": "curly } brace", "b": 1}


def test_extract_no_object_raises():
    with pytest.raises(ParseError):
        extract_json_object("no json here")


@pytest.mark.parametrize(
    "raw",
    [
        "{" * 32_000,
        '{"' * 16_000,
        '{"a":' * 3000,
        "prose " + '{"a":' * 3000,
        '{"a": 1}' + " " * MAX_REPLY_CHARS,
    ],
    ids=["open-braces", "brace-quotes", "deep-nesting", "deep-nesting-in-prose", "over-cap"],
)
def test_extract_degenerate_reply_fails_fast(raw):
    start = time.perf_counter()
    with pytest.raises(ParseError):
        extract_json_object(raw)
    assert time.perf_counter() - start < 2.0


def test_extract_skips_an_integer_of_too_many_digits():
    nines = "9" * 4400
    with pytest.raises(ParseError, match="no JSON object found"):
        extract_json_object('x {"thought": "t", "conclusion": [' + nines + "]}")
    assert extract_json_object('{"a": ' + nines + '} {"b": 1}') == {"b": 1}


def test_extract_accepts_reply_at_cap():
    raw = '{"a": 1}'.ljust(MAX_REPLY_CHARS)
    assert extract_json_object(raw) == {"a": 1}


def every_brace_extract(raw: str) -> dict:
    """extract_json_object as it decoded at every "{": the reference a
    search that skips the "{"s where no object can start must match."""
    decoder = json.JSONDecoder()
    start = raw.find("{")
    try:
        while start != -1:
            try:
                return decoder.raw_decode(raw, start)[0]
            except ValueError:
                start = raw.find("{", start + 1)
    except RecursionError:
        raise ParseError("JSON in response is nested too deeply") from None
    raise ParseError(f"no JSON object found in response: {raw[:120]!r}")


def _extracted(extract, raw):
    try:
        return repr(extract(raw))
    except ParseError as exc:
        return f"ParseError: {exc}"


# Braces, quotes, JSON whitespace and whitespace JSON rejects (\x0b, \x0c,
# no-break and ideographic spaces), and pieces of valid objects.
_REPLY_TOKENS = ["{", "}", "{", "}", '"', '"', " ", "\t", "\n", "\r", "\x0b", "\x0c", "\xa0",
                 "\u3000", ":", ",", "[", "]", "\\", "1", "-", "a", "null", '"a"', '{"a": 1}',
                 "{}", '{ "b" : [2, {"c": {}}] }', "```json\n"]


@settings(max_examples=500, deadline=None)
@given(raw=st.lists(st.sampled_from(_REPLY_TOKENS), max_size=40).map("".join))
@example(raw='{\x0b"a": 1} {"b": 2}')
@example(raw="{\x0c}{ \t\n\r}")
@example(raw='{"a": ' * 3000)
@example(raw="{" * 500 + "}")
def test_extract_matches_a_decode_at_every_brace(raw):
    assert _extracted(extract_json_object, raw) == _extracted(every_brace_extract, raw)


# --- inference turn parsing ------------------------------------------------------

def test_parse_question_turn():
    turn = parse_inference_turn('{"thought": "hmm", "question": "what is the gaze?"}')
    assert turn["question"] == "what is the gaze?"
    assert "conclusion" not in turn


def test_parse_conclusion_turn():
    turn = parse_inference_turn('{"thought": "done", "conclusion": ["f3", "f1"]}')
    assert turn["conclusion"] == ["f3", "f1"]


def test_parse_requires_thought():
    with pytest.raises(ParseError):
        parse_inference_turn('{"question": "what?"}')


def test_parse_rejects_both_question_and_conclusion():
    with pytest.raises(ParseError):
        parse_inference_turn('{"thought": "t", "question": "q", "conclusion": ["a"]}')


def test_parse_rejects_empty_conclusion():
    with pytest.raises(ParseError):
        parse_inference_turn('{"thought": "t", "conclusion": []}')


# --- description stage ------------------------------------------------------------

def test_describe_pose_replays_fixture():
    matrix = make_matrix()
    backend = RecordingBackend([pose_reply("pinch and move up", (1, 2))])
    desc = describe_pose(matrix, PROMPTS, backend)
    assert desc == PoseDescription(candidate_gestures="pinch and move up", time_span=(1, 2))
    # The prompt carried the serialized matrix.
    assert "gesture-state-matrix v1" in backend.requests[0].messages[0].content


@pytest.mark.parametrize(
    "session_model, sent_model", [(None, "config-model")]
)
def test_live_backend_receives_model_id(monkeypatch, session_model, sent_model):
    bodies = []

    class Reply(io.BytesIO):
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    def fake_urlopen(request, timeout):
        bodies.append(json.loads(request.data))
        payload = {"choices": [{"message": {"content": pose_reply()}}], "usage": {}}
        return Reply(json.dumps(payload).encode())

    monkeypatch.setenv("GESTURELINK_TEST_KEY", "k")
    monkeypatch.setattr("gesturelink.transport.urllib.request.urlopen", fake_urlopen)
    backend = LiveBackend(
        BackendConfig(model_id="config-model", api_key_env="GESTURELINK_TEST_KEY")
    )
    describe_pose(make_matrix(), PROMPTS, backend)
    assert [b["model"] for b in bodies] == [sent_model]


def test_describe_pose_clamps_span():
    matrix = make_matrix(t_count=10)
    backend = RecordingBackend([pose_reply(span=(3, 99))])
    desc = describe_pose(matrix, PROMPTS, backend)
    assert desc.time_span == (3, 9)


def test_describe_pose_repair_retry_then_success():
    matrix = make_matrix()
    backend = RecordingBackend(["not json at all", pose_reply(span=(0, 1))])
    desc = describe_pose(matrix, PROMPTS, backend)
    assert desc.time_span == (0, 1)
    assert len(backend.requests) == 2
    assert "could not be parsed" in backend.requests[1].messages[-1].content


@pytest.mark.parametrize("end", ["1e400", "Infinity", "-Infinity"])
def test_infinite_pose_span_is_reasked_then_negative(end):
    hostile = '{"candidate_gestures": "wave", "time_span": [0, ' + end + "]}"
    backend = RecordingBackend([hostile, hostile])
    conclusion, transcript = ground_matrix(make_matrix(), session_lib(), PROMPTS, backend)
    assert conclusion is None
    assert len(backend.requests) == 2
    assert transcript.turns[-1].parsed == {
        "result": "negative",
        "reason": "description failed: unparseable after 2 attempts: "
                  "'time_span' entries must be integers",
    }


def test_describe_pose_fails_after_two_malformed():
    matrix = make_matrix()
    backend = RecordingBackend(["garbage", "more garbage"])
    with pytest.raises(ParseError):
        describe_pose(matrix, PROMPTS, backend)


def _movement_block(prompt: str) -> list[str]:
    """Data lines of the embedded movement rendering (after span=...)."""
    lines = prompt.splitlines()
    start = max(i for i, ln in enumerate(lines) if ln.startswith("span="))
    return [ln for ln in lines[start + 1 :] if ln.startswith("center_")]


def test_describe_movement_slices_span():
    matrix = make_matrix(t_count=5)
    backend = RecordingBackend([movement_reply("moves right slightly")])
    text = describe_movement(matrix, (2, 2), PROMPTS, backend)
    assert text == "moves right slightly"
    prompt = backend.requests[0].messages[0].content
    assert "span=2..2" in prompt
    # Single-column span: one cell per channel-2 row.
    assert all(len(ln.split()) == 2 for ln in _movement_block(prompt))


def test_describe_movement_full_span_serializes_whole_channel():
    matrix = make_matrix(t_count=3)
    backend = RecordingBackend([movement_reply()])
    describe_movement(matrix, (0, matrix.T - 1), PROMPTS, backend)
    prompt = backend.requests[0].messages[0].content
    line = _movement_block(prompt)[0]
    assert len(line.split()) == 1 + matrix.T


# --- composition --------------------------------------------------------------------

GOLDEN_DESCRIPTION = """- Thumb and index finger transition from bent to straight.
- Middle, ring, and pinky fingers stay bent.
- Fingers start close together and then spread apart.
- Thumb starts in contact with the index fingertip but moves away.
- Palm faces outward throughout.
- The hand moves left slightly with negligible vertical movement."""


def test_compose_description_golden():
    pose = PoseDescription(
        candidate_gestures=(
            "Thumb and index finger transition from bent to straight.\n"
            "Middle, ring, and pinky fingers stay bent.\n"
            "Fingers start close together and then spread apart.\n"
            "Thumb starts in contact with the index fingertip but moves away.\n"
            "Palm faces outward throughout."
        ),
        time_span=(0, 3),
    )
    movement = "The hand moves left slightly with negligible vertical movement."
    assert compose_description(pose, movement) == GOLDEN_DESCRIPTION


def test_compose_empty_movement_has_no_trailing_bullet():
    pose = PoseDescription(candidate_gestures="open palm", time_span=(0, 0))
    text = compose_description(pose, "")
    assert text == "- open palm"
    assert not text.endswith("\n")


def test_compose_is_deterministic():
    pose = PoseDescription(candidate_gestures="a\nb", time_span=(0, 0))
    assert compose_description(pose, "c") == compose_description(pose, "c")


# --- inference session ----------------------------------------------------------------

def session_lib():
    return smart_home_library(
        gaze=[{"t": 1.0, "x": 0.2, "y": 0.4, "z": 1.5}],
        history=[{"t": 0.0, "description": "turned on the light at 19:00"}],
        external=["It is 7:05 PM now."],
    )


def test_conclusion_on_first_turn_is_one_round():
    backend = RecordingBackend([conclusion_reply(["light.power"])])
    conclusion, transcript = run_inference_session(
        "- open palm", session_lib(), PROMPTS, backend
    )
    assert conclusion == Conclusion(ranked_functions=("light.power",))
    assert transcript.rounds == 1
    assert transcript.turns[-1].parsed == {"result": "conclusion", "ranked": ["light.power"]}


def test_three_questions_then_conclusion():
    backend = RecordingBackend([
        question_reply("where is the user looking?"),
        context_reply("the user looks at {{CALC:gaze_target}}"),
        question_reply("what happened recently?"),
        context_reply("the user turned on the light at 19:00"),
        question_reply("any external reports?"),
        context_reply("it is 7:05 PM"),
        conclusion_reply(["light.brightness_control", "light.power"]),
    ])
    conclusion, transcript = run_inference_session(
        "- pinch and move up", session_lib(), PROMPTS, backend
    )
    assert conclusion.ranked_functions == ("light.brightness_control", "light.power")
    context_turns = [t for t in transcript.turns if t.role == "context"]
    assert len(context_turns) == 3
    assert transcript.rounds == 4


def test_placeholders_resolved_before_delivery():
    backend = RecordingBackend([
        question_reply("gaze?"),
        context_reply("looking at {{CALC:gaze_target}}"),
        conclusion_reply(["light.power"]),
    ])
    _, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend)
    context_turn = [t for t in transcript.turns if t.role == "context"][0]
    assert "{{CALC" not in context_turn.parsed["delivered"]
    assert "Light" in context_turn.parsed["delivered"]
    # The resolved answer is what the inference agent received.
    delivered = [
        m.content
        for r in backend.requests
        for m in r.messages
        if m.role == "user" and "Context Management Agent:" in m.content
    ]
    assert delivered and "{{CALC" not in delivered[-1]


def test_unknown_placeholder_becomes_unavailability_note():
    backend = RecordingBackend([
        question_reply("gaze?"),
        context_reply("value is {{CALC:does_not_exist}}"),
        conclusion_reply(["light.power"]),
    ])
    _, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend)
    context_turn = [t for t in transcript.turns if t.role == "context"][0]
    assert "{{CALC" not in context_turn.parsed["delivered"]
    assert "unavailable" in context_turn.parsed["delivered"]


def test_duplicate_and_unknown_ids_dropped():
    backend = RecordingBackend([
        conclusion_reply(["light.power", "light.power", "ghost.fn", "oven.power"])
    ])
    conclusion, _ = run_inference_session("- fist", session_lib(), PROMPTS, backend)
    assert conclusion.ranked_functions == ("light.power", "oven.power")


def test_conclusion_of_only_unknown_ids_is_negative():
    backend = RecordingBackend([conclusion_reply(["ghost.a", "ghost.b"])])
    conclusion, transcript = run_inference_session("- fist", session_lib(), PROMPTS, backend)
    assert conclusion is None
    assert transcript.turns[-1].parsed["result"] == "negative"


def _session_calls(rounds):
    """(Python calls, input tokens) of a session of rounds questions, each
    answered, then a conclusion."""
    replies = []
    for i in range(rounds):
        replies += [question_reply(f"question {i}?"), context_reply(f"answer {i}")]
    backend = ScriptedBackend(seq_fixtures(*replies, conclusion_reply(["light.power"])))
    profile = cProfile.Profile()
    profile.enable()
    _, transcript = run_inference_session("- wave", session_lib(), PROMPTS, backend,
                                          SessionConfig(max_rounds=rounds + 1))
    profile.disable()
    assert transcript.rounds == rounds + 1
    return (pstats.Stats(profile).total_calls,
            sum(t.usage.input_tokens for t in transcript.turns if t.usage))


def test_session_python_work_grows_linearly_in_rounds():
    """Doubling the rounds at most about doubles the Python calls, counted by
    cProfile, so the bound does not depend on the host's speed. This bounds
    Python work, not the bytes sent: each request resends the whole history,
    so the input tokens still grow quadratically in rounds."""
    (calls, tokens), (calls2, tokens2) = _session_calls(100), _session_calls(200)
    assert calls2 / calls <= 2.2
    assert tokens2 / tokens > 3


def test_never_concluding_hits_forced_turn_then_negative():
    cfg = SessionConfig(max_rounds=3)
    replies = []
    for i in range(3):
        replies.append(question_reply(f"question {i}?"))
        if i < 2:
            replies.append(context_reply(f"answer {i}"))
    replies.append(question_reply("still asking"))  # reply to the forced instruction
    backend = RecordingBackend(replies)
    conclusion, transcript = run_inference_session(
        "- wave", session_lib(), PROMPTS, backend, cfg
    )
    assert conclusion is None
    assert transcript.rounds == cfg.max_rounds + 1
    forced = [
        m.content
        for r in backend.requests
        for m in r.messages
        if m.role == "user" and "round limit" in m.content
    ]
    assert forced


def test_forced_turn_can_still_conclude():
    cfg = SessionConfig(max_rounds=1)
    backend = RecordingBackend([
        question_reply("gaze?"),
        conclusion_reply(["light.power"]),  # reply to forced instruction
    ])
    conclusion, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend, cfg)
    assert conclusion is not None
    assert transcript.rounds == 2


def test_unparseable_inference_turn_after_retry_is_negative():
    backend = RecordingBackend(["garbage", "still garbage"])
    conclusion, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend)
    assert conclusion is None
    assert transcript.turns[-1].parsed["result"] == "negative"


def test_inference_reply_with_too_many_digits_is_reasked_then_negative():
    hostile = 'x {"thought": "t", "conclusion": [' + "9" * 4400 + "]}"
    backend = RecordingBackend([hostile, hostile])
    conclusion, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend)
    assert conclusion is None
    assert len(backend.requests) == 2
    assert transcript.turns[-1].parsed["reason"].startswith(
        "unparseable inference turn: unparseable after 2 attempts: no JSON object found"
    )


@pytest.mark.parametrize(
    "raw_args",
    ["[" + "1" * 5000 + "]", "[" * 20_000],  # replies stay under MAX_REPLY_CHARS
    ids=["too-many-digits", "too-deep"],
)
def test_placeholder_args_that_fail_to_decode_are_delivered_as_a_note(raw_args):
    backend = RecordingBackend([
        question_reply("gaze?"),
        context_reply("at {{CALC:gaze_target:" + raw_args + "}}"),
        conclusion_reply(["light.power"]),
    ])
    conclusion, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend)
    assert conclusion.ranked_functions == ("light.power",)
    context_turn = [t for t in transcript.turns if t.role == "context"][0]
    assert context_turn.parsed["delivered"] == "at [calculation gaze_target unavailable]"


def test_unclosed_placeholders_in_a_raw_fallback_are_delivered_quickly():
    openers = "{{CALC:x:" * 8000  # 72,000 characters, past MAX_REPLY_CHARS
    backend = RecordingBackend([
        question_reply("gaze?"),
        openers,
        openers,
        conclusion_reply(["light.power"]),
    ])
    start = time.perf_counter()
    conclusion, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend)
    assert time.perf_counter() - start < 1.0
    assert conclusion.ranked_functions == ("light.power",)
    context_turn = [t for t in transcript.turns if t.role == "context"][0]
    assert context_turn.parsed["delivered"] == openers


def test_malformed_context_reply_falls_back_to_raw_text():
    backend = RecordingBackend([
        question_reply("gaze?"),
        "the light, probably",  # not JSON
        "still not json",       # retry also fails -> raw fallback
        conclusion_reply(["light.power"]),
    ])
    conclusion, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend)
    assert conclusion is not None
    context_turn = [t for t in transcript.turns if t.role == "context"][0]
    assert context_turn.parsed.get("parse_fallback") is True


def test_session_requires_function_list():
    lib = session_lib().filtered(["gaze"])
    backend = RecordingBackend([])
    with pytest.raises(MalformedInput, match="needs a function_list context"):
        run_inference_session("- palm", lib, PROMPTS, backend)


def test_transport_error_carries_partial_transcript():
    class DyingBackend:
        def __init__(self):
            self.inner = ScriptedBackend(seq_fixtures(question_reply("gaze?")))
            self.calls = 0

        def complete(self, req):
            self.calls += 1
            if self.calls > 1:
                raise TransportError("connection lost")
            return self.inner.complete(req)

    transcript = DialogueTranscript()
    with pytest.raises(TransportError):
        run_inference_session(
            "- palm", session_lib(), PROMPTS, DyingBackend(), transcript=transcript
        )
    assert len(transcript.turns) >= 1


def test_session_is_deterministic_byte_for_byte():
    replies = [
        question_reply("gaze?"),
        context_reply("the user looks at {{CALC:gaze_target}}"),
        conclusion_reply(["light.brightness_control"]),
    ]
    outputs = []
    for _ in range(2):
        backend = RecordingBackend(replies)
        _, transcript = run_inference_session("- pinch", session_lib(), PROMPTS, backend)
        outputs.append(transcript.to_jsonl())
    assert outputs[0] == outputs[1]


def test_token_totals_equal_per_turn_sums():
    backend = RecordingBackend([
        question_reply("gaze?"),
        context_reply("light"),
        conclusion_reply(["light.power"]),
    ])
    _, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend)
    per_turn_in = sum(t.usage.input_tokens for t in transcript.turns if t.usage)
    per_turn_out = sum(t.usage.output_tokens for t in transcript.turns if t.usage)
    assert transcript.total_input_tokens == per_turn_in
    assert transcript.total_output_tokens == per_turn_out
    assert per_turn_in > 0 and per_turn_out > 0


# --- full grounding ---------------------------------------------------------------

def test_ground_matrix_full_replay():
    matrix = make_matrix()
    backend = RecordingBackend([
        pose_reply("open palm, possibly a stop gesture", (0, 3)),
        movement_reply("The hand stays essentially still."),
        question_reply("where is the user looking?"),
        context_reply("at the {{CALC:gaze_target}}"),
        conclusion_reply(["light.power", "light.mode_switch"]),
    ])
    conclusion, transcript = ground_matrix(matrix, session_lib(), PROMPTS, backend)
    assert conclusion.ranked_functions == ("light.power", "light.mode_switch")
    roles = [t.role for t in transcript.turns]
    assert roles[0] == "description_pose"
    assert roles[1] == "description_movement"
    assert roles[-1] == "outcome"
    assert transcript.rounds == 2


def test_ground_matrix_description_failure_is_negative():
    matrix = make_matrix()
    backend = RecordingBackend(["junk", "junk again"])
    conclusion, transcript = ground_matrix(matrix, session_lib(), PROMPTS, backend)
    assert conclusion is None
    assert transcript.turns[-1].parsed["result"] == "negative"


# --- failure-path transcripts -------------------------------------------------------
# Exact to_jsonl() bytes for the failure records the benchmark digests do not
# cover: no description turn after a failed description, the raw-text
# context fallback, and the error record of an unparseable inference turn.

DESCRIPTION_FAILURE_JSONL = (
    '{"input_tokens": 0, "latency": 0.0, "output_tokens": 0, '
    '"parsed": {"reason": "description failed: unparseable after 2 attempts: no JSON object found in response: \'junk again\'", "result": "negative"}, '
    '"raw": "", "role": "outcome"}\n'
)

CONTEXT_FALLBACK_JSONL = (
    '{"input_tokens": 895, "latency": 0.0, "output_tokens": 12, '
    '"parsed": {"question": "gaze?", "thought": "need context"}, '
    '"raw": "{\\"thought\\": \\"need context\\", \\"question\\": \\"gaze?\\"}", "role": "inference"}\n'
    '{"input_tokens": 495, "latency": 0.0, "output_tokens": 4, '
    '"parsed": {"answer": "still not json", "delivered": "still not json", "parse_fallback": true}, '
    '"raw": "still not json", "role": "context"}\n'
    '{"input_tokens": 917, "latency": 0.0, "output_tokens": 15, '
    '"parsed": {"conclusion": ["light.power"], "thought": "confident now"}, '
    '"raw": "{\\"thought\\": \\"confident now\\", \\"conclusion\\": [\\"light.power\\"]}", "role": "inference"}\n'
    '{"input_tokens": 0, "latency": 0.0, "output_tokens": 0, '
    '"parsed": {"ranked": ["light.power"], "result": "conclusion"}, '
    '"raw": "", "role": "outcome"}\n'
)

UNPARSEABLE_INFERENCE_JSONL = (
    '{"input_tokens": 931, "latency": 0.0, "output_tokens": 4, '
    '"parsed": {"error": "unparseable after 2 attempts: no JSON object found in response: \'still garbage\'"}, '
    '"raw": "still garbage", "role": "inference"}\n'
    '{"input_tokens": 0, "latency": 0.0, "output_tokens": 0, '
    '"parsed": {"reason": "unparseable inference turn: unparseable after 2 attempts: no JSON object found in response: \'still garbage\'", "result": "negative"}, '
    '"raw": "", "role": "outcome"}\n'
)


def test_description_failure_transcript_bytes():
    backend = RecordingBackend(["junk", "junk again"])
    _, transcript = ground_matrix(make_matrix(), session_lib(), PROMPTS, backend)
    assert transcript.to_jsonl() == DESCRIPTION_FAILURE_JSONL


def test_context_fallback_transcript_bytes():
    backend = RecordingBackend([
        question_reply("gaze?"),
        "the light, probably",
        "still not json",
        conclusion_reply(["light.power"]),
    ])
    _, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend)
    assert transcript.to_jsonl() == CONTEXT_FALLBACK_JSONL


def test_unparseable_inference_transcript_bytes():
    backend = RecordingBackend(["garbage", "still garbage"])
    _, transcript = run_inference_session("- palm", session_lib(), PROMPTS, backend)
    assert transcript.to_jsonl() == UNPARSEABLE_INFERENCE_JSONL


def test_session_with_gaze_placeholders_parses_no_function_list(monkeypatch):
    import gesturelink.context

    lib = session_lib()
    calls = []
    parse = gesturelink.context.parse_function_list
    monkeypatch.setattr(
        gesturelink.context, "parse_function_list", lambda doc: calls.append(doc) or parse(doc)
    )
    backend = RecordingBackend([
        pose_reply("open palm", (0, 2)),
        movement_reply(),
        question_reply("where is the user looking?"),
        context_reply("at {{CALC:gaze_target}}, then {{CALC:gaze_target}}"),
        conclusion_reply(["light.power"]),
    ])
    conclusion, _ = ground_matrix(make_matrix(), lib, PROMPTS, backend)
    assert conclusion.ranked_functions == ("light.power",)
    assert calls == []


def test_sessions_reuse_the_library_function_list_text(monkeypatch):
    import gesturelink.context

    lib = session_lib()
    monkeypatch.setattr(gesturelink.context, "_render_function_list", None)  # a call would raise
    for keep in (lib.names, ["function_list"]):
        backend = RecordingBackend([conclusion_reply(["light.power"])])
        run_inference_session("- palm", lib.filtered(keep), PROMPTS, backend)
        system = backend.requests[0].messages[0].content
        assert "- light.power: Light Power (location: 0.2, 0.4, 1.5)\n" in system
