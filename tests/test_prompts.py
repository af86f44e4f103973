import importlib
import re
import shutil
import sys
from pathlib import Path

import pytest

import gesturelink
from gesturelink.errors import MalformedInput
from gesturelink.prompts import (
    PROMPT_FILES,
    _placeholders,
    load_prompt_set,
    render_prompt,
    validate_prompt,
)


def test_packaged_defaults_load_and_validate():
    prompts = load_prompt_set()
    assert "$matrix_text" in prompts.description_pose_prompt
    assert "$movement_text" in prompts.description_movement_prompt
    assert "$function_list" in prompts.inference_prompt
    assert "$library_overview" in prompts.context_prompt


def _numbered_items(text: str, section: str) -> int:
    block = text.split(f"# {section}")[1].split("#")[0]
    return len(re.findall(r"^\d+\.", block, flags=re.MULTILINE))


def test_inference_prompt_has_seven_requirements_five_prohibitions():
    prompts = load_prompt_set()
    assert _numbered_items(prompts.inference_prompt, "Requirements") == 7
    assert _numbered_items(prompts.inference_prompt, "Prohibitions") == 5


def test_context_prompt_has_four_requirements_two_prohibitions():
    prompts = load_prompt_set()
    assert _numbered_items(prompts.context_prompt, "Requirements") == 4
    assert _numbered_items(prompts.context_prompt, "Prohibitions") == 2


def test_missing_section_rejected():
    with pytest.raises(MalformedInput):
        validate_prompt("inference", "# Introduction\nno rules here")


def test_custom_prompt_directory(tmp_path):
    for which, filename in PROMPT_FILES.items():
        src = getattr(load_prompt_set(), f"{which}_prompt")
        (tmp_path / filename).write_text(src)
    assert load_prompt_set(tmp_path).inference_prompt == load_prompt_set().inference_prompt


def test_a_copy_under_another_package_name_loads_its_own_prompts(tmp_path, monkeypatch):
    copy = tmp_path / "gesturelink_copy"
    shutil.copytree(Path(gesturelink.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    inference = copy / "assets" / "prompts" / "inference.md"
    inference.write_text(inference.read_text(encoding="utf-8") + "\nCopied.\n", encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        prompts = importlib.import_module("gesturelink_copy.prompts").load_prompt_set()
        assert prompts.inference_prompt.endswith("\nCopied.\n")
        assert prompts.context_prompt == load_prompt_set().context_prompt
        assert not load_prompt_set().inference_prompt.endswith("\nCopied.\n")
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "gesturelink_copy"]:
            del sys.modules[name]


def test_missing_prompt_file_rejected(tmp_path):
    with pytest.raises(MalformedInput):
        load_prompt_set(tmp_path)


def test_render_binds_placeholders():
    assert render_prompt("hello $name", name="world") == "hello world"


def test_render_rejects_unbound_placeholder():
    with pytest.raises(MalformedInput):
        render_prompt("matrix: $matrix_text", other="x")


def test_render_leaves_json_braces_alone():
    template = 'Reply {"thought": "..."} about $topic'
    assert render_prompt(template, topic="gestures") == 'Reply {"thought": "..."} about gestures'


def test_placeholder_the_agent_does_not_bind_rejected():
    text = load_prompt_set().inference_prompt.replace("$function_list", "$functoin_list")
    with pytest.raises(MalformedInput, match="functoin_list"):
        validate_prompt("inference", text)


def test_escaped_dollar_is_a_literal_not_a_placeholder():
    text = load_prompt_set().inference_prompt + "\nPrices are in $$dollars, ${function_list} too.\n"
    validate_prompt("inference", text)
    assert render_prompt("pay $$name for $$5 at ${who}", who="x") == "pay $name for $5 at x"
    with pytest.raises(MalformedInput, match=r"\['who'\]"):
        render_prompt("$$name and $who", name="unused")


def test_placeholders_are_read_once_per_template():
    template = "cached $alpha and ${beta}, not $$gamma " + "x" * 10
    _placeholders.cache_clear()
    for _ in range(3):
        render_prompt(template, alpha="a", beta="b")
    assert _placeholders(template) == {"alpha", "beta"}
    assert _placeholders.cache_info().misses == 1
