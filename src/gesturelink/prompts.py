"""Prompt assets for the three agents.

Prompts are editable configuration, not code: each agent reads a markdown
template with $-placeholders. The loader validates that the structural
sections are present and that the agent binds every placeholder, so an
edited prompt cannot silently drop its output format or behavioural
rules, nor fail only once a session renders it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from string import Template

from .errors import MalformedInput

PROMPT_FILES = {
    "description_pose": "description_pose.md",
    "description_movement": "description_movement.md",
    "inference": "inference.md",
    "context": "context.md",
}

REQUIRED_SECTIONS = {
    "description_pose": ("# Introduction", "# Procedure", "# Examples"),
    "description_movement": ("# Introduction", "# Procedure", "# Examples"),
    "inference": ("# Introduction", "# Requirements", "# Prohibitions", "# Output format"),
    "context": ("# Introduction", "# Requirements", "# Prohibitions", "# Output format"),
}

# The placeholders each agent binds when it renders its prompt.
BOUND_PLACEHOLDERS = {
    "description_pose": {"matrix_text"},
    "description_movement": {"movement_text"},
    "inference": {"function_list"},
    "context": {"library_overview"},
}

_IDENTIFIER_RE = re.compile(r"\$(?:\{([A-Za-z_][A-Za-z0-9_]*)\}|([A-Za-z_][A-Za-z0-9_]*))")


@dataclass(frozen=True)
class AgentPromptSet:
    description_pose_prompt: str
    description_movement_prompt: str
    inference_prompt: str
    context_prompt: str

    def template(self, which: str) -> str:
        return getattr(self, f"{which}_prompt")


def _placeholders(template: str) -> set[str]:
    return {m.group(1) or m.group(2) for m in _IDENTIFIER_RE.finditer(template)}


def validate_prompt(which: str, text: str) -> None:
    missing = [s for s in REQUIRED_SECTIONS[which] if s not in text]
    if missing:
        raise MalformedInput(f"prompt {which!r} missing sections: {missing}")
    unbound = _placeholders(text) - BOUND_PLACEHOLDERS[which]
    if unbound:
        raise MalformedInput(f"prompt {which!r} has placeholders its agent does not bind: "
                             f"{sorted(unbound)}")


def load_prompt_set(directory: str | Path | None = None) -> AgentPromptSet:
    """Load the four templates from a directory, or the packaged defaults."""
    texts = {}
    for which, filename in PROMPT_FILES.items():
        if directory is None:
            path = resources.files("gesturelink").joinpath("assets/prompts", filename)
        else:
            path = Path(directory) / filename
            if not path.is_file():
                raise MalformedInput(f"missing prompt file: {path}")
        try:
            text = path.read_text(encoding="utf-8")
            validate_prompt(which, text)
        except (MalformedInput, ValueError) as exc:  # ValueError: not UTF-8
            raise MalformedInput(f"{path}: {exc}") from exc
        texts[which] = text
    return AgentPromptSet(**{f"{which}_prompt": text for which, text in texts.items()})


def render_prompt(template: str, **bindings: str) -> str:
    """Substitute $placeholders; every placeholder must be bound."""
    unbound = _placeholders(template) - set(bindings)
    if unbound:
        raise MalformedInput(f"unbound prompt placeholders: {sorted(unbound)}")
    return Template(template).safe_substitute(**bindings)
