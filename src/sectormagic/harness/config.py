"""Flat key=value experiment configuration files.

Config files are plain text: one `key = value` per line, `#` starts a
comment, blank lines ignored.  Lists are comma separated.  Which keys an
experiment reads, how each value is parsed and what it defaults to is
declared once, in the experiment table of `harness.cli`; command-line flags
override file values.  Malformed files raise ConfigError (CLI exit code 2).
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def parse_config_text(text: str) -> dict:
    """key=value lines -> raw string mapping (comments and blanks skipped)."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def load_config(path) -> dict:
    """The raw string mapping of a config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config_text(text)
