"""Deployment profiles: strictly validated serve/engine tuning files.

A profile is a small TOML (or YAML, when PyYAML happens to be
installed) file with up to five sections — ``[serve]``, ``[engine]``,
``[filter]``, ``[trace]``, ``[shard]`` — every one of them optional::

    [serve]
    window_ms = 1.0
    max_batch = 128

    [engine]
    executor = "process"
    workers = 8

    [trace]
    path = "traces/prod.jsonl"

    [shard]
    shards = 4
    partitioner = "grid"

Two invariants the tests pin down:

* **Empty file = current behaviour, bit-for-bit.**  Every knob's
  default equals the corresponding CLI/constructor default, so an
  empty profile (or no profile at all) changes nothing.
* **Strict validation.**  An unknown section or key, a wrong type, or
  an out-of-range value raises :class:`ProfileError` *naming the key*
  (with a did-you-mean suggestion for typos) — a typo'd knob can never
  silently deploy the defaults.

Consumers: ``python -m repro serve --profile prod.toml`` (explicit
CLI flags still win over the profile) and
:func:`repro.experiments.runner.build_run` (the profile fills the
executor/workers/engine arguments left at their defaults).
:class:`Profile` is frozen and hashable so memoised consumers can key
caches on it directly.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "DEFAULT_PROFILE",
    "ProfileError",
    "ServeSection",
    "EngineSection",
    "FilterSection",
    "TraceSection",
    "ShardSection",
    "Profile",
    "profile_from_dict",
    "load_profile",
    "apply_filter_gates",
]


class ProfileError(ValueError):
    """A profile failed validation; the message names the bad key."""


# -- section models (defaults == current CLI/constructor defaults) -----


@dataclass(frozen=True)
class ServeSection:
    """``[serve]`` — the batching/admission knobs of the TCP tier."""

    host: str = "127.0.0.1"
    port: int = 7171
    window_ms: float = 2.0
    max_batch: int = 64
    max_pending: int = 1024
    max_level: Optional[int] = None
    live: bool = False
    #: With ``live``: full snapshot rebuild after this many
    #: copy-on-write delta generations (bounds version-chain sharing).
    compact_every: int = 64


@dataclass(frozen=True)
class EngineSection:
    """``[engine]`` — sweep engine and executor selection.

    ``engine = None`` means "the consumer's own default": ``serve``
    resolves it to ``"packed"``, ``build_run`` to the instrumented
    per-point sweep — exactly what each does without a profile.
    """

    engine: Optional[str] = None
    executor: str = "serial"
    workers: Optional[int] = None


@dataclass(frozen=True)
class FilterSection:
    """``[filter]`` — the octant-path prefilter gates.

    ``None`` leaves :data:`repro.engine.kernels.PREFILTER_MIN_ROWS`
    and :data:`~repro.engine.kernels.PREFILTER_MAX_PATHS` untouched.
    """

    prefilter_min_rows: Optional[int] = None
    prefilter_max_paths: Optional[float] = None


@dataclass(frozen=True)
class TraceSection:
    """``[trace]`` — the jsonl execution-trace sink (off by default)."""

    path: Optional[str] = None
    flush_every: int = 64


@dataclass(frozen=True)
class ShardSection:
    """``[shard]`` — the scatter–gather tier (off by default).

    ``shards = 0`` keeps the single-process serve path; any positive
    count routes ``serve`` through :mod:`repro.shard`.
    ``worker_timeout_s`` bounds every coordinator↔worker conversation
    (bootstrap ready included) before the shard is declared dead.
    """

    shards: int = 0
    partitioner: str = "grid"
    worker_timeout_s: float = 30.0


@dataclass(frozen=True)
class Profile:
    """One validated deployment profile (all sections optional)."""

    serve: ServeSection = ServeSection()
    engine: EngineSection = EngineSection()
    filter: FilterSection = FilterSection()
    trace: TraceSection = TraceSection()
    shard: ShardSection = ShardSection()
    source: Optional[str] = None

    def describe(self) -> str:
        """One line for startup banners: the non-default knobs only."""
        parts = []
        for section_name in ("serve", "engine", "filter", "trace", "shard"):
            section = getattr(self, section_name)
            for field in fields(section):
                value = getattr(section, field.name)
                if value != field.default:
                    parts.append(f"{section_name}.{field.name}={value}")
        origin = self.source or "<defaults>"
        if not parts:
            return f"profile {origin}: defaults"
        return f"profile {origin}: " + " ".join(parts)


DEFAULT_PROFILE = Profile()


# -- validation --------------------------------------------------------

#: ``section -> key -> (types, validator)``.  ``types`` is the accepted
#: python types; the validator returns an error string or None.
_INT = (int,)
_NUMBER = (int, float)
_STR = (str,)
_BOOL = (bool,)


def _positive(value: Any) -> Optional[str]:
    return None if value >= 1 else f"must be >= 1, got {value}"


def _non_negative(value: Any) -> Optional[str]:
    return None if value >= 0 else f"must be >= 0, got {value}"


def _port(value: Any) -> Optional[str]:
    return None if 0 <= value <= 65535 else f"must be 0..65535, got {value}"


def _fraction(value: Any) -> Optional[str]:
    return None if 0 < value <= 1 else f"must be in (0, 1], got {value}"


def _executor(value: Any) -> Optional[str]:
    from repro.engine.parallel import EXECUTORS

    if value in EXECUTORS:
        return None
    return f"must be one of {', '.join(EXECUTORS)}; got {value!r}"


def _choice(value: Any, choices: Tuple[str, ...], default: str) -> Optional[str]:
    """Membership check whose message suggests the closest choice.

    A value close to no choice (a retired one, say) is pointed at
    ``default``, the choice that replaced it.
    """
    if value in choices:
        return None
    matches = difflib.get_close_matches(value, choices, n=1) or [default]
    return (
        f"must be one of {', '.join(choices)}; got {value!r} "
        f"(did you mean {matches[0]!r}?)"
    )


def _engine(value: Any) -> Optional[str]:
    from repro.engine.kernels import SKYCUBE_ENGINES

    return _choice(value, SKYCUBE_ENGINES, "packed")


def _partitioner(value: Any) -> Optional[str]:
    from repro.shard.plan import PARTITIONER_NAMES

    if value in PARTITIONER_NAMES:
        return None
    return (
        f"must be one of {', '.join(PARTITIONER_NAMES)}; got {value!r}"
    )


def _positive_seconds(value: Any) -> Optional[str]:
    return None if value > 0 else f"must be > 0, got {value}"


def _any(value: Any) -> Optional[str]:
    return None


_SCHEMA: Dict[str, Dict[str, Tuple[Tuple[type, ...], Any]]] = {
    "serve": {
        "host": (_STR, _any),
        "port": (_INT, _port),
        "window_ms": (_NUMBER, _non_negative),
        "max_batch": (_INT, _positive),
        "max_pending": (_INT, _positive),
        "max_level": (_INT, _non_negative),
        "live": (_BOOL, _any),
        "compact_every": (_INT, _positive),
    },
    "engine": {
        "engine": (_STR, _engine),
        "executor": (_STR, _executor),
        "workers": (_INT, _positive),
    },
    "filter": {
        "prefilter_min_rows": (_INT, _non_negative),
        "prefilter_max_paths": (_NUMBER, _fraction),
    },
    "trace": {
        "path": (_STR, _any),
        "flush_every": (_INT, _positive),
    },
    "shard": {
        "shards": (_INT, _non_negative),
        "partitioner": (_STR, _partitioner),
        "worker_timeout_s": (_NUMBER, _positive_seconds),
    },
}

_SECTION_TYPES = {
    "serve": ServeSection,
    "engine": EngineSection,
    "filter": FilterSection,
    "trace": TraceSection,
    "shard": ShardSection,
}


def _suggest(name: str, known: Any) -> str:
    matches = difflib.get_close_matches(name, list(known), n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def _build_section(name: str, raw: Any, source: str) -> Any:
    if not isinstance(raw, Mapping):
        raise ProfileError(
            f"{source}: section [{name}] must be a table of keys, "
            f"got {type(raw).__name__}"
        )
    schema = _SCHEMA[name]
    values: Dict[str, Any] = {}
    for key, value in raw.items():
        if key not in schema:
            raise ProfileError(
                f"{source}: unknown key '{name}.{key}'"
                + _suggest(str(key), schema)
            )
        types, validator = schema[key]
        # bool is an int subclass; reject it for the numeric knobs.
        if isinstance(value, bool) and types is not _BOOL:
            raise ProfileError(
                f"{source}: '{name}.{key}' must be "
                f"{'/'.join(t.__name__ for t in types)}, got a boolean"
            )
        if not isinstance(value, types):
            raise ProfileError(
                f"{source}: '{name}.{key}' must be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__} ({value!r})"
            )
        problem = validator(value)
        if problem is not None:
            raise ProfileError(f"{source}: '{name}.{key}' {problem}")
        values[key] = value
    return _SECTION_TYPES[name](**values)


def profile_from_dict(
    data: Mapping[str, Any], source: str = "<profile>"
) -> Profile:
    """Validate a parsed profile mapping into a :class:`Profile`."""
    if not isinstance(data, Mapping):
        raise ProfileError(
            f"{source}: profile must be a table of sections, "
            f"got {type(data).__name__}"
        )
    sections: Dict[str, Any] = {}
    for name, raw in data.items():
        if name not in _SCHEMA:
            raise ProfileError(
                f"{source}: unknown section [{name}]"
                + _suggest(str(name), _SCHEMA)
            )
        sections[name] = _build_section(name, raw, source)
    return Profile(source=source, **sections)


# -- file loading ------------------------------------------------------


def _parse_toml(text: str, source: str) -> Dict[str, Any]:
    try:
        import tomllib  # Python 3.11+
    except ImportError:
        from repro.config._toml import parse_toml_subset

        try:
            return parse_toml_subset(text)
        except ValueError as error:
            raise ProfileError(f"{source}: {error}") from None
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ProfileError(f"{source}: invalid TOML: {error}") from None


def _parse_yaml(text: str, source: str) -> Dict[str, Any]:
    try:
        import yaml
    except ImportError:
        raise ProfileError(
            f"{source}: YAML profiles need PyYAML, which is not "
            f"installed — use TOML instead"
        ) from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise ProfileError(f"{source}: invalid YAML: {error}") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ProfileError(
            f"{source}: profile must be a mapping of sections, "
            f"got {type(data).__name__}"
        )
    return data


def load_profile(path: str) -> Profile:
    """Load and validate a ``.toml``/``.yaml``/``.yml`` profile file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ProfileError(f"cannot read profile {path}: {error}") from None
    lowered = str(path).lower()
    if lowered.endswith((".yaml", ".yml")):
        data = _parse_yaml(text, str(path))
    else:
        data = _parse_toml(text, str(path))
    return profile_from_dict(data, source=str(path))


# -- applying sections -------------------------------------------------


def apply_filter_gates(profile: Profile) -> None:
    """Install the ``[filter]`` gates into :mod:`repro.engine.kernels`.

    Only explicitly-set gates are written; an empty section leaves the
    module constants exactly as shipped.
    """
    from repro.engine import kernels

    if profile.filter.prefilter_min_rows is not None:
        kernels.PREFILTER_MIN_ROWS = profile.filter.prefilter_min_rows
    if profile.filter.prefilter_max_paths is not None:
        kernels.PREFILTER_MAX_PATHS = profile.filter.prefilter_max_paths
