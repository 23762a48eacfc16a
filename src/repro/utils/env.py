"""Shared environment-knob parsing.

Every ``REPRO_*`` environment knob in the codebase goes through these
helpers so the accepted spellings are consistent everywhere: before this
module existed, ``REPRO_PURE_PYTHON=0`` disabled nothing while an integer
knob set to ``"0"`` meant zero -- now ``"0"``/``"false"``/``"no"``/``"off"``
(and the empty string) are uniformly falsy and ``"1"``/``"true"``/``"yes"``/
``"on"`` uniformly truthy, with anything else rejected loudly instead of
being silently interpreted.
"""

from __future__ import annotations

import os
#: Accepted spellings (lower-cased, stripped) of a truthy flag value.
TRUTHY = frozenset(("1", "true", "yes", "on"))

#: Accepted spellings of a falsy flag value; the empty string counts so
#: ``REPRO_FLAG= command`` behaves like an unset variable.
FALSY = frozenset(("", "0", "false", "no", "off"))


def env_flag(name: str, default: bool = False) -> bool:
    """Return boolean knob *name* from the environment.

    Unset falls back to *default*; unrecognised spellings raise
    :class:`ValueError` immediately (a typo in a gating knob must not
    silently select the wrong code path).
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in TRUTHY:
        return True
    if value in FALSY:
        return False
    raise ValueError(
        f"environment knob {name} must be one of {sorted(TRUTHY | FALSY)!r}, "
        f"got {raw!r}"
    )


def env_int(name: str, fallback: int) -> int:
    """Return integer knob *name*, or *fallback* when unset/blank."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"environment knob {name} must be an integer, got {raw!r}"
        ) from None
