"""Paths and canonical digests shared by the benchmark's modules (no kbfg import)."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent   # the checkout the benchmark measures
SRC = ROOT / "src"


class MissingProgram(Exception):
    """The checkout holds no kbfg sources to measure."""


def use_checkout_src() -> None:
    """Import kbfg from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "kbfg" / "__init__.py").is_file():
        raise MissingProgram(f"no kbfg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kbfg

    if Path(kbfg.__file__).resolve().parent != (SRC / "kbfg").resolve():
        raise MissingProgram(f"kbfg imported from {kbfg.__file__}, not from {SRC}")


def dump(obj) -> str:
    """JSON text as ``kbfg`` subcommands write it with ``--out``."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
