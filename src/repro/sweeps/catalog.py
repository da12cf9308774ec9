"""The packaged scenario library: ready-to-run sweep specs.

Spec files ship inside the package (``repro/sweeps/library/*.toml``) and are
addressed by their ``[sweep] name``, so ``repro sweep run policy-grid`` works
from any directory with no files of your own.
"""

from __future__ import annotations

from importlib import resources
from typing import Dict

from repro.sweeps.spec import SweepSpec
from repro.utils.validation import ValidationError


def builtin_sweeps() -> Dict[str, SweepSpec]:
    """Every packaged sweep, keyed by its ``[sweep] name``."""
    sweeps: Dict[str, SweepSpec] = {}
    root = resources.files("repro.sweeps") / "library"
    for entry in sorted(root.iterdir(), key=lambda item: item.name):
        if entry.name.endswith(".toml"):
            spec = SweepSpec.from_toml(entry.read_text(encoding="utf-8"))
            sweeps[spec.name] = spec
    return sweeps


def load_builtin(name: str) -> SweepSpec:
    """The packaged sweep called ``name``."""
    sweeps = builtin_sweeps()
    if name not in sweeps:
        raise ValidationError(
            f"unknown built-in sweep {name!r}; available: {sorted(sweeps)}"
        )
    return sweeps[name]
