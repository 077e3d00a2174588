"""Accelerated-build loader — optional compiled kernel, pure as reference.

The three kernel modules with a hand-written C twin
(:data:`KERNEL_MODULES`: ``repro.sim.simulator``,
``repro.storage.counters``, ``repro.storage.mvstore``) each end with a call
to :func:`install`.  When an accelerated build is present, :func:`install`
swaps the module's public names for their compiled twins; otherwise the
pure-Python definitions stand untouched.  The swap happens *before* any
other module imports those names, so every consumer — runtime, protocols,
experiments — binds whichever implementation the build selected, without
ever importing this package directly (enforced by
``tools/check_layering.py`` rule 6).

Build selection is controlled by the ``REPRO_ACCEL`` environment variable:

* unset — auto: use compiled modules when importable, fall back silently.
* ``0`` — force pure Python even when a compiled build is present.
* ``1`` — require the compiled build; raise :class:`AccelUnavailableError`
  if the build manifest is missing or a manifest module fails to import.

A build (``tools/build_accel.py``) drops compiled extension modules next to
this file — named after the canonical module with dots flattened, e.g.
``repro._accel.storage_counters`` — plus ``_manifest.json`` recording the
backend (``ckernel``, the only one) and the module list.  The twins must be
bit-for-bit equivalent to pure Python; the differential oracles (scheduler
equivalence, aggregate-vs-scan quiescence, chaos digests,
``tools/bench.py --check``) are the proof.

The pure definitions are never lost: :func:`install` snapshots each kernel
module's namespace *before* swapping, and :func:`pure_namespace` hands the
snapshot back — this is how the benchmarks measure pure vs. compiled
side-by-side in a single process and how the differential test suites run
both implementations against the same oracle.
"""

from __future__ import annotations

import importlib
import json
import os
import typing

__all__ = [
    "KERNEL_MODULES",
    "AccelUnavailableError",
    "accel_backend",
    "accel_module_name",
    "accelerated_modules",
    "build_mode",
    "install",
    "load_accel",
    "pure_namespace",
]

#: Canonical names of the kernel modules with a C twin — the one list of
#: them; the build tool, the accel benchmarks and the layering lint derive
#: theirs from it.  The C source of each is ``_csrc/<last component>.c``.
KERNEL_MODULES: typing.Tuple[str, ...] = (
    "repro.sim.simulator",
    "repro.storage.counters",
    "repro.storage.mvstore",
)

_MANIFEST_NAME = "_manifest.json"

#: Per-module selection outcome: canonical name -> "pure" | "accel".
_status: typing.Dict[str, str] = {}
#: Pure namespace snapshots taken before any swap.
_pure: typing.Dict[str, typing.Dict[str, typing.Any]] = {}
#: Names actually replaced per accelerated module.
_replaced: typing.Dict[str, typing.Tuple[str, ...]] = {}
#: Lazy-loaded manifest cache (False = not loaded yet, None = absent).
_manifest_cache: typing.Any = False


class AccelUnavailableError(ImportError):
    """``REPRO_ACCEL=1`` demanded a compiled build that is not usable."""


def accel_module_name(canonical: str) -> str:
    """``repro.sim.simulator`` -> ``repro._accel.sim_simulator``."""
    if not canonical.startswith("repro."):
        raise ValueError(f"not a repro module: {canonical!r}")
    return "repro._accel." + canonical[len("repro."):].replace(".", "_")


def _load_manifest() -> typing.Optional[dict]:
    global _manifest_cache
    if _manifest_cache is False:
        path = os.path.join(os.path.dirname(__file__), _MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                _manifest_cache = json.load(handle)
        except (OSError, ValueError):
            _manifest_cache = None
    return _manifest_cache


def _requested_mode() -> str:
    """The ``REPRO_ACCEL`` setting: ``""`` (auto), ``"0"``, or ``"1"``."""
    return os.environ.get("REPRO_ACCEL", "").strip()


def install(namespace: typing.Dict[str, typing.Any]) -> None:
    """Swap a kernel module's public names for compiled twins if available.

    Called as the last statement of each kernel module with its
    ``globals()``.  All-or-nothing per module: either every ``__all__``
    name is replaced from the compiled twin or none is.
    """
    name = namespace["__name__"]
    if name not in KERNEL_MODULES:
        raise RuntimeError(f"install() called from non-kernel module {name!r}")
    public = tuple(namespace["__all__"])
    _pure[name] = {
        attr: value for attr, value in namespace.items()
        if not (attr.startswith("__") and attr.endswith("__"))
    }
    _status[name] = "pure"
    mode = _requested_mode()
    if mode == "0":
        return
    manifest = _load_manifest()
    if manifest is None:
        if mode == "1":
            raise AccelUnavailableError(
                f"REPRO_ACCEL=1 but no accelerated build is present "
                f"(importing {name}; run `python tools/build_accel.py`)"
            )
        return
    if name not in manifest.get("modules", ()):
        # Not part of this build — pure is the intended implementation.
        return
    try:
        module = importlib.import_module(accel_module_name(name))
    except ImportError as exc:
        if mode == "1":
            raise AccelUnavailableError(
                f"REPRO_ACCEL=1 but the compiled module for {name} failed "
                f"to import: {exc} (rebuild with `python tools/build_accel.py`"
                f" or clear with --clean)"
            ) from exc
        return
    missing = [attr for attr in public if not hasattr(module, attr)]
    if missing:
        if mode == "1":
            raise AccelUnavailableError(
                f"compiled module for {name} is missing public names "
                f"{missing}; rebuild with `python tools/build_accel.py`"
            )
        return
    for attr in public:
        namespace[attr] = getattr(module, attr)
    _status[name] = "accel"
    _replaced[name] = public


def build_mode() -> str:
    """``"accel"`` when any kernel module runs compiled, else ``"pure"``."""
    return "accel" if any(v == "accel" for v in _status.values()) else "pure"


def accel_backend() -> typing.Optional[str]:
    """The backend of the running compiled kernel (``ckernel``), or ``None``
    when every kernel module runs pure — even with a build on disk."""
    if build_mode() != "accel":
        return None
    return _load_manifest().get("backend")


def accelerated_modules() -> typing.Tuple[str, ...]:
    """Canonical names of the kernel modules currently running compiled."""
    return tuple(n for n in KERNEL_MODULES if _status.get(n) == "accel")


def pure_namespace(canonical: str) -> typing.Dict[str, typing.Any]:
    """The pure-Python namespace snapshot of a kernel module.

    Importing the canonical module on demand guarantees the snapshot
    exists (the module's own install hook takes it before any swap).  The
    snapshot is exact: no kernel module imports another swappable one.
    """
    if canonical not in _pure:
        importlib.import_module(canonical)
    return dict(_pure[canonical])


def load_accel(canonical: str):
    """Import and return the compiled twin of a kernel module.

    For benchmarks and differential tests that measure the compiled
    implementation explicitly (regardless of what the ambient build
    selected).  Raises :class:`AccelUnavailableError` when not built.
    """
    try:
        return importlib.import_module(accel_module_name(canonical))
    except ImportError as exc:
        raise AccelUnavailableError(
            f"no compiled build of {canonical}: {exc}"
        ) from exc

