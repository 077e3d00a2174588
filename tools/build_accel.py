#!/usr/bin/env python3
"""Build the optional accelerated ("accel") kernel for repro.

The ``ckernel`` backend compiles the hand-written CPython C extensions in
``src/repro/_accel/_csrc/`` — one per module in
``repro._accel.KERNEL_MODULES`` (``sim.simulator``, ``storage.counters``,
``storage.mvstore``) — into compiled twins under ``src/repro/_accel/``.
It needs only a C compiler, the CPython headers and setuptools.

The build writes ``src/repro/_accel/_manifest.json`` recording the
backend and the canonical module names that now have compiled twins.
The runtime loader (:mod:`repro._accel`) reads that manifest: modules in
it are swapped to their compiled twins at import time (unless
``REPRO_ACCEL=0``); modules absent from it silently stay pure.

Usage::

    python tools/build_accel.py                   # build
    python tools/build_accel.py --if-available    # exit 0 when no toolchain
    python tools/build_accel.py --clean           # remove all accel artifacts
    python tools/build_accel.py --status          # show manifest + importability
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
ACCEL_DIR = os.path.join(SRC_ROOT, "repro", "_accel")
CSRC_DIR = os.path.join(ACCEL_DIR, "_csrc")
MANIFEST = os.path.join(ACCEL_DIR, "_manifest.json")
BACKEND = "ckernel"


def _load_loader():
    """The ``repro._accel`` loader, executed from its file: importing the
    ``repro`` package would swap in the very twins this tool rebuilds."""
    spec = importlib.util.spec_from_file_location(
        "_repro_accel_loader", os.path.join(ACCEL_DIR, "__init__.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LOADER = _load_loader()
KERNEL_MODULES = _LOADER.KERNEL_MODULES
accel_module_name = _LOADER.accel_module_name


def c_source(canonical: str) -> str:
    """``repro.storage.mvstore`` -> ``.../_accel/_csrc/mvstore.c``."""
    return os.path.join(CSRC_DIR, canonical.rsplit(".", 1)[1] + ".c")


def log(message: str) -> None:
    print(f"[build_accel] {message}")


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------

def ext_suffixes() -> list:
    import importlib.machinery

    return importlib.machinery.EXTENSION_SUFFIXES


def built_extension_files(directory: str) -> list:
    """All compiled-extension files directly inside ``directory``."""
    if not os.path.isdir(directory):
        return []
    suffixes = tuple(ext_suffixes())
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(suffixes)
    )


def have_c_toolchain() -> bool:
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        return False
    include = sysconfig.get_paths().get("include", "")
    return os.path.isfile(os.path.join(include, "Python.h"))


def run_build_ext(extensions, build_lib: str) -> None:
    """Compile ``extensions`` into ``build_lib`` via setuptools."""
    from setuptools.command.build_ext import build_ext
    from setuptools.dist import Distribution

    dist = Distribution({"name": "repro-accel", "ext_modules": extensions})
    command = build_ext(dist)
    command.build_lib = build_lib
    command.build_temp = os.path.join(build_lib, "temp")
    command.ensure_finalized()
    command.run()


def verify_import(canonical: str) -> bool:
    """Can the compiled twin of ``canonical`` be imported in a clean
    interpreter?  Runs with REPRO_ACCEL=0 so the loader hooks stay pure
    while the twin itself is exercised."""
    accel_name = accel_module_name(canonical)
    env = dict(os.environ)
    env["REPRO_ACCEL"] = "0"
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    probe = subprocess.run(
        [sys.executable, "-c", f"import {accel_name}"],
        env=env,
        capture_output=True,
        text=True,
    )
    if probe.returncode != 0:
        log(f"compiled twin {accel_name} failed to import:")
        sys.stderr.write(probe.stderr)
        return False
    return True


def verify_swap() -> bool:
    """Can the canonical package import with the manifest active?

    Runs after the manifest is written, with ``REPRO_ACCEL=1``, importing
    every canonical kernel module in a clean interpreter.  This is the
    check :func:`verify_import` cannot make: a twin can import fine in
    isolation yet break the package once the loader swaps it in — e.g. a
    twin missing a public name of its pure module.  A build that fails
    here would brick every ``import repro`` until ``--clean``, so it must
    never leave a manifest behind."""
    env = dict(os.environ)
    env["REPRO_ACCEL"] = "1"
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import repro\n"
        + "".join(f"import {name}\n" for name in sorted(KERNEL_MODULES))
        + "import repro._accel as _accel\n"
        "assert _accel.build_mode() == 'accel', "
        "_accel.accelerated_modules()\n"
    )
    probe = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
    )
    if probe.returncode != 0:
        log("canonical import under REPRO_ACCEL=1 failed with the swap "
            "active:")
        sys.stderr.write(probe.stderr)
        return False
    return True


def write_manifest(modules: list) -> None:
    payload = {"backend": BACKEND, "modules": sorted(modules)}
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    log(f"wrote {os.path.relpath(MANIFEST, REPO_ROOT)}: "
        f"backend={BACKEND}, {len(modules)} modules")


def clean(verbose: bool = True) -> None:
    removed = []
    for path in built_extension_files(ACCEL_DIR):
        os.unlink(path)
        removed.append(path)
    if os.path.isfile(MANIFEST):
        os.unlink(MANIFEST)
        removed.append(MANIFEST)
    pycache = os.path.join(ACCEL_DIR, "__pycache__")
    if os.path.isdir(pycache):
        shutil.rmtree(pycache)
    if verbose:
        if removed:
            for path in removed:
                log(f"removed {os.path.relpath(path, REPO_ROOT)}")
        else:
            log("nothing to clean")


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------

def build_ckernel() -> list:
    from setuptools import Extension

    extensions = [
        Extension(
            accel_module_name(canonical),
            sources=[c_source(canonical)],
            extra_compile_args=["-O2"],
        )
        for canonical in sorted(KERNEL_MODULES)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-accel-") as build_lib:
        run_build_ext(extensions, build_lib)
        built_dir = os.path.join(build_lib, "repro", "_accel")
        built = built_extension_files(built_dir)
        if len(built) != len(extensions):
            raise RuntimeError(
                f"expected {len(extensions)} built extensions, "
                f"found {len(built)} in {built_dir}"
            )
        for path in built:
            target = os.path.join(ACCEL_DIR, os.path.basename(path))
            shutil.copy2(path, target)
            log(f"installed {os.path.relpath(target, REPO_ROOT)}")
    return sorted(KERNEL_MODULES)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def status() -> int:
    if not os.path.isfile(MANIFEST):
        log("no build manifest: the accel kernel is not built (pure only)")
        return 0
    with open(MANIFEST, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    log(f"backend: {manifest.get('backend')}")
    failures = 0
    for canonical in manifest.get("modules", []):
        ok = verify_import(canonical)
        log(f"  {canonical}: {'ok' if ok else 'BROKEN'}")
        failures += 0 if ok else 1
    swap_ok = verify_swap()
    log(f"  swap (REPRO_ACCEL=1 canonical import): "
        f"{'ok' if swap_ok else 'BROKEN'}")
    failures += 0 if swap_ok else 1
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--if-available",
        action="store_true",
        help="exit 0 (without building) when no toolchain is present",
    )
    parser.add_argument(
        "--clean", action="store_true",
        help="remove all built accel artifacts and exit",
    )
    parser.add_argument(
        "--status", action="store_true",
        help="report the current build manifest and exit",
    )
    options = parser.parse_args(argv)

    if options.clean:
        clean()
        return 0
    if options.status:
        return status()

    if not have_c_toolchain():
        message = ("no accel toolchain: need a C compiler with CPython "
                   "headers")
        if options.if_available:
            log(message + " — skipping build")
            return 0
        log(message)
        return 1

    clean(verbose=False)
    log(f"building accel kernel with the {BACKEND} backend")
    modules = build_ckernel()
    bad = [m for m in modules if not verify_import(m)]
    if bad:
        log(f"build verification failed for: {', '.join(bad)}")
        clean(verbose=False)
        return 1
    write_manifest(modules)
    if not verify_swap():
        log("swap verification failed — removing the broken build")
        clean(verbose=False)
        return 1
    log("done — set REPRO_ACCEL=1 to require the compiled kernel")
    return 0


if __name__ == "__main__":
    sys.exit(main())
