"""Compiled-kernel build: loader semantics, import surface, dual-build
digest identity, and the bench gate's cross-build refusal.

Everything that needs a compiled build skips cleanly when none is present
(``tools/build_accel.py`` has not been run, or the toolchain is absent),
so pure checkouts pass this file unchanged.  The loader-semantics and
bench-gate tests are build-independent and always run.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro._accel as accel_loader
from repro._accel import (
    KERNEL_MODULES,
    AccelUnavailableError,
    accel_module_name,
    install,
    load_accel,
    pure_namespace,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
sys.path.insert(0, str(REPO_ROOT / "tools"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench as bench_cli  # noqa: E402
import build_accel as build_cli  # noqa: E402


def compiled_kernel_modules():
    """Canonical names whose compiled twin is importable right now."""
    found = []
    for canonical in KERNEL_MODULES:
        try:
            load_accel(canonical)
        except AccelUnavailableError:
            continue
        found.append(canonical)
    return found


COMPILED = compiled_kernel_modules()

needs_accel = pytest.mark.skipif(
    not COMPILED, reason="no compiled accel build present "
                         "(run `python tools/build_accel.py`)")


def run_py(code, **env_overrides):
    """Run a snippet in a fresh interpreter with a controlled REPRO_ACCEL."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT)
    env.pop("REPRO_ACCEL", None)
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
    )


class TestLoaderSemantics:
    def test_accel_module_name_mapping(self):
        assert (accel_module_name("repro.sim.simulator")
                == "repro._accel.sim_simulator")
        assert (accel_module_name("repro.storage.mvstore")
                == "repro._accel.storage_mvstore")
        with pytest.raises(ValueError):
            accel_module_name("os.path")

    def test_install_rejects_non_kernel_modules(self):
        with pytest.raises(RuntimeError):
            install({"__name__": "repro.analysis", "__all__": []})

    def test_force_pure_ignores_any_build(self):
        result = run_py(
            "import repro\n"
            "import repro.storage.mvstore, repro.sim.simulator\n"
            "print(repro.build_mode(), repro.accelerated_modules())\n",
            REPRO_ACCEL="0",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "pure ()"

    def test_auto_mode_always_imports(self):
        result = run_py(
            "import repro\n"
            "for name in repro._accel.KERNEL_MODULES:\n"
            "    __import__(name)\n"
            "print(repro.build_mode())\n",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() in ("pure", "accel")

    @needs_accel
    def test_require_mode_selects_compiled(self):
        result = run_py(
            "import json, repro\n"
            "import repro.storage.mvstore, repro.storage.counters\n"
            "import repro.sim.simulator\n"
            "print(json.dumps([repro.build_mode(),\n"
            "                  sorted(repro.accelerated_modules()),\n"
            "                  repro.accel_backend()]))\n",
            REPRO_ACCEL="1",
        )
        assert result.returncode == 0, result.stderr
        mode, modules, backend = json.loads(result.stdout)
        assert mode == "accel"
        assert backend == "ckernel"
        for canonical in COMPILED:
            assert canonical in modules

    def test_require_mode_without_build_raises(self, monkeypatch):
        """REPRO_ACCEL=1 with no manifest must fail loudly, not fall back."""
        name = "repro.storage.counters"
        importlib.import_module(name)
        # install() will overwrite the loader's bookkeeping for this
        # module; pin the real entries so the rest of the suite is
        # untouched after teardown.
        monkeypatch.setitem(accel_loader._pure, name,
                            accel_loader._pure[name])
        monkeypatch.setitem(accel_loader._status, name,
                            accel_loader._status[name])
        monkeypatch.setattr(accel_loader, "_manifest_cache", None)
        monkeypatch.setenv("REPRO_ACCEL", "1")
        with pytest.raises(AccelUnavailableError):
            install({"__name__": name, "__all__": []})

    def test_module_absent_from_manifest_stays_pure(self, monkeypatch):
        """A backend that compiles only some modules leaves the rest pure
        silently — even under REPRO_ACCEL=1 (pure IS the built artifact)."""
        name = "repro.storage.counters"
        importlib.import_module(name)
        monkeypatch.setitem(accel_loader._pure, name,
                            accel_loader._pure[name])
        monkeypatch.setitem(accel_loader._status, name,
                            accel_loader._status[name])
        monkeypatch.setattr(accel_loader, "_manifest_cache",
                            {"backend": "ckernel", "modules": []})
        monkeypatch.setenv("REPRO_ACCEL", "1")
        sentinel = object()
        namespace = {"__name__": name, "__all__": ["marker"],
                     "marker": sentinel}
        install(namespace)
        assert namespace["marker"] is sentinel

    def test_backend_is_none_when_every_module_runs_pure(self, monkeypatch):
        """A manifest on disk names its backend, but with every kernel
        module pure (``REPRO_ACCEL=0``) no backend is running."""
        monkeypatch.setattr(accel_loader, "_manifest_cache",
                            {"backend": "ckernel",
                             "modules": list(KERNEL_MODULES)})
        monkeypatch.setattr(accel_loader, "_status",
                            dict.fromkeys(KERNEL_MODULES, "pure"))
        assert repro.accel_backend() is None
        accel_loader._status["repro.sim.simulator"] = "accel"
        assert repro.accel_backend() == "ckernel"

    def test_pure_namespace_survives_the_swap(self):
        """The snapshot hands back genuine pure-Python classes even when
        the ambient build swapped the canonical names."""
        snapshot = pure_namespace("repro.sim.simulator")
        simulator = snapshot["Simulator"]
        sim = simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"] and sim.now == 1.0
        # A genuinely pure method has Python bytecode behind it; the
        # compiled C twins do not.
        assert hasattr(simulator.schedule, "__code__")


@needs_accel
class TestImportSurface:
    """Satellite: every compiled twin exposes the same public names as the
    pure module's ``__all__`` — the all-or-nothing swap depends on it."""

    @pytest.mark.parametrize("canonical", KERNEL_MODULES)
    def test_twin_exposes_every_public_name(self, canonical):
        twin = load_accel(canonical)
        public = importlib.import_module(canonical).__all__
        missing = [name for name in public if not hasattr(twin, name)]
        assert not missing, (
            f"compiled twin of {canonical} is missing {missing}")

    @pytest.mark.parametrize("canonical", KERNEL_MODULES)
    def test_pure_snapshot_has_every_public_name(self, canonical):
        snapshot = pure_namespace(canonical)
        public = importlib.import_module(canonical).__all__
        missing = [name for name in public if name not in snapshot]
        assert not missing


@needs_accel
class TestDualBuildDigests:
    """The acceptance oracle: pure and compiled builds must be
    bit-identical on every determinism digest, not just close."""

    E2E_CODE = (
        "import json, sys\n"
        "sys.path.insert(0, 'benchmarks')\n"
        "import bench_hotpath, repro\n"
        "digest = bench_hotpath.e2e_digest(\n"
        "    bench_hotpath.run_e2e(bench_hotpath.CONFIGS['smoke']['e2e']))\n"
        "print(json.dumps({'build': repro.build_mode(),\n"
        "                  'digest': digest}, sort_keys=True))\n"
    )

    def test_e2e_digest_identical_across_builds(self):
        pure = run_py(self.E2E_CODE, REPRO_ACCEL="0")
        accel = run_py(self.E2E_CODE, REPRO_ACCEL="1")
        assert pure.returncode == 0, pure.stderr
        assert accel.returncode == 0, accel.stderr
        pure_doc = json.loads(pure.stdout)
        accel_doc = json.loads(accel.stdout)
        # Both legs actually exercised their intended build...
        assert pure_doc["build"] == "pure"
        assert accel_doc["build"] == "accel"
        # ...and produced the same digest bit for bit.
        assert pure_doc["digest"] == accel_doc["digest"]

    def test_chaos_output_identical_across_builds(self):
        """Same fault seed, same storm, same report — the injector sits on
        top of the kernel, so the compiled build must not perturb it."""
        argv = ("from repro.cli import main\n"
                "main(['chaos', '3v', '--duration', '5', '--seed', '3',\n"
                "      '--fault-seed', '11'])\n")
        pure = run_py(argv, REPRO_ACCEL="0")
        accel = run_py(argv, REPRO_ACCEL="1")
        assert pure.returncode == 0, pure.stderr
        assert accel.returncode == 0, accel.stderr
        assert pure.stdout == accel.stdout

    def test_summary_records_build_mode(self):
        code = (
            "import json\n"
            "from repro.exp import ExperimentSpec, run_spec\n"
            "summary = run_spec(ExperimentSpec(protocol='3v', nodes=3,\n"
            "                                  duration=10.0, seed=7))\n"
            "print(json.dumps([summary.build_mode,\n"
            "                  summary.determinism_digest()]))\n"
        )
        pure = run_py(code, REPRO_ACCEL="0")
        accel = run_py(code, REPRO_ACCEL="1")
        assert pure.returncode == 0, pure.stderr
        assert accel.returncode == 0, accel.stderr
        pure_mode, pure_digest = json.loads(pure.stdout)
        accel_mode, accel_digest = json.loads(accel.stdout)
        assert (pure_mode, accel_mode) == ("pure", "accel")
        # build_mode is a reporting property, never part of the digest.
        assert pure_digest == accel_digest


class TestBenchBuildGate:
    """Satellite: ``--check`` refuses cross-build metric comparisons and
    ``--digest-only`` stays legal across builds.  Driven synthetically —
    no timing, never flaky."""

    @staticmethod
    def baseline(build_mode="pure", accel=None):
        doc = {
            "host": {"build_mode": build_mode, "build_backend": None},
            "metrics": {"a_per_sec": 100.0},
            "determinism": {"events": 42},
        }
        if accel is not None:
            doc["accel"] = accel
        return doc

    @staticmethod
    def fresh(mode="pure", backend=None, accel=None,
              metrics=None, determinism=None):
        doc = {
            "build": {"mode": mode, "backend": backend},
            "metrics": {"a_per_sec": 100.0} if metrics is None else metrics,
            "determinism": {"events": 42} if determinism is None
            else determinism,
        }
        if accel is not None:
            doc["accel"] = accel
        return doc

    def test_refuses_cross_build_metric_comparison(self):
        lines = []
        ok = bench_cli.check(self.baseline("pure"),
                             self.fresh(mode="accel", backend="ckernel"),
                             "full", 0.25, out=lines.append)
        assert not ok
        assert any("REFUSED" in line for line in lines)
        assert any("--digest-only" in line for line in lines)

    def test_matching_builds_compare_normally(self):
        assert bench_cli.check(self.baseline("pure"), self.fresh("pure"),
                               "full", 0.25, out=lambda *_: None)

    def test_baseline_without_build_stamp_defaults_to_pure(self):
        baseline = self.baseline("pure")
        del baseline["host"]
        assert bench_cli.check(baseline, self.fresh("pure"), "full", 0.25,
                               out=lambda *_: None)
        assert not bench_cli.check(baseline, self.fresh("accel", "ckernel"),
                                   "full", 0.25, out=lambda *_: None)

    def test_digest_only_is_legal_across_builds(self):
        assert bench_cli.check(self.baseline("pure"),
                               self.fresh(mode="accel", backend="ckernel"),
                               "full", 0.25, out=lambda *_: None,
                               digest_only=True)

    def test_digest_only_still_gates_determinism(self):
        fresh = self.fresh(mode="accel", backend="ckernel",
                           determinism={"events": 43})
        assert not bench_cli.check(self.baseline("pure"), fresh, "full",
                                   0.25, out=lambda *_: None,
                                   digest_only=True)

    def test_accel_section_skips_without_compiled_build(self):
        lines = []
        committed = {"backend": "ckernel",
                     "metrics": {"accel_counter_incs_speedup": 8.0}}
        ok = bench_cli.check(self.baseline("pure", accel=committed),
                             self.fresh("pure"), "full", 0.25,
                             out=lines.append)
        assert ok
        assert any("skipped" in line for line in lines)

    def test_accel_section_skips_on_backend_change(self):
        committed = {"backend": "ckernel",
                     "metrics": {"accel_counter_incs_speedup": 8.0}}
        measured = {"backend": "other",
                    "metrics": {"accel_counter_incs_speedup": 2.0}}
        assert bench_cli.check(self.baseline("pure", accel=committed),
                               self.fresh("pure", accel=measured),
                               "full", 0.25, out=lambda *_: None)

    def test_accel_regression_gates(self):
        committed = {"backend": "ckernel",
                     "metrics": {"accel_counter_incs_speedup": 8.0}}
        measured = {"backend": "ckernel",
                    "metrics": {"accel_counter_incs_speedup": 2.0}}
        assert not bench_cli.check(self.baseline("pure", accel=committed),
                                   self.fresh("pure", accel=measured),
                                   "full", 0.25, out=lambda *_: None)

    def test_accel_missing_metric_fails(self):
        committed = {"backend": "ckernel",
                     "metrics": {"accel_counter_incs_speedup": 8.0}}
        measured = {"backend": "ckernel", "metrics": {}}
        assert not bench_cli.check(self.baseline("pure", accel=committed),
                                   self.fresh("pure", accel=measured),
                                   "full", 0.25, out=lambda *_: None)


class TestBuildSwapVerification:
    """``build_accel.py`` must prove the build is usable with the swap
    active (REPRO_ACCEL=1, canonical imports) — a twin that imports in
    isolation but breaks the swapped package would otherwise pass
    verification, write its manifest, and brick the checkout."""

    @needs_accel
    def test_verify_swap_passes_on_a_healthy_build(self):
        assert build_cli.verify_swap()

    def test_failed_swap_verification_removes_the_build(
            self, monkeypatch, tmp_path):
        accel_dir = tmp_path / "_accel"
        accel_dir.mkdir()
        manifest = accel_dir / "_manifest.json"
        # Redirect every artifact path into tmp so the real clean() runs
        # without touching the checkout's actual build.
        monkeypatch.setattr(build_cli, "ACCEL_DIR", str(accel_dir))
        monkeypatch.setattr(build_cli, "MANIFEST", str(manifest))
        monkeypatch.setattr(build_cli, "have_c_toolchain", lambda: True)
        monkeypatch.setattr(build_cli, "build_ckernel",
                            lambda: sorted(build_cli.KERNEL_MODULES))
        monkeypatch.setattr(build_cli, "verify_import", lambda canonical: True)
        manifest_active = []

        def failing_swap():
            manifest_active.append(manifest.is_file())
            return False

        monkeypatch.setattr(build_cli, "verify_swap", failing_swap)
        assert build_cli.main([]) == 1
        # The probe ran with the freshly written manifest active...
        assert manifest_active == [True]
        # ...and the failed build left no manifest behind.
        assert not manifest.is_file()


class TestVersionReporting:
    def test_version_string_names_the_build(self):
        result = run_py(
            "from repro.cli import _version_string\n"
            "print(_version_string())\n",
            REPRO_ACCEL="0",
        )
        assert result.returncode == 0, result.stderr
        assert "(build: pure)" in result.stdout

    @needs_accel
    def test_version_string_lists_compiled_modules(self):
        result = run_py(
            "from repro.cli import _version_string\n"
            "print(_version_string())\n",
            REPRO_ACCEL="1",
        )
        assert result.returncode == 0, result.stderr
        assert "build: accel/" in result.stdout
