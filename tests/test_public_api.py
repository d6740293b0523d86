"""Tests of the top-level public API surface."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import repro
from repro.service.launch import repro_env


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), "repro.__all__ lists %r but it is missing" % name

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.windows",
            "repro.queries",
            "repro.distributed",
            "repro.service",
            "repro.streams",
            "repro.baselines",
            "repro.analysis",
            "repro.experiments",
            "repro.serialization",
            "repro.cli",
        ],
    )
    def test_subpackages_importable_and_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), "%s.__all__ lists %r but it is missing" % (module_name, name)

    def test_readme_quickstart_snippet_runs(self):
        """The exact code shown in the README must keep working."""
        from repro import ECMSketch

        sketch = ECMSketch.for_point_queries(epsilon=0.05, delta=0.05, window=3600.0)
        sketch.add("10.1.2.3", clock=12.0)
        sketch.add("10.1.2.3", clock=57.0)
        sketch.add("10.9.9.9", clock=60.0)
        estimate = sketch.point_query("10.1.2.3", range_length=600.0, now=60.0)
        f2 = sketch.self_join(now=60.0)
        assert estimate >= 2.0
        assert f2 >= 5.0

    def test_readme_distributed_snippet_runs(self):
        from repro.core import ECMConfig, ECMSketch

        config = ECMConfig.for_point_queries(epsilon=0.05, delta=0.05, window=3600.0)
        locals_ = [ECMSketch(config, stream_tag=i) for i in range(4)]
        for index, sketch in enumerate(locals_):
            sketch.add("item-%d" % index, clock=float(index))
        union_sketch = ECMSketch.aggregate(locals_)
        assert union_sketch.total_arrivals() == 4

    def test_docstrings_present_on_public_classes(self):
        from repro import (
            CountMinSketch,
            DeterministicWave,
            ECMSketch,
            ExponentialHistogram,
            RandomizedWave,
        )

        for cls in (ECMSketch, CountMinSketch, ExponentialHistogram, DeterministicWave, RandomizedWave):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 40
            for attribute_name in dir(cls):
                if attribute_name.startswith("_"):
                    continue
                attribute = getattr(cls, attribute_name)
                if callable(attribute):
                    assert attribute.__doc__, "%s.%s lacks a docstring" % (cls.__name__, attribute_name)


class TestLazyPackages:
    """``repro``, ``repro.core`` and ``repro.windows`` resolve names on first use."""

    def test_package_imports_load_no_numpy(self):
        # A fresh interpreter: this one has long since imported NumPy.
        probe = (
            "import json, sys\n"
            "import repro, repro.core, repro.windows, repro.service.config\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=repro_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        modules = set(json.loads(result.stdout))
        assert "numpy" not in modules
        assert not {"repro.core.ecm_sketch", "repro.core.countmin", "repro.core.counter_store"} & modules

    @pytest.mark.parametrize("package_name", ["repro", "repro.core", "repro.windows"])
    def test_every_export_is_its_defining_submodules_object(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            if name == "__version__":
                continue
            submodule = importlib.import_module(
                "%s.%s" % (package_name, package._EXPORTS[name])
            )
            assert getattr(package, name) is vars(submodule)[name], (package_name, name)

    def test_unknown_name_raises_attribute_error(self):
        for package in (repro, repro.core, repro.windows):
            with pytest.raises(AttributeError):
                package.no_such_name  # noqa: B018

    def test_moved_config_helpers_keep_their_old_homes(self):
        from repro.core import config
        from repro.core.counter_store import store_layout
        from repro.core.countmin import dimensions_for_error

        assert dimensions_for_error is config.dimensions_for_error
        assert store_layout is config.store_layout
        assert dimensions_for_error(0.1, 0.05) == (28, 3)
        assert store_layout(config.CounterType.EXPONENTIAL_HISTOGRAM) == "columnar"
        assert store_layout(config.CounterType.DETERMINISTIC_WAVE) == "object"
