"""Package-level sanity tests: version, public exports, subpackage wiring."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_default_phy_exported(self):
        assert repro.DEFAULT_PHY == repro.PhyParameters()


SUBPACKAGES = [
    "repro.phy",
    "repro.topology",
    "repro.mac",
    "repro.core",
    "repro.sim",
    "repro.analysis",
    "repro.experiments",
]


class TestSubpackages:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_importable(self, name):
        module = importlib.import_module(name)
        assert module is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    def test_scheme_names_usable_end_to_end(self):
        # The four paper schemes can all be instantiated through the kind
        # table and produce policies plus a controller.
        from repro.mac import SCHEME_KINDS

        for name in ("standard-802.11", "idlesense", "wtop-csma", "tora-csma"):
            scheme = SCHEME_KINDS[name].scheme()
            policies = scheme.make_policies(3)
            assert len(policies) == 3
            assert scheme.make_controller() is not None
