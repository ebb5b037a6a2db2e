"""Tests for the scheme kinds and the named scalar scheme factories."""

import pytest

from repro.core.controller import StaticController
from repro.core.tora import ToraCsmaController
from repro.core.wtop import WTopCsmaController
from repro.mac.backoff import (
    PPersistentBackoff,
    RandomResetBackoff,
    StandardExponentialBackoff,
)
from repro.mac.batched import BatchedIdleSenseBank, BatchedStationIdleSenseBank
from repro.mac.idlesense import IdleSenseBackoff
from repro.mac.schemes import (
    REQUIRED,
    SCHEME_KINDS,
    fixed_p_persistent_scheme,
    fixed_randomreset_scheme,
    idlesense_scheme,
    scheme_kind,
    standard_80211_scheme,
    tora_csma_scheme,
    wtop_csma_scheme,
)

#: Values for the parameters that have no default.
REQUIRED_VALUES = {"p": 0.05, "stage": 1, "p0": 0.5}


class TestSchemeConstruction:
    def test_standard_scheme_components(self, phy):
        scheme = standard_80211_scheme(phy)
        policies = scheme.make_policies(3)
        assert all(isinstance(p, StandardExponentialBackoff) for p in policies)
        assert isinstance(scheme.make_controller(), StaticController)
        assert not scheme.adaptive

    def test_idlesense_scheme_components(self, phy):
        scheme = idlesense_scheme(phy, target_idle_slots=4.0)
        policies = scheme.make_policies(2)
        assert all(isinstance(p, IdleSenseBackoff) for p in policies)
        assert policies[0].target_idle_slots == 4.0
        assert scheme.adaptive

    def test_wtop_scheme_components(self, phy):
        scheme = wtop_csma_scheme(phy, weights=[1.0, 2.0], update_period=0.1)
        policies = scheme.make_policies(2)
        assert all(isinstance(p, PPersistentBackoff) for p in policies)
        assert policies[1].weight == 2.0
        controller = scheme.make_controller()
        assert isinstance(controller, WTopCsmaController)
        assert controller.update_period == pytest.approx(0.1)

    def test_tora_scheme_components(self, phy):
        scheme = tora_csma_scheme(phy, update_period=0.2, initial_stage=1)
        policies = scheme.make_policies(2)
        assert all(isinstance(p, RandomResetBackoff) for p in policies)
        controller = scheme.make_controller()
        assert isinstance(controller, ToraCsmaController)
        assert controller.stage == 1

    def test_policies_are_independent_instances(self, phy):
        scheme = standard_80211_scheme(phy)
        a, b = scheme.make_policies(2)
        assert a is not b

    def test_make_policies_rejects_zero(self, phy):
        with pytest.raises(ValueError):
            standard_80211_scheme(phy).make_policies(0)


class TestOpenLoopSchemes:
    def test_fixed_p_persistent(self):
        scheme = fixed_p_persistent_scheme(0.05, weights=[1.0, 3.0])
        policies = scheme.make_policies(2)
        assert policies[0].base_probability == pytest.approx(0.05)
        assert policies[1].weight == 3.0
        assert not scheme.adaptive

    def test_fixed_randomreset(self, phy):
        scheme = fixed_randomreset_scheme(2, 0.4, phy)
        policy = scheme.make_policies(1)[0]
        assert policy.reset_stage == 2
        assert policy.reset_probability == pytest.approx(0.4)


class TestSchemeKinds:
    def _params(self, declared):
        return {name: REQUIRED_VALUES[name]
                for name, default in declared.defaults.items()
                if default is REQUIRED}

    @pytest.mark.parametrize("kind", sorted(SCHEME_KINDS))
    def test_every_kind_builds_a_scalar_scheme(self, phy, kind):
        declared = scheme_kind(kind)
        scheme = declared.scheme(phy, **self._params(declared))
        assert scheme.adaptive == declared.adaptive
        assert len(scheme.make_policies(3)) == 3
        assert scheme.make_controller() is not None

    @pytest.mark.parametrize("kind", sorted(
        kind for kind, declared in SCHEME_KINDS.items() if declared.banks))
    def test_batched_banks_carry_the_scalar_name(self, phy, kind):
        declared = scheme_kind(kind)
        params = self._params(declared)
        _, _, name = declared.batched(params, 2, 4, phy)
        assert name == declared.scheme(phy, **params).name

    def test_display_names(self, phy):
        names = {kind: declared.scheme(phy, **self._params(declared)).name
                 for kind, declared in SCHEME_KINDS.items()}
        assert names == {
            "standard-802.11": "Standard 802.11",
            "idlesense": "IdleSense",
            "wtop-csma": "wTOP-CSMA",
            "tora-csma": "TORA-CSMA",
            "n-estimating": "N-estimating p-persistent",
            "fixed-p": "p-persistent(p=0.05)",
            "fixed-randomreset": "RandomReset(j=1, p0=0.5)",
        }

    def test_idlesense_banks_observe_per_cell_or_per_station(self, phy):
        declared = scheme_kind("idlesense")
        cell_bank, _, _ = declared.batched({}, 2, 4, phy)
        station_bank, _, _ = declared.batched({}, 2, 4, phy, per_station=True)
        assert isinstance(cell_bank, BatchedIdleSenseBank)
        assert isinstance(station_bank, BatchedStationIdleSenseBank)

    def test_controller_keywords_reach_the_scalar_controller_only(self, phy):
        declared = scheme_kind("wtop-csma")
        scheme = declared.scheme(phy, initial_k=3)
        assert isinstance(scheme.make_controller(), WTopCsmaController)
        assert declared.batchable({"update_period": 0.05})
        assert not declared.batchable({"initial_k": 3})
        with pytest.raises(ValueError, match="no batched kernel"):
            declared.batched({"initial_k": 3}, 2, 4, phy)

    def test_unknown_and_missing_parameters_rejected(self, phy):
        with pytest.raises(TypeError, match="takes no parameter"):
            idlesense_scheme(phy, initial_k=3)
        with pytest.raises(TypeError, match="needs parameter"):
            scheme_kind("fixed-randomreset").scheme(phy, stage=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme kind"):
            scheme_kind("aloha")
        assert not scheme_kind("n-estimating").batchable({})
