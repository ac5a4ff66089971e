"""The one sparsity-pattern cache both model families share.

The FDM cavity model caches its :class:`~repro.thermal.assembly.SparsityPattern`
and the finite-volume stack model its
:class:`~repro.core.linear_system.SparsityFold` in one token-keyed LRU of
:mod:`repro.core.linear_system`, read and cleared through one pair of
functions.
"""

from __future__ import annotations

from repro.core import linear_system
from repro.core.linear_system import SparsityFold, clear_pattern_cache, pattern_cache_info
from repro.ice import assemble_system as assemble_stack
from repro.ice import base_cache_info, clear_base_cache
from repro.ice import two_die_stack_from_maps
from repro.thermal import assembly
from repro.thermal.geometry import HeatInputProfile
from repro.thermal.multichannel import build_cavity


def _cavity(geometry, params, n_lanes=2):
    heat = [
        HeatInputProfile.from_areal_flux(50.0 + 25.0 * j, geometry.pitch, geometry.length)
        for j in range(n_lanes)
    ]
    return build_cavity(
        geometry,
        heat,
        heat,
        flow_rate=params.flow_rate_per_channel,
        inlet_temperature=params.inlet_temperature,
    )


def _stack(n_cols=18):
    return two_die_stack_from_maps(
        50.0, 50.0, die_length=0.01, die_width=0.001, n_cols=n_cols, n_rows=1
    )


class TestSharedPatternCache:
    def test_both_families_fill_one_cache(self, geometry, params):
        clear_pattern_cache()
        clear_base_cache()
        cavity = _cavity(geometry, params)
        fdm = assembly.assemble_system(cavity, n_points=27)
        ice = assemble_stack(_stack())
        assert pattern_cache_info()["size"] == 2
        assert fdm.pattern_token[0] == "fdm" and ice.pattern_token[0] == "ice"
        assert isinstance(ice.pattern, SparsityFold)
        # Re-assembling either shape hands back the cached object: the FDM
        # system through the pattern cache, the ICE system through the
        # flow-free stack base that holds its pattern.
        hits = pattern_cache_info()["n_hits"]
        base_hits = base_cache_info()["n_hits"]
        assert assembly.assemble_system(cavity, n_points=27).pattern is fdm.pattern
        assert assemble_stack(_stack()).pattern is ice.pattern
        info = pattern_cache_info()
        assert info["size"] == 2 and info["n_hits"] == hits + 1
        assert base_cache_info()["n_hits"] == base_hits + 1

    def test_the_fdm_names_are_the_shared_functions(self):
        assert assembly.clear_pattern_cache is linear_system.clear_pattern_cache
        assert assembly.pattern_cache_info is linear_system.pattern_cache_info

    def test_capacity_covers_both_former_caches(self):
        assert pattern_cache_info()["capacity"] == 96
