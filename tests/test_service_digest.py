"""Content-addressing of service requests (repro.service.request).

The dedup-keying guarantee: normalizing a request is idempotent, so a
machine configuration survives any dump/load round trip with its digest
intact — ``digest(load(dump(params))) == digest(params)``.
"""

import dataclasses
import json
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import service
from repro.configio import (
    canonical_machine_dict,
    load_machine_config,
    machine_config_from_dict,
    machine_config_to_dict,
    save_machine_config,
)
from repro.params import MachineConfig
from repro.service.request import (
    Priority,
    SimRequest,
    canonical_request_tree,
    parse_priority,
    request_digest,
)
from repro.snapshot.digest import state_digest


def _request(machine=None, **kwargs):
    defaults = dict(benchmark="b2c", scale=0.05, mode="functional")
    defaults.update(kwargs)
    return SimRequest(machine=machine or MachineConfig(), **defaults)


# Random machine configurations: tweak a spread of int, float, and bool
# knobs across several components so round-trip bugs in any one
# component's normalization show up.
machines = st.builds(
    lambda content_on, depth, next_lines, stride_dist, markov_on, bw, seed: (
        MachineConfig()
        .with_content(
            enabled=content_on, depth_threshold=depth, next_lines=next_lines
        )
        .with_stride(prefetch_distance=stride_dist)
        .with_markov(enabled=markov_on)
        .replace(
            bus=MachineConfig().bus.__class__(
                bandwidth_bytes_per_cycle=bw
            )
        )
        .with_faults(seed=seed)
    ),
    content_on=st.booleans(),
    depth=st.integers(min_value=1, max_value=8),
    next_lines=st.integers(min_value=0, max_value=4),
    stride_dist=st.integers(min_value=1, max_value=4),
    markov_on=st.booleans(),
    bw=st.one_of(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.25, max_value=4.0,
                  allow_nan=False, allow_infinity=False),
    ),
    seed=st.integers(min_value=1, max_value=99),
)

requests = st.builds(
    lambda machine, benchmark, scale, seed, warmup, mode: SimRequest(
        machine=machine, benchmark=benchmark, scale=scale, seed=seed,
        warmup_fraction=warmup, mode=mode,
    ),
    machine=machines,
    benchmark=st.sampled_from(["b2c", "quake", "vpr"]),
    scale=st.floats(min_value=0.01, max_value=1.0,
                    allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=1, max_value=1000),
    warmup=st.floats(min_value=0.0, max_value=0.9,
                     allow_nan=False, allow_infinity=False),
    mode=st.sampled_from(["timing", "functional"]),
)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(request=requests)
    def test_digest_survives_dump_load(self, request):
        # dump -> JSON text -> load must key the same cache cell.
        dumped = json.dumps(machine_config_to_dict(request.machine))
        reloaded = machine_config_from_dict(json.loads(dumped))
        assert request_digest(request.with_machine(reloaded)) \
            == request_digest(request)

    @settings(max_examples=25, deadline=None)
    @given(machine=machines)
    def test_canonical_dict_is_idempotent(self, machine):
        once = canonical_machine_dict(machine)
        twice = canonical_machine_dict(machine_config_from_dict(once))
        assert once == twice

    def test_digest_survives_config_file(self, tmp_path):
        config = MachineConfig().with_content(depth_threshold=5)
        path = tmp_path / "machine.json"
        save_machine_config(config, str(path))
        request = _request(machine=config)
        roundtripped = _request(machine=load_machine_config(str(path)))
        assert request_digest(roundtripped) == request_digest(request)


def _equal_fresh(request):
    """A new, never-digested request equal to *request*."""
    return SimRequest(**{
        field.name: getattr(request, field.name)
        for field in dataclasses.fields(request)
    })


def _only_fields(request) -> bool:
    """True when the instance carries nothing but its dataclass fields."""
    return set(vars(request)) == {
        field.name for field in dataclasses.fields(request)
    }


class TestMemoizedForms:
    """The per-request memo of the tree and digest is safe to share."""

    @settings(max_examples=40, deadline=None)
    @given(request=requests)
    def test_memo_matches_a_fresh_tree_and_stays_invisible(self, request):
        plain = _equal_fresh(request)
        digest = request_digest(request)
        assert request_digest(request) == digest
        assert canonical_request_tree(request) is canonical_request_tree(
            request
        )
        fresh = _equal_fresh(request)
        assert state_digest(canonical_request_tree(fresh)) == digest
        # Invisible to equality, hashing and repr.
        assert request == plain and hash(request) == hash(plain)
        assert repr(request) == repr(plain)

    @settings(max_examples=40, deadline=None)
    @given(request=requests)
    def test_pickle_and_replace_carry_no_stale_memo(self, request):
        digest = request_digest(request)
        for copied in (pickle.loads(pickle.dumps(request)),
                       dataclasses.replace(request)):
            assert copied == request
            assert _only_fields(copied)
            assert request_digest(copied) == digest
        moved = dataclasses.replace(request, seed=request.seed + 1)
        assert _only_fields(moved)
        assert request_digest(moved) == state_digest(
            canonical_request_tree(_equal_fresh(moved))
        )
        assert request_digest(moved) != digest

    @settings(max_examples=20, deadline=None)
    @given(request=requests)
    def test_store_round_trip_leaves_the_shared_tree_intact(self, request):
        from repro.core.results import FunctionalResult
        from repro.service.store import ResultStore

        digest = request_digest(request)
        with tempfile.TemporaryDirectory() as directory:
            store = ResultStore(directory)
            store.put(digest, FunctionalResult(name="x"),
                      fingerprint=canonical_request_tree(request))
            got = store.get(digest,
                            fingerprint=canonical_request_tree(request))
            with open(store.path(digest), "rb") as handle:
                stored = pickle.load(handle)["fingerprint"]
        fresh = canonical_request_tree(_equal_fresh(request))
        assert got is not None and got.name == "x"
        assert stored == fresh
        assert canonical_request_tree(request) == fresh


class TestNormalization:
    def test_int_for_float_field_keys_identically(self):
        # JSON blurs 1 / 1.0; the canonical form must not.
        as_int = machine_config_from_dict(
            {"bus": {"bandwidth_bytes_per_cycle": 1}}
        )
        as_float = machine_config_from_dict(
            {"bus": {"bandwidth_bytes_per_cycle": 1.0}}
        )
        assert request_digest(_request(machine=as_int)) \
            == request_digest(_request(machine=as_float))

    def test_partial_dict_keys_like_defaults(self):
        partial = machine_config_from_dict({"content": {"enabled": True}})
        assert request_digest(_request(machine=partial)) \
            == request_digest(_request(machine=MachineConfig()))

    def test_disabled_component_knobs_do_not_key(self):
        # A sweep's stride-only baselines differ only in knobs of the
        # *disabled* content prefetcher — provably inert, so they must
        # collapse to one content address (one cached baseline per
        # benchmark, not one per sweep point).
        plain = MachineConfig().with_content(enabled=False)
        leftover = plain.with_content(depth_threshold=7, next_lines=1)
        assert request_digest(_request(machine=plain)) \
            == request_digest(_request(machine=leftover))

    def test_structural_fields_key_even_when_disabled(self):
        # address_bits shapes address masking machine-wide; it stays
        # keyed regardless of content.enabled.
        plain = MachineConfig().with_content(enabled=False)
        wider = plain.with_content(address_bits=64)
        assert request_digest(_request(machine=plain)) \
            != request_digest(_request(machine=wider))

    def test_enabled_component_knobs_all_key(self):
        on = MachineConfig().with_content(enabled=True)
        assert request_digest(_request(machine=on)) \
            != request_digest(
                _request(machine=on.with_content(depth_threshold=7))
            )

    def test_dict_order_is_irrelevant(self):
        tree = canonical_request_tree(_request())
        reordered = dict(reversed(list(tree.items())))
        from repro.snapshot.digest import state_digest

        assert state_digest(reordered) == state_digest(tree)

    def test_every_parameter_is_keyed(self):
        base = _request()
        variants = [
            _request(machine=MachineConfig().with_content(enabled=False)),
            _request(benchmark="quake"),
            _request(scale=0.06),
            _request(seed=2),
            _request(warmup_fraction=0.5),
            _request(mode="timing"),
        ]
        digests = {request_digest(v) for v in variants}
        assert request_digest(base) not in digests
        assert len(digests) == len(variants)

    def test_schema_version_is_keyed(self, monkeypatch):
        from repro.service import request as request_mod

        before = request_digest(_request())
        monkeypatch.setattr(
            request_mod, "RESULT_SCHEMA_VERSION",
            request_mod.RESULT_SCHEMA_VERSION + 1,
        )
        assert request_digest(_request()) != before


class TestRequestValidation:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            SimRequest.from_dict(
                {"benchmark": "b2c", "scale": 0.05, "benchmrk": "typo"}
            )

    def test_from_dict_requires_benchmark_and_scale(self):
        with pytest.raises(ValueError, match="benchmark and scale"):
            SimRequest.from_dict({"benchmark": "b2c"})

    def test_from_dict_partial_machine(self):
        request = SimRequest.from_dict({
            "benchmark": "b2c", "scale": 0.05,
            "machine": {"content": {"enabled": False}},
        })
        assert request.machine.content.enabled is False
        assert request.machine.stride.enabled is True  # default preserved

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            _request(mode="cycle_exact")

    def test_parse_priority(self):
        assert parse_priority("interactive") is Priority.INTERACTIVE
        assert parse_priority("SWEEP") is Priority.SWEEP
        assert parse_priority(0) is Priority.INTERACTIVE
        assert parse_priority(Priority.SWEEP) is Priority.SWEEP
        with pytest.raises(ValueError):
            parse_priority("urgent")
        with pytest.raises(ValueError):
            parse_priority(True)

    def test_service_package_exports(self):
        for name in ("SimulationService", "ResultStore", "SimRequest",
                     "ServiceSession", "request_digest", "Priority"):
            assert hasattr(service, name)
