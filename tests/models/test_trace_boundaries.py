"""The benchmark's tracer sees each model call exactly once.

``perfbench/tracer.py`` times layers by patching ``RouteNet.forward`` and
``ExtendedRouteNet.forward`` (and ``build_index`` where the models look it
up).  It shadows an inherited method on the class it patches, so if one
model class subclassed the other, an extended call would pass through two
patched ``forward`` wrappers and be counted twice.  These tests pin the
sibling layout the tracer's counts rely on.
"""

import pytest

from perfbench.tracer import Tracer
from repro.datasets import DatasetConfig, FeatureNormalizer, generate_dataset, tensorize_sample
from repro.models import ExtendedRouteNet, RouteNet, RouteNetConfig
from repro.topology import ring_topology

CONFIG = RouteNetConfig(link_state_dim=6, path_state_dim=6, node_state_dim=6,
                        message_passing_iterations=2, readout_hidden_sizes=(8,), seed=0)


@pytest.mark.parametrize("model_cls", [RouteNet, ExtendedRouteNet])
def test_one_forward_and_one_build_index_span_per_call(model_cls):
    samples = generate_dataset(ring_topology(5), DatasetConfig(num_samples=1, seed=0))
    tensorized = tensorize_sample(samples[0], FeatureNormalizer().fit(samples))
    model = model_cls(CONFIG)
    tracer = Tracer()
    tracer.install()
    try:
        model(tensorized)
        model.predict(tensorized)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("forward") == 2
    assert names.count("build_index") == 2
