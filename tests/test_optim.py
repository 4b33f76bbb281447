"""The flat-buffer Nesterov optimizer against a per-parameter reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_nesterov_step
from openset_ssl.model import GraphBuilder, ModelConfig, build_model
from openset_ssl.optim import NesterovSGD, cosine_lr

SHAPES = st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
                  min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    shapes=SHAPES,
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    cosine=st.booleans(),
    mu=st.sampled_from([0.0, 0.5, 0.9]),
    data=st.data(),
)
def test_steps_match_the_per_parameter_reference_byte_for_byte(shapes, steps, seed, cosine, mu,
                                                               data):
    gen = np.random.default_rng(seed)
    names = [f"p{i}" for i in range(len(shapes))]
    params = {name: gen.standard_normal(shape) for name, shape in zip(names, shapes)}
    ref = {name: p.copy() for name, p in params.items()}
    ref_velocity = {name: np.zeros_like(p) for name, p in ref.items()}
    opt = NesterovSGD(params, lr=0.1, momentum=mu)
    assert all(params[name].tobytes() == ref[name].tobytes() for name in names)
    for step in range(steps):
        if data.draw(st.booleans(), label="replace a parameter"):
            name = data.draw(st.sampled_from(names), label="replaced")
            kept = opt.views[name][0]
            params[name] = gen.standard_normal(ref[name].shape)
            ref[name] = params[name].copy()
        else:
            name = kept = None
        # a gradient is given, left out of the map, or given as None
        given_as = data.draw(st.lists(st.sampled_from(["array", "absent", "none"]),
                                      min_size=len(names), max_size=len(names)), label="grads")
        grads = {n: gen.standard_normal(ref[n].shape) if how == "array" else None
                 for n, how in zip(names, given_as) if how != "absent"}
        lr = cosine_lr(0.1, step, steps) if cosine else None
        opt.step(grads, lr=lr)
        reference_nesterov_step(ref, ref_velocity, grads, 0.1 if lr is None else lr, mu)
        if name is not None:  # the replacement was copied into the buffer
            assert params[name] is kept
        for n in names:
            assert params[n].shape == ref[n].shape
            assert params[n].tobytes() == ref[n].tobytes()
        # the buffer holds the velocities in registry order
        flat_velocity = np.concatenate([ref_velocity[n].ravel() for n in names])
        assert opt.velocity.tobytes() == flat_velocity.tobytes()


def test_parameters_are_views_of_one_buffer_updated_in_place():
    params = {"w": np.ones((2, 3)), "b": np.full((1, 3), 2.0)}
    opt = NesterovSGD(params, lr=0.5, momentum=0.0)
    taken = params["w"]
    assert np.shares_memory(taken, opt.flat) and np.shares_memory(params["b"], opt.flat)
    opt.step({"w": np.ones((2, 3))})
    # an array taken from the registry moves with the step
    assert params["w"] is taken and np.array_equal(taken, np.full((2, 3), 0.5))
    assert np.array_equal(params["b"], np.full((1, 3), 2.0))


def test_an_empty_registry_steps():
    opt = NesterovSGD({}, lr=0.1)
    opt.step({})
    assert opt.flat.shape == (0,)


def test_a_value_recorded_on_the_tape_does_not_move_when_the_optimizer_steps():
    model = build_model(ModelConfig(input_dim=3, hidden_dims=(4,), embed_dim=2, proj_dim=2), 0)
    opt = NesterovSGD(model.params, lr=0.5)
    builder = GraphBuilder(model)
    node = builder.param("enc0.w")
    recorded = builder.graph.value(node)
    before = recorded.copy()
    opt.step({"enc0.w": np.ones_like(model.params["enc0.w"])})
    assert not np.array_equal(model.params["enc0.w"], before)
    assert builder.graph.value(node) is recorded
    assert recorded.tobytes() == before.tobytes()
