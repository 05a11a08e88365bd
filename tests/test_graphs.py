import json

import numpy as np
import pytest

from cshlab import (
    GraphError,
    as_vertex_function,
    average,
    build_graph,
    dirac_source,
    grad_form,
    grad_norm_sq,
    graph_from_dict,
    graph_to_dict,
    integrate,
    laplacian,
    load_graph,
    random_connected_graph,
    save_graph,
    solve_poisson,
    spectral_gap,
    sup_norm,
)


def test_build_caches_derived_quantities(k2, p3):
    assert k2.ell == 2
    assert k2.volume == 2.0
    assert k2.mu_min == 1.0
    assert k2.w_min == 1.0
    assert p3.ell == 3
    assert p3.volume == 3.0


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([("a", 1.0), ("b", 1.0)], [], "not connected"),
        ([("a", 1.0), ("b", -1.0)], [("a", "b", 1.0)], "positive"),
        ([("a", 1.0), ("b", 1.0)], [("a", "b", 0.0)], "nonpositive weight"),
        ([("a", 1.0), ("b", 1.0)], [("a", "a", 1.0)], "self-loop"),
        ([("a", 1.0), ("b", 1.0)], [("a", "b", 1.0), ("b", "a", 2.0)], "inconsistent"),
        ([("a", 1.0), ("b", 1.0)], [("a", "b", 1.0), ("b", "a", 1.0)], "twice"),
        ([("a", 1.0)], [], "at least 2"),
    ],
)
def test_build_rejects_bad_data(vertices, edges, message):
    with pytest.raises(GraphError, match=message):
        build_graph(vertices, edges)


def test_laplacian_k2(k2):
    assert np.allclose(laplacian(k2, [0.0, 1.0]), [1.0, -1.0])


def test_laplacian_constant_is_zero(p3, rng):
    g = random_connected_graph(rng)
    assert np.allclose(laplacian(g, np.full(g.ell, 3.7)), 0.0)
    assert np.allclose(laplacian(p3, np.zeros(3)), 0.0)


def test_laplacian_c4_alternating(c4):
    # hand evaluation of the defining sum at each vertex
    assert np.allclose(laplacian(c4, [1.0, 0.0, -1.0, 0.0]), [-2.0, 0.0, 2.0, 0.0])


def test_laplacian_dimension_mismatch(k2):
    with pytest.raises(ValueError, match="length"):
        laplacian(k2, [1.0, 2.0, 3.0])


def test_vertex_function_dtype(k2):
    # real input of any kind becomes float64 as before; complex input stays
    # complex, which is what lets the check suites take the complex step
    for values in (np.array([1.0, 2.0]), [1, 2], True, "1.5", np.float64(2.0)):
        assert as_vertex_function(k2, values).dtype == np.float64
    assert as_vertex_function(k2, True).tolist() == [1.0, 1.0]
    assert as_vertex_function(k2, "1.5").tolist() == [1.5, 1.5]
    z = np.array([1.0 + 2.0j, 3.0])
    assert as_vertex_function(k2, z).dtype == np.complex128
    assert as_vertex_function(k2, 1j).tolist() == [1j, 1j]
    # None becomes NaN, refused like any other non-finite entry
    with pytest.raises(ValueError, match="non-finite entries"):
        as_vertex_function(k2, [None, 1.0])
    with pytest.raises(ValueError, match="non-finite entries"):
        as_vertex_function(k2, [1j * np.inf, 0.0])
    with pytest.raises(ValueError, match="non-finite entries"):
        as_vertex_function(k2, "inf")
    with pytest.raises(ValueError, match="could not convert string"):
        as_vertex_function(k2, "one")
    with pytest.raises(ValueError, match="length 3, graph has 2"):
        as_vertex_function(k2, [1, 2, 3])


def test_grad_form_k2(k2):
    assert np.allclose(grad_norm_sq(k2, [0.0, 1.0]), [0.5, 0.5])


def test_grad_form_symmetric(rng):
    g = random_connected_graph(rng)
    u = rng.uniform(-3, 3, g.ell)
    v = rng.uniform(-3, 3, g.ell)
    assert np.allclose(grad_form(g, u, v), grad_form(g, v, u))
    assert np.all(grad_norm_sq(g, u) >= 0.0)


def test_integrals(k2, p3_weighted):
    h = np.array([1.0, 3.0])
    assert integrate(k2, h) == pytest.approx(4.0)
    assert type(integrate(k2, h)) is float
    assert average(k2, h) == pytest.approx(2.0)
    assert sup_norm(h) == pytest.approx(3.0)
    assert integrate(k2, np.zeros(2)) == 0.0
    ones = np.ones(3)
    assert integrate(p3_weighted, ones) == pytest.approx(4.0)
    assert average(p3_weighted, ones) == pytest.approx(1.0)


@pytest.mark.parametrize("shape", [(50, 1), (50, 2), (50, 5), (40, 7), (3, 4, 5), (0, 3)])
def test_sup_norm_folds_columns_like_max(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    h = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pick = rng.random(shape) < 0.15
    h[pick] = rng.choice(specials, size=int(pick.sum()))
    out = sup_norm(h)
    expected = np.abs(h).max(axis=-1)
    assert isinstance(out, np.ndarray) and out.dtype == expected.dtype
    assert out.shape == expected.shape and out.tobytes() == expected.tobytes()


def test_sup_norm_single_function_and_empty_axis():
    one = sup_norm(np.array([-0.0, -3.5, 2.0]))
    assert type(one) is float and one == 3.5
    assert type(sup_norm([1.0, np.nan])) is float and np.isnan(sup_norm([1.0, np.nan]))
    assert sup_norm(np.array([-0.0])) == 0.0 and np.copysign(1.0, sup_norm(np.array([-0.0]))) == 1.0
    for empty in (np.empty(0), np.empty((3, 0))):
        with pytest.raises(ValueError):
            sup_norm(empty)


def test_spectral_gap_k2(k2):
    spec = spectral_gap(k2)
    assert spec.lambda1 == pytest.approx(2.0, abs=1e-12)
    assert spec.elliptic_constant == pytest.approx(1.0, abs=1e-12)


def test_spectral_gap_scales_with_weights():
    g = build_graph([("a", 1.0), ("b", 1.0)], [("a", "b", 4.0)])
    assert spectral_gap(g).lambda1 == pytest.approx(8.0, abs=1e-10)


def test_spectral_gap_positive_on_random_graphs(rng):
    for _ in range(20):
        g = random_connected_graph(rng)
        assert spectral_gap(g).lambda1 > 0.0


def test_poisson_k2(k2):
    phi = solve_poisson(k2, np.array([1.0, -1.0]))
    assert np.allclose(phi, [-0.5, 0.5])
    assert np.allclose(solve_poisson(k2, np.zeros(2)), 0.0)


def test_poisson_rejects_nonzero_mean(k2):
    with pytest.raises(ValueError, match="mean"):
        solve_poisson(k2, np.array([1.0, 0.0]))


def test_poisson_residual_and_mean_on_random_graphs(rng):
    for _ in range(25):
        g = random_connected_graph(rng)
        h = rng.uniform(-4, 4, g.ell)
        h -= average(g, h)
        phi = solve_poisson(g, h)
        assert sup_norm(laplacian(g, phi) - h) <= 1e-10 * (1.0 + sup_norm(h))
        assert abs(average(g, phi)) <= 1e-12 * (1.0 + sup_norm(phi))


def test_poisson_sup_bound(rng):
    # ||phi||_inf <= elliptic_constant * ||h||_inf
    for _ in range(25):
        g = random_connected_graph(rng)
        h = rng.uniform(-4, 4, g.ell)
        h -= average(g, h)
        phi = solve_poisson(g, h)
        c = spectral_gap(g).elliptic_constant
        assert sup_norm(phi) <= c * sup_norm(h) * (1.0 + 1e-9) + 1e-12


def test_dirac_source(k2, p3_weighted):
    f = dirac_source(k2, ["x1"], 4.0 * np.pi)
    assert np.allclose(f, [4.0 * np.pi, 0.0])
    assert integrate(k2, f) == pytest.approx(4.0 * np.pi)
    assert np.allclose(dirac_source(k2, [], 1.0), 0.0)
    f = dirac_source(p3_weighted, ["x2"], 4.0 * np.pi)
    assert np.allclose(f, [0.0, 2.0 * np.pi, 0.0])
    assert integrate(p3_weighted, f) == pytest.approx(4.0 * np.pi)
    with pytest.raises(GraphError, match="unknown vertex"):
        dirac_source(k2, ["nope"], 1.0)


def test_wire_format_round_trip(tmp_path, p3_weighted):
    path = tmp_path / "g.json"
    save_graph(p3_weighted, path)
    g2 = load_graph(path)
    assert g2.vertices == p3_weighted.vertices
    assert np.allclose(g2.mu, p3_weighted.mu)
    assert np.allclose(g2.weights, p3_weighted.weights)


def test_wire_format_rejects_duplicate_edges(tmp_path):
    doc = {
        "vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 1.0}],
        "edges": [{"a": "a", "b": "b", "w": 1.0}, {"a": "b", "b": "a", "w": 2.0}],
    }
    with pytest.raises(GraphError, match="inconsistent"):
        graph_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphError):
        load_graph(path)


@pytest.mark.parametrize("field, value, message", [
    ("mu", None, "vertex 'a' mu must be a number, got None"),
    ("mu", True, "vertex 'a' mu must be a number, got True"),
    ("mu", "1", "vertex 'a' mu must be a number, got '1'"),
    ("w", None, "edge ('a', 'b') w must be a number, got None"),
    ("w", False, "edge ('a', 'b') w must be a number, got False"),
    ("w", "2", "edge ('a', 'b') w must be a number, got '2'"),
    ("w", [1], "edge ('a', 'b') w must be a number, got [1]"),
])
def test_wire_format_numbers_must_be_json_numbers(field, value, message):
    # null, bools, strings and lists are refused, not read as 1.0 or 2.0
    doc = {
        "vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 2}],
        "edges": [{"a": "a", "b": "b", "w": 1}],
    }
    assert graph_from_dict(doc).mu.tolist() == [1.0, 2.0]
    target = doc["vertices"][0] if field == "mu" else doc["edges"][0]
    target[field] = value
    with pytest.raises(GraphError) as info:
        graph_from_dict(doc)
    assert str(info.value) == message


def test_graph_to_dict_lists_each_edge_once(c4):
    doc = graph_to_dict(c4)
    assert len(doc["edges"]) == 4
    assert graph_from_dict(doc).vertices == c4.vertices
