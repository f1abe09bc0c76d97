import json

import numpy as np
import pytest

from measure_keys import state_key
from levysot.cli import fixture_doc
from levysot.exprs import ExpressionError, compile_expr
from levysot.serialize import (
    SchemaError,
    cost_from_expr,
    family_from_dict,
    instance_from_dict,
    load_json,
    marginal_from_dict,
    measure_to_dict,
    param_map_from_exprs,
    sequence_from_dict,
    to_jsonable,
    triplet_from_dict,
    triplet_to_dict,
)
from levysot.measures import DEFAULT_QUAD_NODES, DensityPiece
from levysot.montecarlo import Marginal
from levysot.transport import affine_family_structure
from one_row import atoms, measure, triplet


def test_expression_grammar_rejects_escapes():
    with pytest.raises(ExpressionError):
        compile_expr("__import__('os')", ("x",))
    with pytest.raises(ExpressionError):
        compile_expr("x.real", ("x",))
    with pytest.raises(ExpressionError):
        compile_expr("y + 1", ("x",))
    with pytest.raises(ExpressionError):
        compile_expr("lambda: 0", ("x",))
    # a variable must not shadow a function or another variable
    for name in ("exp", "abs", "pow"):
        with pytest.raises(ExpressionError, match=repr(name)):
            compile_expr(f"exp({name})", (name,))
    with pytest.raises(ExpressionError, match="repeat"):
        compile_expr("x", ("x", "x"))
    fn = compile_expr("exp(-x * x) + pow(x, 2)", ("x",))
    assert np.isclose(fn(x=0.0), 1.0)


def test_expression_reads_the_names_outside_call_targets():
    e = compile_expr("exp(-y * y) + 0 * x + pow(lam, 2) ** 2", ("x", "y", "lam", "n"))
    assert e.reads == {"x", "y", "lam"}
    assert compile_expr("exp(1)", ("x",)).reads == set()


def test_a_call_with_a_fractional_power_of_a_negative_scalar_names_the_source():
    # Python's float power is complex here; abs would hide it as a real 1.0
    for source in ("pow(x, 0.5)", "abs(x ** 0.5)"):
        with pytest.raises(ExpressionError, match="power of a negative number is not real"):
            compile_expr(source, ("x",))(x=-1.0)
    assert compile_expr("pow(x, 3) + x ** 0.5", ("x",))(x=4.0) == 66.0


def test_family_records_the_parameters_each_component_reads():
    doc = fixture_doc("pure_jump_family.json")
    doc["params"] = ["lam", "y", "s"]
    doc["box"] = doc["box"] + [[0.0, 1.0]]
    doc["F"]["pieces"] = [{"lo": 0.5, "hi": 1.0, "density": "s * exp(-x)"}]
    assert family_from_dict(doc).reads == {"b": (), "c": (), "F": (0, 1, 2)}
    doc["b"] = ["0 * s"]
    doc["F"]["pieces"][0]["density"] = "exp(-x)"
    assert family_from_dict(doc).reads == {"b": (2,), "c": (), "F": (0, 1)}


def test_triplet_round_trip():
    doc = {
        "b": [0.25],
        "c": [[1.5]],
        "F": {
            "atoms": [{"x": [0.5], "w": 2.0}],
            "pieces": [{"lo": 1.0, "hi": 2.0, "density": "1 / (x * x)", "nodes": 32}],
        },
    }
    t = triplet_from_dict(doc)
    assert t.b[0, 0] == 0.25 and t.c[0, 0, 0] == 1.5
    assert np.isclose(t.F.integrate(lambda x: np.ones(x.shape[:2]))[0], 2.0 + 0.5, rtol=1e-10)
    back = triplet_to_dict(t)
    assert back["F"]["pieces"][0]["density"] == "1 / (x * x)"
    assert state_key(triplet_from_dict(back).F) == state_key(t.F)


def _oracle_triplet(doc):
    """The plain-triplet parser that the template compiler replaced: numbers
    read by float(), each density compiled over x alone."""

    def density(source):
        fn = compile_expr(source, ("x",))

        def f(x):
            return np.asarray(fn(x=np.asarray(x, float)), float)

        f.source = source
        return f

    b = np.atleast_1d(np.asarray(doc["b"], float))
    c = np.atleast_2d(np.asarray(doc["c"], float))
    F = doc.get("F", {})
    pieces = tuple(DensityPiece(float(p["lo"]), float(p["hi"]), density(str(p["density"])),
                                int(p.get("nodes", DEFAULT_QUAD_NODES)))
                   for p in F.get("pieces", ()))
    atoms = ((np.asarray(a["x"], float), float(a["w"])) for a in F.get("atoms", ()))
    return triplet(b, c, measure(*atoms, pieces=pieces, dimension=b.size))


def _simulate_triplet(w_near, w_far, density):
    # the shape of the simulate benchmark's triplets
    return {"b": [0.3], "c": [[0.5]],
            "F": {"atoms": [{"x": [0.4], "w": w_near}, {"x": [-1.5], "w": w_far}],
                  "pieces": [{"lo": 0.0001, "hi": 0.6, "density": density}]}}


@pytest.mark.parametrize("doc", [
    _simulate_triplet(2.0236432494005134, 0.9603709570607484, "1.432478838158901"),
    _simulate_triplet(1.623662904020971, 0.5386611591780606, "3.4831077814613254"),
    _simulate_triplet(1.8183982727383226, 0.6396749501384476, "1.082677339729205"),
    {"b": [0], "c": [[1]]},
    {"b": [0], "c": [[0]], "F": {"atoms": [{"x": [-1.5], "w": 0.6}]}},
    {"b": [-0.0], "c": [[0.25]],
     "F": {"atoms": [{"x": [0.7], "w": 1.5}, {"x": [-2.0], "w": 0.3}],
           "pieces": [{"lo": 0.1, "hi": 1.0, "density": "exp(-x) / x", "nodes": 16}]}},
])
def test_plain_triplet_compiles_bit_for_bit_as_the_float_parser(doc):
    t, ref = triplet_from_dict(doc), _oracle_triplet(doc)
    assert t.b.tobytes() == ref.b.tobytes() and t.c.tobytes() == ref.c.tobytes()
    for got, want in zip(t.F.jump_profile(0), ref.F.jump_profile(0)):
        assert got.tobytes() == want.tobytes()
    assert repr(triplet_to_dict(t)) == repr(triplet_to_dict(ref))


def test_a_family_member_piece_does_not_serialize():
    # a plain triplet's piece keeps its source (test_triplet_round_trip); a
    # member's density is bound to its parameters and has none
    piece = {"lo": 0.5, "hi": 1.0, "density": "s * exp(-x)"}
    fam = family_from_dict({"box": [[1, 2]], "params": ["s"], "b": ["0"], "c": [["0"]],
                            "F": {"pieces": [piece]}})
    with pytest.raises(SchemaError, match="cannot serialize"):
        measure_to_dict(fam.at([1.5]).F)


def test_measure_to_dict_requires_expression_density():
    F = measure(pieces=(DensityPiece(1.0, 2.0, lambda x: np.ones_like(x)),))
    with pytest.raises(SchemaError):
        measure_to_dict(F)


def test_family_from_dict_drops_zero_weight_atoms():
    fam = family_from_dict(fixture_doc("pure_jump_family.json"))
    assert atoms(fam.at(np.array([0.0, 0.5])).F) == []
    t = fam.at(np.array([3.0, 0.5]))
    assert np.isclose(atoms(t.F)[0][1], 3.0)


def test_family_schema_errors():
    with pytest.raises(SchemaError):
        family_from_dict({"box": [[0, 1]], "params": ["a", "b"], "b": ["0"], "c": [["0"]]})
    with pytest.raises(SchemaError):
        family_from_dict({"box": [[0, 1]]})
    with pytest.raises(SchemaError, match="family must be an object"):
        family_from_dict([[0, 1]])
    # a key the family does not read is named, with the keys it does
    doc = {**fixture_doc("pure_jump_family.json"), "blocks": {}, "note": "x"}
    with pytest.raises(SchemaError, match=r"unknown key 'blocks', 'note'; valid keys: box, params, b, c, F"):
        family_from_dict(doc)


def test_sequence_from_dict():
    seq = sequence_from_dict(fixture_doc("shrinking_jump_sequence.json")["sequence"])
    ((loc, w),) = atoms(seq.stack.row(seq.n_schedule.index(100)).F)
    assert np.isclose(loc[0], 0.1)
    assert np.isclose(w, 100.0)
    pm = param_map_from_exprs(fixture_doc("shrinking_jump_sequence.json")["param_map"])
    assert np.allclose(pm(100), [100.0, 0.1])


def test_marginal_round_trip():
    # a point-mass document reads as the one-atom grid law
    for doc, kind in (
        ({"kind": "point-mass", "location": 1.5}, "grid-density"),
        ({"kind": "gaussian", "mean": 0.0, "variance": 2.0}, "gaussian"),
        ({"kind": "grid-density", "points": [0.0, 1.0], "weights": [0.5, 0.5]}, "grid-density"),
    ):
        assert marginal_from_dict(doc).kind == kind
    point = marginal_from_dict({"kind": "point-mass", "location": 1.5})
    assert (point.points.tolist(), point.weights.tolist()) == ([1.5], [1.0])
    with pytest.raises(SchemaError):
        marginal_from_dict({"kind": "cauchy"})
    with pytest.raises(SchemaError):
        marginal_from_dict({"kind": "gaussian", "mean": 0.0})


def test_cost_expr_broadcasting():
    cost = cost_from_expr("c * c + t", ("c",))
    x = np.zeros(3)
    assert np.allclose(cost(0.5, x, np.array([2.0])), 4.5)
    P = np.array([[1.0], [2.0], [3.0]])
    assert np.allclose(cost(0.0, x, P), [1.0, 4.0, 9.0])
    for name in ("t", "x"):
        with pytest.raises(SchemaError, match=f"family parameter {name!r}"):
            cost_from_expr("1", (name,))


def test_cost_positional_call_is_the_keyword_call():
    # one compiled function of positional arrays behind both calls, with the
    # keyword call's values and errors
    x = np.linspace(-2.0, 2.0, 9)
    P = np.column_stack([np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 3.0, 9)])
    cost = cost_from_expr("abs(p0 - 0.3) + p1 ** 2 * exp(t) + x", ("p0", "p1"))
    expected = cost.expr(t=0.25, x=x, p0=P[:, 0], p1=P[:, 1])
    assert cost(0.25, x, P).tobytes() == expected.tobytes()
    assert cost.expr.positional(0.25, x, P[:, 0], P[:, 1]).tobytes() == expected.tobytes()
    row = cost(0.25, x[:1], P[3])
    assert row.tobytes() == np.array([cost.expr(t=0.25, x=x[0], p0=P[3, 0], p1=P[3, 1])]).tobytes()
    for source, p in (("1 / p0", 0.0), ("exp(1000 * p0)", 1.0)):
        with pytest.raises(ExpressionError, match="expression"), np.errstate(over="ignore"):
            cost_from_expr(source, ("p0",))(0.0, np.zeros(1), np.array([p]))
    # a parameter name need not be an identifier where the source does not read it
    odd = cost_from_expr("p0 + 1", ("p0", "not a name"))
    assert odd(0.0, np.zeros(2), np.array([2.0, 5.0])).tolist() == [3.0, 3.0]


def test_instance_from_dict_and_validate():
    inst = instance_from_dict(fixture_doc("gaussian_instance.json"))
    affine_family_structure(inst.fam)
    assert inst.mu1.kind == "gaussian"


def test_load_json_reports_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"a": [1, 2,]}')
    with pytest.raises(SchemaError, match=r"line 1 column"):
        load_json(p)


def test_to_jsonable():
    out = to_jsonable(
        {"a": np.arange(3), "b": np.float64(1.5), "m": Marginal.point(0.0)}
    )
    json.dumps(out)
    assert out["a"] == [0, 1, 2]
    m = out["m"]
    assert (m["kind"], m["points"], m["weights"]) == ("grid-density", [0.0], [1.0])


def test_a_grid_law_claims_no_mean_or_variance():
    # only a Gaussian carries the two numbers
    for law in (Marginal.point(0.0), Marginal.discrete([0.0, 2.0], [0.5, 0.5])):
        m = to_jsonable(law)
        assert (m["mean"], m["variance"]) == (None, None)
    m = to_jsonable(Marginal.gaussian(0.5, 2.0))
    assert (m["mean"], m["variance"]) == (0.5, 2.0)
    with pytest.raises(ValueError, match="variance"):
        Marginal.gaussian(0.0, float("inf"))


def test_to_jsonable_writes_numpy_scalars_and_rejects_other_objects():
    # numpy real scalars, np.bool_ included, are written as their values; an
    # object with no JSON form is an error naming its type, not its repr
    out = to_jsonable({"flag": np.bool_(True), "n": np.int32(3), "x": np.float32(0.5)})
    assert out == {"flag": True, "n": 3, "x": 0.5}
    assert type(out["flag"]) is bool
    with pytest.raises(TypeError, match="object of type object has no JSON form"):
        to_jsonable({"a": [object()]})
