"""JSON (de)serialization for triplets, families, marginals and instances.

Triplet documents:

    {"b": [..], "c": [[..]],
     "F": {"atoms": [{"x": [..], "w": ..}],
           "pieces": [{"lo": .., "hi": .., "density": "<expr in x>", "nodes": ..}]}}

Family and sequence documents parametrize the same shape with expression
strings over named variables (the family's parameters, or the index n).  One
template compiler turns every triplet document into a map from a (P, n_vars)
array of variable values to a TripletStack; a plain triplet is a template
with no variables, read at its one row.  In a family or sequence, atoms whose
weight evaluates to 0 or less are dropped, so rate parameters may reach the
lower edge of their box; in a plain triplet such a weight is an error.

Instance documents:

    {"mu0": {..}, "mu1": {..}, "family": {..}, "cost": "<expr in t, x, params>",
     "solver": {optional overrides}}
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, Tuple

import numpy as np

from .exprs import Expression, compile_expr, evaluate_rows
from .measures import DEFAULT_QUAD_NODES, DensityPiece, MeasureStack
from .montecarlo import Marginal
from .transport import CostFunction, TransportInstance
from .triplets import ThetaFamily, TripletStack


class SchemaError(ValueError):
    """A JSON document does not match the expected layout."""


def _require(doc: Mapping[str, Any], key: str, context: str):
    if key not in doc:
        raise SchemaError(f"{context}: missing key {key!r}")
    return doc[key]


def checked_object(doc: Any, keys: Sequence[str], context: str) -> Mapping[str, Any]:
    """doc, which must be an object whose keys are among ``keys``."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{context} must be an object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise SchemaError(f"{context}: unknown key {', '.join(map(repr, unknown))}; "
                          f"valid keys: {', '.join(keys)}")
    return doc


# ---------------------------------------------------------------------------
# triplets


def measure_to_dict(F: MeasureStack) -> dict:
    """The document of a one-row stack's measure."""
    (x,), (w,) = F.atom_x, F.atom_w
    used = w > 0
    pieces = []
    for p in F.pieces[0] if F.pieces else ():
        source = getattr(p.density, "source", None)
        if source is None:
            raise SchemaError(
                "density piece is not expression-backed; cannot serialize"
            )
        pieces.append({"lo": p.lo, "hi": p.hi, "density": source, "nodes": p.nodes})
    return {
        "atoms": [{"x": list(map(float, loc)), "w": wt} for loc, wt in zip(x[used], w[used].tolist())],
        "pieces": pieces,
    }


def triplet_to_dict(t: TripletStack) -> dict:
    """The document of a one-row stack."""
    (b,), (c,) = t.b, t.c
    return {
        "b": list(map(float, b)),
        "c": [list(map(float, row)) for row in c],
        "F": measure_to_dict(t.F),
    }


# ---------------------------------------------------------------------------
# triplet templates: families and sequences


def _wrap_density(fn, names: Sequence[str], values: np.ndarray):
    params = dict(zip(names, values))

    def density(x):
        return np.asarray(fn(x=np.asarray(x, float), **params), float)

    if not names:
        density.source = fn.source  # a plain triplet's piece round-trips
    return density


@dataclass(frozen=True)
class TripletTemplate:
    """A triplet document whose entries are expressions in named variables.

    ``stack`` evaluates it at every row of a (P, n_vars) array.  The
    coefficients are evaluated column-wise with the arithmetic of a scalar
    evaluation (``evaluate_rows``); each row's density pieces are bound to
    that row's values and integrated by quadrature like any DensityPiece.
    """

    variables: Tuple[str, ...]
    b: Tuple[Expression, ...]
    c: Tuple[Tuple[Expression, ...], ...]
    atoms: Tuple[Tuple[Tuple[Expression, ...], Expression], ...]
    pieces: Tuple[Tuple[float, float, Expression, int], ...]

    @property
    def reads(self) -> Mapping[str, frozenset]:
        """The variables that b, c and F read; F's density pieces count
        without their jump variable x."""
        atoms = [e for locs, w in self.atoms for e in locs + (w,)]
        return {
            "b": frozenset().union(*(e.reads for e in self.b)),
            "c": frozenset().union(*(e.reads for row in self.c for e in row)),
            "F": frozenset().union(*(e.reads for e in atoms),
                                   *(fn.reads - {"x"} for _, _, fn, _ in self.pieces)),
        }

    @functools.cached_property
    def _coefficients(self) -> Tuple[Expression, ...]:
        """b, then c row by row, then the atom weights."""
        return self.b + sum(self.c, ()) + tuple(w for _, w in self.atoms)

    def stack(self, values) -> TripletStack:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.variables):
            raise ValueError(
                f"expected (P, {len(self.variables)}) variable values, got {values.shape}"
            )
        P, d, K = values.shape[0], len(self.b), len(self.atoms)
        cols = {name: values[:, i] for i, name in enumerate(self.variables)}
        vals = evaluate_rows(self._coefficients, cols, P)
        b = vals[:d].T.copy()
        c = vals[d : d + d * d].T.reshape(P, d, d)
        w = vals[d + d * d :].T.copy()
        keep = w > 0
        # an atom's location only on the rows that keep it, as a scalar
        # evaluation never forms the location of a dropped atom
        x = np.ones((P, K, d))
        for k, (locs, _) in enumerate(self.atoms):
            rows = keep[:, k]
            n_kept = np.count_nonzero(rows)
            if n_kept:
                kept = {name: col[rows] for name, col in cols.items()}
                x[rows, k] = evaluate_rows(locs, kept, n_kept).T
        if not keep.all():
            w[~keep] = 0.0
            # each row's kept atoms first, in document order, and no column
            # that no row uses
            order = np.argsort(~keep, axis=1, kind="stable")[:, : keep.sum(axis=1).max()]
            w, x = w[np.arange(P)[:, None], order], x[np.arange(P)[:, None], order]
        pieces = ()
        if self.pieces:
            pieces = tuple(
                tuple(
                    DensityPiece(lo, hi, _wrap_density(fn, self.variables, row), nodes)
                    for lo, hi, fn, nodes in self.pieces
                )
                for row in values
            )
        return TripletStack(b, c, MeasureStack(d, x, w, pieces))


def compile_template(
    doc: Mapping[str, Any], variables: Sequence[str], context: str
) -> TripletTemplate:
    """Compile a triplet, family or sequence document over the named variables."""
    names = tuple(variables)

    def expr(e) -> Expression:
        return compile_expr(str(e), names)

    b = tuple(expr(e) for e in _require(doc, "b", context))
    d = len(b)
    c = tuple(tuple(expr(e) for e in row) for row in _require(doc, "c", context))
    if len(c) != d or any(len(row) != d for row in c):
        raise SchemaError(f"{context}: c must be a {d} x {d} matrix")
    F_doc = checked_object(doc.get("F", {}), ("atoms", "pieces"), f"{context}.F")
    atoms = []
    at = f"{context}.F atom"
    for a in F_doc.get("atoms", ()):
        a = checked_object(a, ("x", "w"), at)
        locs = tuple(expr(e) for e in np.atleast_1d(_require(a, "x", at)))
        if len(locs) != d:
            raise SchemaError(f"{context}: atom location must have {d} entries")
        atoms.append((locs, expr(_require(a, "w", at))))
    pieces = []
    at = f"{context}.F piece"
    for p in F_doc.get("pieces", ()):
        p = checked_object(p, ("lo", "hi", "density", "nodes"), at)
        pieces.append((
            float(_require(p, "lo", at)),
            float(_require(p, "hi", at)),
            compile_expr(str(_require(p, "density", at)), ("x",) + names),
            int(p.get("nodes", DEFAULT_QUAD_NODES)),
        ))
    if pieces and d != 1:
        raise SchemaError(f"{context}: density pieces are supported only in dimension 1")
    return TripletTemplate(names, b, c, tuple(atoms), tuple(pieces))


def triplet_from_dict(doc: Mapping[str, Any]) -> TripletStack:
    """A plain triplet document as a one-row stack: a template with no
    variables, at its one row.  b and c may be given as scalars.  An atom weight must be positive,
    where a family's template drops the atom instead."""
    doc = {
        **doc,
        "b": np.atleast_1d(np.asarray(_require(doc, "b", "triplet"), dtype=object)).tolist(),
        "c": np.atleast_2d(np.asarray(_require(doc, "c", "triplet"), dtype=object)).tolist(),
    }
    template = compile_template(doc, (), "triplet")
    if not (evaluate_rows([w for _, w in template.atoms], {}, 1) > 0).all():
        raise SchemaError("atom weights must be positive")
    return template.stack(np.empty((1, 0)))


FAMILY_KEYS = ("box", "params", "b", "c", "F")


def family_from_dict(doc: Mapping[str, Any]) -> ThetaFamily:
    checked_object(doc, FAMILY_KEYS, "family")
    box = tuple(
        (float(lo), float(hi)) for lo, hi in _require(doc, "box", "family")
    )
    names = tuple(doc.get("params", [f"p{i}" for i in range(len(box))]))
    if len(names) != len(box):
        raise SchemaError("family: params must match the box length")
    template = compile_template(doc, names, "family")
    return ThetaFamily(
        parameter_box=box,
        stack_map=template.stack,
        reads={k: tuple(i for i, name in enumerate(names) if name in v)
               for k, v in template.reads.items()},
        param_names=names,
    )


def sequence_from_dict(doc: Mapping[str, Any]):
    """Build a TripletSequence from expressions in the index variable n,
    evaluated once over the whole schedule.

    n is evaluated as a float, so an integer-valued intermediate such as
    ``n * n * n * n * n`` is rounded at each step: past 2**53 it can differ
    in the last bit from exact integer arithmetic rounded once.
    """
    from .limits import DEFAULT_N_SCHEDULE, TripletSequence, n_schedule_ints

    template = compile_template(doc, ("n",), "sequence")
    schedule = n_schedule_ints(doc.get("n_schedule", DEFAULT_N_SCHEDULE))
    return TripletSequence(schedule, template.stack(np.array(schedule, dtype=float)[:, None]))


def param_map_from_exprs(exprs: Sequence[str]) -> Callable[[int], np.ndarray]:
    fns = [compile_expr(str(e), ("n",)) for e in exprs]
    return lambda n: np.array([float(fn(n=n)) for fn in fns])


# ---------------------------------------------------------------------------
# marginals, costs, instances


def marginal_from_dict(doc: Mapping[str, Any]) -> Marginal:
    kind = _require(doc, "kind", "marginal")
    if kind == "point-mass":
        return Marginal.point(_require(doc, "location", "marginal"))
    if kind == "gaussian":
        return Marginal.gaussian(
            float(_require(doc, "mean", "marginal")),
            float(_require(doc, "variance", "marginal")),
        )
    if kind == "grid-density":
        return Marginal.discrete(
            _require(doc, "points", "marginal"), _require(doc, "weights", "marginal")
        )
    raise SchemaError(f"marginal: unknown kind {kind!r}")


def cost_from_expr(source: str, param_names: Sequence[str]) -> CostFunction:
    """The running cost ``source``, an expression in t, x and the family's
    parameter names; a parameter may not be named t or x."""
    for name in ("t", "x"):
        if name in param_names:
            raise SchemaError(f"cost: family parameter {name!r} has the name of a cost variable")
    return CostFunction(source, tuple(param_names))


def instance_from_dict(doc: Mapping[str, Any]) -> TransportInstance:
    fam_doc = _require(doc, "family", "instance")
    fam = family_from_dict(fam_doc)
    cost = cost_from_expr(str(_require(doc, "cost", "instance")), fam.param_names)
    return TransportInstance(
        mu0=marginal_from_dict(_require(doc, "mu0", "instance")),
        mu1=marginal_from_dict(_require(doc, "mu1", "instance")),
        fam=fam,
        cost=cost,
    )


# ---------------------------------------------------------------------------
# file helpers


def load_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from exc


def to_jsonable(obj: Any) -> Any:
    """Recursively convert numpy containers and scalars, dicts, lists,
    tuples and dataclasses into JSON-friendly values; any other object is a
    TypeError, since its string form (often a repr with a memory address)
    would not read the same on a rerun."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if hasattr(obj, "__dataclass_fields__"):
        return {
            k: to_jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__
        }
    raise TypeError(f"object of type {type(obj).__name__} has no JSON form")
