"""Wire-format experiment cells: the unit of work of a journaled sweep.

``repro run`` reads cells from JSON (``--file``) or expands them from
``--grid``/``--param`` flags, and :mod:`repro.sweeps` saves them to a
run directory's ``sweep.json``, so a cell must be constructible from
plain JSON — and, just as important, two spellings that *mean* the
same cell must normalize to the same parameter dict, because the cell
cache and the sweep journal key work by the cell's content-addressed
manifest key (:meth:`repro.obs.cellcache.CellCache.key_for`).
Without normalization, ``{"tau": 740}`` and ``{"tau": 740.0,
"preemptions": 1000}`` would be two different keys for one simulation.

Normalization rules (:func:`normalize_params`):

* the experiment name canonicalizes to ``module:qualname`` — the same
  identity the parallel runner stores cells under, so a cell named
  by verb (``"resolution"``) keys identically to a cell a ``--jobs``
  sweep already cached;
* **defaults are filled in** from the experiment function's signature:
  a defaulted-and-omitted parameter keys identically to the same value
  passed explicitly;
* an int provided where the signature says float — a float default,
  or a ``float`` annotation for required parameters like ``tau`` — is
  coerced (``740`` → ``740.0``), because JSON writers routinely drop
  the ``.0``; bools are never coerced (``True`` is not ``1.0``);
* unknown parameter names are rejected up front (a typo must fail the
  sweep, not silently simulate the default and cache it under a key
  containing the typo);
* **structured parameters canonicalize through the experiment's own
  rules**: an experiment function may carry a ``__wire_canonical__``
  attribute mapping parameter name → canonicalizer.  The canonicalizer
  runs on the supplied value *and* on the filled default, so every
  spelling of the same structured value — ``"leash"`` vs
  ``{"policy": "leash"}`` vs the fully-defaulted kwargs dict, or
  ``None`` vs ``"none"`` vs ``"baseline"`` — keys identically, and a
  malformed spec fails the sweep instead of minting a junk key.

Parameter *values* travel in the manifest's sanitized encoding
(:func:`repro.obs.manifest._sanitize` — enums as ``{"__enum__": ...}``,
bytes as hex), so anything a manifest can replay, the wire can carry.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.obs.manifest import _restore, _sanitize, resolve_experiment

__all__ = [
    "WireCell",
    "WireError",
    "canonical_experiment",
    "normalize_params",
    "cell_from_wire",
    "cell_to_wire",
    "grid_cells",
]


class WireError(ValueError):
    """A cell names an unknown experiment or malformed parameters."""


@dataclass(frozen=True)
class WireCell:
    """One normalized, executable experiment cell.

    ``experiment`` is canonical (``module:qualname``); ``params`` are
    restored Python values with every signature default filled in, so
    ``CellCache.key_for(experiment, params)`` is *the* dedupe identity:
    equal cells — however they were spelled on the wire — have equal
    keys.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)


def canonical_experiment(name: str) -> Tuple[str, Callable[..., Any]]:
    """Resolve a registry verb or ``repro.module:qualname`` path to the
    canonical cell identity and its callable."""
    try:
        fn = resolve_experiment(name)
    except (KeyError, ValueError, TypeError, ImportError,
            AttributeError) as exc:
        raise WireError(str(exc)) from exc
    return f"{fn.__module__}:{fn.__qualname__}", fn


def _wants_float(parameter: inspect.Parameter) -> bool:
    """Whether the signature declares this parameter a float — via its
    default value, or via a ``float`` annotation when there is no
    default (``tau``, the usual required parameter).  Annotations may
    be strings under ``from __future__ import annotations``."""
    default = parameter.default
    if isinstance(default, float) and not isinstance(default, bool):
        return True
    annotation = parameter.annotation
    return annotation is float or annotation == "float"


@functools.lru_cache(maxsize=None)
def _signature(fn: Callable[..., Any]) -> Tuple[
        Dict[str, Tuple[Any, bool]], bool]:
    """``fn``'s keyword parameters as ``{name: (default, wants float)}``
    and whether it takes ``**kwargs``, read once per function:
    ``inspect.signature`` costs more than the rest of a normalization."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError) as exc:  # builtins without signatures
        raise WireError(f"cannot introspect {fn!r}: {exc}") from exc
    accepted = {}
    var_kwargs = False
    for pname, parameter in sig.parameters.items():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            var_kwargs = True
        elif parameter.kind is not inspect.Parameter.VAR_POSITIONAL:
            accepted[pname] = (parameter.default, _wants_float(parameter))
    return accepted, var_kwargs


def normalize_params(fn: Callable[..., Any],
                     params: Mapping[str, Any]) -> Dict[str, Any]:
    """Fill signature defaults and coerce int→float against the
    signature (defaults and annotations).

    Raises :class:`WireError` for unknown or missing-required
    parameters so a bad request can never be keyed (and cached) as if
    it were a real cell.
    """
    accepted, var_kwargs = _signature(fn)
    unknown = sorted(set(params) - accepted.keys())
    if unknown and not var_kwargs:
        raise WireError(
            f"unknown parameter(s) {unknown} for {fn.__module__}:"
            f"{fn.__qualname__}; accepted: {sorted(accepted)}"
        )
    canonicalizers = getattr(fn, "__wire_canonical__", None) or {}
    normalized: Dict[str, Any] = {}
    for pname, (default, wants_float) in accepted.items():
        if pname in params:
            value = params[pname]
            if (wants_float and isinstance(value, int)
                    and not isinstance(value, bool)):
                value = float(value)
        elif default is not inspect.Parameter.empty:
            value = default
        else:
            raise WireError(
                f"missing required parameter {pname!r} for "
                f"{fn.__module__}:{fn.__qualname__}"
            )
        if pname in canonicalizers:
            # Canonicalize the default too: an omitted structured param
            # must key identically to its explicit canonical spelling.
            try:
                value = canonicalizers[pname](value)
            except (ValueError, TypeError, KeyError) as exc:
                raise WireError(
                    f"invalid value for parameter {pname!r} of "
                    f"{fn.__module__}:{fn.__qualname__}: {exc}"
                ) from exc
        normalized[pname] = value
    for pname in unknown:  # **kwargs passthrough
        normalized[pname] = params[pname]
    return normalized


def cell_from_wire(obj: Mapping[str, Any]) -> WireCell:
    """Build a normalized :class:`WireCell` from one wire dict.

    Expected shape: ``{"experiment": str, "params": {...}}`` with
    parameter values in the manifest's sanitized JSON encoding.
    """
    if not isinstance(obj, Mapping):
        raise WireError(f"cell must be an object, got {type(obj).__name__}")
    name = obj.get("experiment")
    if not isinstance(name, str) or not name:
        raise WireError("cell is missing its 'experiment' name")
    raw = obj.get("params", {})
    if not isinstance(raw, Mapping):
        raise WireError("'params' must be an object")
    canonical, fn = canonical_experiment(name)
    try:
        restored = {str(k): _restore(v) for k, v in raw.items()}
    except (ValueError, TypeError, AttributeError, ImportError,
            KeyError) as exc:
        raise WireError(f"unrestorable parameter value: {exc}") from exc
    return WireCell(canonical, normalize_params(fn, restored))


def cell_to_wire(cell: WireCell) -> Dict[str, Any]:
    """The JSON-safe wire dict for one cell (sanitized param values)."""
    return {
        "experiment": cell.experiment,
        "params": {k: _sanitize(v) for k, v in cell.params.items()},
    }


def grid_cells(
    experiment: str,
    sweep: Mapping[str, Sequence[Any]],
    base: Mapping[str, Any] = (),
) -> List[WireCell]:
    """The cartesian product of ``sweep`` over ``base`` as cells.

    This is the shape of ``repro run --grid``: products of small axis
    lists.  Axes expand in sorted-name order and values in the order given, so the same grid
    spec always yields the same cell order (and therefore the same
    wire bytes).
    """
    canonical, fn = canonical_experiment(experiment)
    axes = sorted(sweep)
    combos = itertools.product(*(list(sweep[axis]) for axis in axes))
    cells = []
    for combo in combos:
        params = dict(base)
        params.update(zip(axes, combo))
        cells.append(WireCell(canonical, normalize_params(fn, params)))
    return cells
