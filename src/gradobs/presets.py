"""Named experiment configurations for the command-line harness.

Each preset is a complete JSON-serializable config; `preset(name)` returns a
fresh copy so callers may mutate freely.
"""

from __future__ import annotations

import copy
import math

from .errors import ConfigError

_SQRT2 = math.sqrt(2.0)
_STRIP_HALF = [[0.0, 1.0], [0.0, 0.5]]
_THREE_POINTWISE = [
    {"kind": "pointwise", "location": [1.0 / _SQRT2, 1.0 / math.sqrt(3.0)]},
    {"kind": "pointwise", "location": [1.0 / math.pi, 1.0 / math.sqrt(5.0)]},
    {"kind": "pointwise", "location": [math.sqrt(3.0) - 1.0, 2.0 / math.pi - 0.3]},
]

# the filament realization of delta(x1 - 1/2) sin(pi x2)
_MIDLINE_FILAMENT = [
    {
        "kind": "filament",
        "axis": 1,
        "interval": [0.0, 1.0],
        "fixed": 0.5,
        "distribution": {"type": "sine", "freq": [0.0, 1.0]},
    }
]

_PRESETS: dict[str, dict] = {
    # Unobservable filament configuration: the gradient field
    # (cos(pi x1) sin(3 pi x2), 3 sin(pi x1) cos(3 pi x2)) / pi produces zero
    # output globally but a closed-form response when restricted to the strip.
    "counterexample": {
        "alpha": 0.5,
        "horizon": 1.0,
        "dimension": 2,
        "truncation": 6,
        "region": None,
        "sensors": copy.deepcopy(_MIDLINE_FILAMENT),
        "initial": {"type": "counterexample-gradient"},
    },
    "counterexample-strip": {
        "alpha": 0.5,
        "horizon": 1.0,
        "dimension": 2,
        "truncation": 6,
        "region": [[[0.0, 1.0], [0.0, 1.0 / 6.0]]],
        "sensors": copy.deepcopy(_MIDLINE_FILAMENT),
        "initial": {"type": "counterexample-gradient"},
    },
    # Single zone sensor with the incommensurate product-sine distribution.
    "case1-zone": {
        "alpha": 0.8,
        "horizon": 1.0,
        "dimension": 2,
        "truncation": 4,
        "potential_truncation": 4,
        "region": [_STRIP_HALF],
        "sensors": [
            {
                "kind": "zone",
                "rect": [[0.2, 0.7], [0.3, 0.8]],
                "distribution": {"type": "sine", "freq": [_SQRT2, _SQRT2]},
            }
        ],
        "initial": {
            "type": "modes",
            "terms": [
                {"indices": [1, 1], "value": 1.0},
                {"indices": [2, 3], "value": 0.5},
            ],
        },
    },
    # Single pointwise sensor at an incommensurate location.
    "case2-pointwise": {
        "alpha": 0.8,
        "horizon": 1.0,
        "dimension": 2,
        "truncation": 4,
        "potential_truncation": 4,
        "region": [_STRIP_HALF],
        "sensors": [
            {"kind": "pointwise", "location": [1.0 / _SQRT2, 1.0 / math.sqrt(3.0)]}
        ],
        "initial": {
            "type": "modes",
            "terms": [{"indices": [1, 1], "value": 1.0}],
        },
    },
    # Filament sensor on [0.1, 0.9] x {1/3}.
    "case3-filament": {
        "alpha": 0.8,
        "horizon": 1.0,
        "dimension": 2,
        "truncation": 4,
        "potential_truncation": 4,
        "region": [_STRIP_HALF],
        "sensors": [
            {
                "kind": "filament",
                "axis": 0,
                "interval": [0.1, 0.9],
                "fixed": 1.0 / 3.0,
                "distribution": {"type": "sine", "freq": [_SQRT2, 1.0]},
            }
        ],
        "initial": {
            "type": "modes",
            "terms": [{"indices": [1, 1], "value": 1.0}],
        },
    },
    # 1-D strategic demos: the midpoint sensor misses every even mode, as
    # sin(j pi / 2) = 0; the 1/pi sensor sees them all.
    "strategic-1d-fail": {
        "alpha": 0.7,
        "horizon": 1.0,
        "dimension": 1,
        "truncation": 12,
        "region": None,
        "sensors": [{"kind": "pointwise", "location": [0.5]}],
        "initial": {"type": "modes", "terms": [{"indices": [1], "value": 1.0}]},
    },
    "strategic-1d-pass": {
        "alpha": 0.7,
        "horizon": 1.0,
        "dimension": 1,
        "truncation": 12,
        "region": None,
        "sensors": [{"kind": "pointwise", "location": [1.0 / math.pi]}],
        "initial": {"type": "modes", "terms": [{"indices": [1], "value": 1.0}]},
    },
    # Integer-order limit against the exponential semigroup.
    "heat-limit": {
        "alpha": 1.0,
        "horizon": 1.0,
        "dimension": 1,
        "truncation": 8,
        "region": None,
        "sensors": [
            {"kind": "pointwise", "location": [1.0 / math.pi]},
            {"kind": "pointwise", "location": [1.0 / _SQRT2]},
            {"kind": "pointwise", "location": [math.sqrt(5.0) - 2.0]},
        ],
        "initial": {
            "type": "modes",
            "terms": [
                {"indices": [1], "value": 1.0},
                {"indices": [2], "value": -0.7},
                {"indices": [5], "value": 0.3},
            ],
        },
    },
    # Reconstruction presets: small matched truncations keep the normal
    # equations well conditioned (see observability Gramian conditioning).
    "hum-synthetic": {
        "alpha": 0.8,
        "horizon": 1.0,
        "dimension": 2,
        "truncation": 2,
        "potential_truncation": 2,
        "region": [_STRIP_HALF],
        "sensors": copy.deepcopy(_THREE_POINTWISE),
        "initial": {
            "type": "modes",
            "terms": [
                {"indices": [1, 1], "value": 1.0},
                {"indices": [2, 2], "value": -0.4},
            ],
        },
        "hum": {"cg_tolerance": 1e-13, "max_iterations": 500},
    },
    "hum-pipeline": {
        "alpha": 0.8,
        "horizon": 1.0,
        "dimension": 2,
        "truncation": 3,
        "potential_truncation": 3,
        "region": [_STRIP_HALF],
        "sensors": copy.deepcopy(_THREE_POINTWISE),
        "initial": {
            "type": "modes",
            "terms": [
                {"indices": [1, 1], "value": 1.0},
                {"indices": [2, 3], "value": 0.5},
            ],
        },
        "hum": {"cg_tolerance": 1e-13, "max_iterations": 2000},
    },
    # Gram demos: an observable three-sensor suite and the degenerate
    # zero-distribution suite.
    "observable-gram": {
        "alpha": 0.8,
        "horizon": 1.0,
        "dimension": 2,
        "truncation": 3,
        "potential_truncation": 3,
        "region": [_STRIP_HALF],
        "sensors": copy.deepcopy(_THREE_POINTWISE),
        "initial": {"type": "modes", "terms": [{"indices": [1, 1], "value": 1.0}]},
    },
    "gram-zero": {
        "alpha": 0.8,
        "horizon": 1.0,
        "dimension": 1,
        "truncation": 2,
        "potential_truncation": 2,
        "region": None,
        "sensors": [
            {
                "kind": "zone",
                "rect": [[0.0, 1.0]],
                "distribution": {"type": "constant", "value": 0.0},
            }
        ],
        "initial": {"type": "modes", "terms": [{"indices": [1], "value": 1.0}]},
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> dict:
    """A fresh copy of the named configuration."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return copy.deepcopy(_PRESETS[name])
