"""Wire-level payload validation and structured service errors.

Every malformed request maps to a :class:`ServiceError` with an HTTP
status, a stable machine-readable ``code`` and a human-readable
``detail`` -- the service tests pin that client mistakes are structured
4xx responses, never stack-trace 500s.  Parsing is strict at admission
time (unknown workload names, bad axis shapes, wrong types) so a
request that enters the execution pipeline can only fail for simulator
reasons.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.api.request import RunRequest
from repro.api.scale import ExperimentScale
from repro.api.sweep import Sweep
from repro.sim.config import config_from_dict
from repro.workloads import make_workload

#: Bodies larger than this are rejected with 413 before parsing.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ServiceError(Exception):
    """A client-visible service failure with a structured wire form."""

    def __init__(self, status: int, code: str, detail: str) -> None:
        super().__init__(f"{status} {code}: {detail}")
        self.status = status
        self.code = code
        self.detail = detail

    def to_dict(self) -> dict[str, Any]:
        """The JSON error body every non-2xx response carries."""
        return {
            "ok": False,
            "error": {"code": self.code, "detail": self.detail},
        }


def invalid(detail: str) -> ServiceError:
    """The common 400 for structurally-bad request payloads."""
    return ServiceError(400, "invalid-request", detail)


def _require_mapping(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise invalid(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def parse_run_payload(data: Any) -> RunRequest:
    """Parse a ``POST /run`` body: ``{"request": RunRequest.to_dict()}``.

    The workload name is resolved eagerly so unknown names fail here
    (400) instead of inside a worker process (500).
    """
    body = _require_mapping(data, "run payload")
    if "request" not in body:
        raise invalid("run payload needs a 'request' object")
    request_data = _require_mapping(body["request"], "'request'")
    try:
        request = RunRequest.from_dict(request_data)
    except (KeyError, TypeError, ValueError) as error:
        raise invalid(f"bad run request: {error}") from error
    try:
        make_workload(request.workload)
    except (KeyError, TypeError, ValueError) as error:
        raise ServiceError(
            400, "unknown-workload", f"{request.workload!r}: {error}"
        ) from error
    return request


def parse_fleet_payload(data: Any):
    """Parse a ``POST /fleet`` body: ``{"request": FleetRequest.to_dict()}``."""
    # imported lazily: repro.fleet sits above repro.api but below serve
    from repro.fleet.spec import FleetRequest

    body = _require_mapping(data, "fleet payload")
    if "request" not in body:
        raise invalid("fleet payload needs a 'request' object")
    request_data = _require_mapping(body["request"], "'request'")
    try:
        return FleetRequest.from_dict(request_data)
    except (KeyError, TypeError, ValueError) as error:
        raise invalid(f"bad fleet request: {error}") from error


def parse_sweep_payload(data: Any) -> tuple[Sweep, ExperimentScale]:
    """Parse a ``POST /sweep`` body into a :class:`Sweep` plus scale.

    Shape::

        {"axes": {"protocol": [...], "workload": [...]},
         "base": <SystemConfig dict, optional>,
         "normalize": {<axis>: <value>, ...}  # optional
         "scale": {"trace_scale": 1.0, "warmup_fraction": 0.2}}  # optional

    Axes are restricted to :class:`~repro.sim.config.SystemConfig`
    fields plus the workload axis -- a ``configure`` callback cannot
    cross the wire.
    """
    body = _require_mapping(data, "sweep payload")
    axes = _require_mapping(body.get("axes", None), "'axes'")
    if not axes:
        raise invalid("'axes' must name at least one axis")
    clean_axes: dict[str, list] = {}
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise invalid(f"axis {name!r} must be a non-empty list")
        clean_axes[str(name)] = list(values)
    base = None
    if body.get("base") is not None:
        try:
            base = config_from_dict(_require_mapping(body["base"], "'base'"))
        except (KeyError, TypeError, ValueError) as error:
            raise invalid(f"bad base config: {error}") from error
    try:
        sweep = Sweep(axes=clean_axes, base=base)
    except (TypeError, ValueError) as error:
        raise invalid(f"bad sweep axes: {error}") from error
    normalize = body.get("normalize")
    if normalize is not None:
        normalize = _require_mapping(normalize, "'normalize'")
        try:
            sweep = sweep.normalize_to(**{str(k): v for k, v in normalize.items()})
        except (TypeError, ValueError) as error:
            raise invalid(f"bad normalize overrides: {error}") from error
    scale = parse_scale(body.get("scale"))
    for coords in sweep.points():
        workload = coords[sweep.workload_axis]
        try:
            make_workload(workload)
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(
                400, "unknown-workload", f"{workload!r}: {error}"
            ) from error
    return sweep, scale


def parse_scale(data: Optional[Any]) -> ExperimentScale:
    """Parse the optional ``scale`` section of a sweep payload."""
    if data is None:
        return ExperimentScale()
    body = _require_mapping(data, "'scale'")
    try:
        return ExperimentScale(
            trace_scale=float(body.get("trace_scale", 1.0)),
            warmup_fraction=float(body.get("warmup_fraction", 0.2)),
        )
    except (TypeError, ValueError) as error:
        raise invalid(f"bad scale: {error}") from error


__all__ = [
    "MAX_BODY_BYTES",
    "ServiceError",
    "invalid",
    "parse_fleet_payload",
    "parse_run_payload",
    "parse_scale",
    "parse_sweep_payload",
]
