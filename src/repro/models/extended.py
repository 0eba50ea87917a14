"""The paper's Extended RouteNet, defined with RouteNet in :mod:`repro.models.routenet`.

``build_index`` and ``build_scan_plan`` are re-exported as well, because the
benchmark's tracer (``perfbench/tracer.py``) looks them up in this module.
"""

from repro.models.routenet import ExtendedRouteNet, build_index, build_scan_plan

__all__ = ["ExtendedRouteNet"]
