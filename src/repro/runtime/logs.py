"""Structured logging for the serving stack.

Library modules log through ``logging.getLogger("repro.runtime...")`` and
attach machine-readable context via the ``event`` helper; by default the
package is silent (a ``NullHandler`` on the root ``repro`` logger), and
the server / gateway CLIs opt in with :func:`configure_logging`
(``--log-level``, ``--log-json``).

Two formats share the same records:

* human (default): ``2026-08-07 12:00:00 WARNING repro.runtime.pool:
  worker restarted | worker=1 cause=eof replays=1``
* JSON (``--log-json``): one object per line with ``ts``, ``level``,
  ``logger``, ``msg`` plus every field passed through :func:`event` —
  grep- and ``jq``-friendly, and what the fault-injection harness asserts
  against.

Worker restarts, circuit-breaker trips, and admission sheds all log with
worker/trace context so PR 8 recoveries are debuggable after the fact.
"""

from __future__ import annotations

import json
import logging
import time
from typing import Any, Dict, Optional

__all__ = ["JsonFormatter", "configure_logging", "event", "get_logger"]

#: Attribute name carrying structured fields on a LogRecord.
_FIELDS_ATTR = "repro_fields"


def get_logger(name: str) -> logging.Logger:
    """The stack's logger factory (namespaced under ``repro``)."""
    return logging.getLogger(name)


def event(logger: logging.Logger, level: int, msg: str, **fields: Any) -> None:
    """Log ``msg`` with structured ``fields`` attached to the record.

    Fields ride the record as an attribute, so the human formatter can
    render them as ``key=value`` pairs and :class:`JsonFormatter` can emit
    them as real JSON keys — one call site, both formats.
    """
    if logger.isEnabledFor(level):
        logger.log(level, msg, extra={_FIELDS_ATTR: fields})


class JsonFormatter(logging.Formatter):
    """Render each record as one JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        """Serialize the record (ts/level/logger/msg + structured fields)."""
        payload: Dict[str, Any] = {
            "ts": round(record.created, 3),
            "level": record.levelname,
            "logger": record.name,
            "msg": record.getMessage(),
        }
        fields = getattr(record, _FIELDS_ATTR, None)
        if fields:
            for key, value in fields.items():
                payload.setdefault(key, value)
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str)


class _HumanFormatter(logging.Formatter):
    """Default text format with ``key=value`` structured-field suffix."""

    def __init__(self):
        super().__init__("%(asctime)s %(levelname)s %(name)s: %(message)s")
        self.converter = time.localtime

    def format(self, record: logging.LogRecord) -> str:
        """Render the record, appending structured fields when present."""
        base = super().format(record)
        fields = getattr(record, _FIELDS_ATTR, None)
        if fields:
            suffix = " ".join(f"{key}={value}" for key, value in fields.items())
            return f"{base} | {suffix}"
        return base


def configure_logging(
    level: str = "info",
    json_lines: bool = False,
    stream: Optional[Any] = None,
) -> logging.Logger:
    """Attach a handler to the ``repro`` root logger (CLI entry points).

    Idempotent per process: an existing handler installed by a prior call
    is replaced, not stacked, so tests can reconfigure freely.  Returns the configured root logger.
    """
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_configured", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonFormatter() if json_lines else _HumanFormatter())
    handler._repro_configured = True
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper(), logging.INFO))
    root.propagate = False
    return root


# Library default: silent unless an application configures logging.
logging.getLogger("repro").addHandler(logging.NullHandler())
