"""``repro.runtime.gateway`` — what the front door does, and its HTTP framing.

* :mod:`repro.runtime.gateway.admission` — the rate-aware
  :class:`AdmissionController` (token budget from measured pool capacity)
  and :class:`PoolService`: the one pool, lock, counter set and table of
  operations every listener shares.  The table takes decoded arguments
  and an endpoint label and does not know which framing is calling.
* :mod:`repro.runtime.gateway.http` — the HTTP/1.1 framing of that table
  (``/v1/request``, ``/v1/batch``, chunked ``/v1/stream``, ``/v1/stats``,
  ``/v1/slow``, ``/healthz``, ``/metrics``): the blocking connection
  handler the one threaded listener,
  :class:`~repro.runtime.server.RuntimeServer`, runs when opened with
  ``handler=HttpHandler``.  It owns its route map, body shapes, refusal
  wording and envelope keys; the NDJSON framing, which owns its own, lives
  beside the listener in :mod:`repro.runtime.server`.
"""
