"""The HTTP client of the serving stack.

:class:`HTTPClient` speaks the :mod:`repro.serve.server` JSON protocol
with stdlib ``urllib`` only. :func:`error_from_http` decodes an error
response back into the exception type the server raised — the one
decoder of :data:`~repro.serve.server.STATUS_FOR`, which the cluster
router's proxy path uses too — so a caller sees the same exception
types as one calling :class:`~repro.serve.service.InferenceService`
in-process. Other non-2xx responses become
:class:`~repro.errors.ServeError`.

Backpressure errors (429/503) carry the server's retry hint as
``error.retry_after_s``, parsed from ``X-Retry-After-Ms`` (sub-second
precision) or the standard ``Retry-After`` header. The client accepts
an optional :class:`~repro.utils.retry.RetryPolicy`; with one set,
backpressure rejections (:data:`BACKPRESSURE`) are retried
transparently with that hint as the backoff floor — the caller only
ever sees the error once the policy is exhausted.

With ``trace_requests=True``, :class:`HTTPClient` stamps each predict
with an ``X-Repro-Trace`` header — continuing the calling thread's
active :class:`~repro.obs.trace.TraceContext` at a child hop when one
is installed, else starting a fresh trace — and remembers the last
trace id (``client.last_trace_id``) so callers can fetch the merged
trace afterwards (``/tracez``, or
:func:`repro.obs.export.write_request_trace` server-side).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np

from repro.errors import (
    CircuitOpenError,
    QueueFullError,
    ReplicaUnavailableError,
    ServeError,
    ServiceDrainingError,
)
from repro.obs import trace
from repro.serve.server import STATUS_FOR
from repro.utils.retry import RetryPolicy, call_with_retry

#: Transient shedding worth retrying (here) or failing over (at the
#: router), not request defects: a 400/404 fails identically every time.
#: Only the router raises :class:`ReplicaUnavailableError` (a replica
#: never does), so the router's own failover never meets it.
BACKPRESSURE = (
    QueueFullError,
    CircuitOpenError,
    ReplicaUnavailableError,
    ServiceDrainingError,
)


def retry_after_from_headers(headers) -> float | None:
    """Parse the backoff hint; prefers the millisecond extension."""
    precise = headers.get("X-Retry-After-Ms")
    if precise is not None:
        try:
            return float(precise) / 1e3
        except ValueError:
            pass
    coarse = headers.get("Retry-After")
    if coarse is not None:
        try:
            return float(coarse)
        except ValueError:
            pass
    return None


def error_from_http(err: urllib.error.HTTPError) -> ServeError:
    """The typed error an error response of the JSON protocol stands for.

    The error name in the body picks the class; the status decides only
    when the name is missing or not in :data:`STATUS_FOR`. The retry
    hint rides along as ``retry_after_s``.
    """
    try:
        payload = json.loads(err.read())
        name, detail = payload.get("error"), payload.get("detail", err.reason)
    except (ValueError, AttributeError):  # not a JSON object
        name, detail = None, err.reason
    kind = next((k for k, _ in STATUS_FOR if k.__name__ == name), None)
    if kind is None:
        kind = next((k for k, s in STATUS_FOR if s == err.code), ServeError)
    error = kind(f"HTTP {err.code}: {detail}")
    retry_after_s = retry_after_from_headers(err.headers)
    if retry_after_s is not None and hasattr(error, "retry_after_s"):
        error.retry_after_s = retry_after_s
    return error


class HTTPClient:
    """Client of the JSON HTTP endpoint.

    Responses come back as plain dicts (the wire format of
    :meth:`~repro.serve.service.PredictResult.to_dict`).
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
        trace_requests: bool = False,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retry = retry
        self.trace_requests = trace_requests
        #: Trace id of the most recent traced predict (None before one).
        self.last_trace_id: str | None = None

    def _trace_header(self) -> dict[str, str]:
        if not self.trace_requests:
            return {}
        active = trace.current()
        ctx = active.child() if active is not None else trace.new_trace()
        self.last_trace_id = ctx.trace_id
        return {trace.TRACE_HEADER: ctx.to_header()}

    def _request_once(self, path: str, payload: dict | None) -> dict | list:
        url = f"{self.base_url}{path}"
        data = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"}
        if payload is not None:  # only predicts are traced
            headers.update(self._trace_header())
        request = urllib.request.Request(
            url,
            data=data,
            headers=headers,
            method="GET" if payload is None else "POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as r:
                return json.loads(r.read())
        except urllib.error.HTTPError as err:
            raise error_from_http(err) from None
        except urllib.error.URLError as err:
            raise ServeError(f"cannot reach {url}: {err.reason}") from None

    def _request(self, path: str, payload: dict | None = None) -> dict | list:
        if self.retry is None:
            return self._request_once(path, payload)
        return call_with_retry(
            lambda: self._request_once(path, payload),
            policy=self.retry,
            retry_on=BACKPRESSURE,
        )

    def predict(
        self,
        model: str,
        x: np.ndarray,
        deadline_ms: float | None = None,
    ) -> dict | list:
        payload = {"model": model, "inputs": np.asarray(x).tolist()}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return self._request("/predict", payload)

    def stats(self) -> dict:
        return self._request("/stats")

    def healthz(self) -> dict:
        return self._request("/healthz")

    def tracez(self, limit: int = 10) -> dict:
        return self._request(f"/tracez?limit={int(limit)}")

    def metrics(self) -> str:
        """The raw ``/metrics`` Prometheus text (not JSON)."""
        request = urllib.request.Request(f"{self.base_url}/metrics")
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as r:
                return r.read().decode()
        except urllib.error.URLError as err:
            raise ServeError(
                f"cannot reach {self.base_url}/metrics: {err.reason}"
            ) from None
