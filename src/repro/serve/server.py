"""Stdlib HTTP frontend: the one request handler every server shares.

:class:`ServeHTTPServer` (over an :class:`InferenceService`) and
:class:`~repro.cluster.router.RouterHTTPServer` (over a
:class:`~repro.cluster.router.ClusterRouter`) subclass
:class:`HTTPFrontend` and supply its hooks; the handler owns the rest.

Endpoints (JSON in, JSON out):

* ``POST /predict`` — body ``{"model": str, "inputs": nested list,
  "deadline_ms": number?}``; ``inputs`` is one sample (model input
  shape) or a batch (leading axis). Response: one result dict or a list
  of them (see :meth:`PredictResult.to_dict`). A malformed request (bad
  ``Content-Length``, a body that is not a JSON object, a missing or
  non-string ``model``, non-numeric, NaN/infinite or wrong-shaped
  ``inputs``, a non-numeric or non-positive ``deadline_ms``) is
  rejected before anything is queued.
* ``GET /healthz`` — liveness plus the served model names.
* ``GET /stats`` — the server's statistics payload.
* ``GET /metrics`` — Prometheus text exposition (v0.0.4) of the global
  obs registry plus the server's own families (here the per-model SLO
  burn rates).
* ``GET /tracez`` — the most recent sampled traces as JSON
  (``?limit=N`` caps the count, default 10).

Tracing: a ``POST /predict`` carrying ``X-Repro-Trace`` joins the
caller's trace (the handler runs the request under a child context and
echoes the header back); without the header, every ``trace_sample``-th
request starts a fresh trace so ``/tracez`` stays populated under
steady traffic at bounded overhead. The per-request root span
(``serve.request`` or ``cluster.request``) is only recorded for traced
requests — an untraced request touches none of the span machinery.

Errors map onto status codes through :data:`STATUS_FOR`: 400 malformed
request / bad shape, 404 unknown model, 429 queue full (back off and
retry), 503 circuit open, no replica available or draining, 504
deadline exceeded, 500 anything else. The body names the error class,
which :func:`repro.serve.client.error_from_http` decodes. Backpressure
responses (429/503) carry the standard ``Retry-After`` header (integer
seconds, ceiling-rounded) plus ``X-Retry-After-Ms`` for sub-second
precision, which :class:`~repro.serve.client.HTTPClient` feeds back
into its retry backoff. ``ThreadingHTTPServer`` gives one thread per
connection; all cross-request coordination lives behind the hooks, so
the handler is stateless.
"""

from __future__ import annotations

import itertools
import json
import math
import signal as signal_module
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro import obs
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    QueueFullError,
    ReplicaUnavailableError,
    ReproError,
    ServiceDrainingError,
    ShapeError,
    UnknownModelError,
)
from repro.obs import trace
from repro.obs.export import render_prometheus
from repro.serve.service import InferenceService
from repro.serve.slo import slo_families

#: Default trace sampling: without a client-sent header, one request in
#: this many starts a fresh trace (0 disables ambient sampling).
DEFAULT_TRACE_SAMPLE = 16

#: Error ↔ HTTP status: the protocol's only table. Both frontends send
#: through :func:`status_for`, and the client's decoder reads the error
#: name back (the status only when the name is missing or unknown, so
#: a bare 503 decodes to the first 503 listed).
STATUS_FOR = (
    (ShapeError, 400),
    (UnknownModelError, 404),
    (QueueFullError, 429),
    (CircuitOpenError, 503),
    (ReplicaUnavailableError, 503),
    (ServiceDrainingError, 503),
    (DeadlineExceededError, 504),
)


def status_for(error: Exception) -> int:
    """HTTP status code for a :class:`~repro.errors.ReproError`."""
    for kind, status in STATUS_FOR:
        if isinstance(error, kind):
            return status
    return 500


def _parse_predict(body: bytes) -> tuple[str, np.ndarray, float]:
    """``(model, inputs, deadline_s)`` of a ``/predict`` body, else a
    :class:`ShapeError`; no ``deadline_ms`` gives ``-1.0`` (the policy
    default), and one that is not positive is rejected."""
    try:
        request = json.loads(body or b"{}")
        model, deadline_ms = request["model"], request.get("deadline_ms")
        with np.errstate(over="ignore"):  # float32 overflow: caught below
            inputs = np.asarray(request["inputs"], dtype=np.float32)
    except (KeyError, TypeError, ValueError, RecursionError) as err:
        raise ShapeError(f"malformed request body: {err!r}") from None
    if not isinstance(model, str):
        raise ShapeError(f"model must be a string, not {model!r}")
    if not np.isfinite(inputs).all():
        raise ShapeError("inputs hold NaN or infinite values")
    if deadline_ms is None:
        return model, inputs, -1.0
    if type(deadline_ms) not in (int, float) or not math.isfinite(deadline_ms):
        raise ShapeError(f"deadline_ms must be a number, not {deadline_ms!r}")
    if deadline_ms <= 0:
        raise ShapeError(f"deadline_ms must be positive, not {deadline_ms!r}")
    return model, inputs, deadline_ms / 1e3


class _Handler(BaseHTTPRequestHandler):
    """One request; everything that differs hangs off the server."""

    server: "HTTPFrontend"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(fmt, *args)

    def _send_json(self, status: int, payload, headers=None) -> None:
        body = json.dumps(payload)
        self._send_text(status, body, "application/json", headers)

    def _send_text(self, status, body: str, content_type, headers=None):
        data = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_error(
        self, error: Exception, headers: dict[str, str] | None = None
    ) -> None:
        headers = dict(headers or {})
        retry_after_s = getattr(error, "retry_after_s", None)
        if retry_after_s is not None:
            # Retry-After is integer seconds by spec; ceil so a client
            # honouring only the standard header never retries early.
            headers["Retry-After"] = str(max(0, math.ceil(retry_after_s)))
            headers["X-Retry-After-Ms"] = f"{retry_after_s * 1e3:.3f}"
        self._send_json(
            status_for(error),
            {"error": type(error).__name__, "detail": str(error)},
            headers,
        )

    # -- routes --------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib casing
        server = self.server
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path == "/healthz":
            self._send_json(200, server.health())
        elif parsed.path == "/stats":
            self._send_json(200, server.stats())
        elif parsed.path == "/metrics":
            body = render_prometheus(extra_families=server.metric_families())
            self._send_text(
                200, body, "text/plain; version=0.0.4; charset=utf-8"
            )
        elif parsed.path == "/tracez":
            query = urllib.parse.parse_qs(parsed.query)
            try:
                limit = int(query.get("limit", ["10"])[0])
            except ValueError:
                limit = 10
            # epoch_wall lets a remote merger (the cluster router, the
            # CLI's --profile export) rebase these spans' monotonic
            # timestamps onto its own clock.
            self._send_json(
                200,
                {
                    "traces": server.traces(limit),
                    "epoch_wall": obs.get_registry().epoch_wall,
                },
            )
        else:
            self._send_json(404, {"error": "NotFound", "detail": self.path})

    def _request_trace(self) -> "trace.TraceContext | None":
        """The context this request runs under: the client's (continued
        at a child hop) when the header is present, a fresh ambient
        sample every ``trace_sample``-th headerless request, else
        ``None`` (untraced)."""
        from_header = trace.TraceContext.from_header(
            self.headers.get(trace.TRACE_HEADER)
        )
        if from_header is not None:
            return from_header.child()
        sample = self.server.trace_sample
        if sample and next(self.server.request_seq) % sample == 0:
            return trace.new_trace()
        return None

    def do_POST(self):  # noqa: N802 - stdlib casing
        server = self.server
        length = self.headers.get("Content-Length", "0")
        if not length.isdecimal():  # reading to EOF would block: hang up
            error = ShapeError(f"bad Content-Length {length!r}")
            self._send_error(error, {"Connection": "close"})
            return
        body = self.rfile.read(int(length))
        if self.path != "/predict":
            self._send_json(404, {"error": "NotFound", "detail": self.path})
            return
        echo = None
        try:
            model, inputs, deadline_s = _parse_predict(body)
            shape = server.input_shape(model)
            if shape not in (inputs.shape, inputs.shape[1:]):
                raise ShapeError(
                    f"inputs shape {inputs.shape} matches neither sample "
                    f"shape {shape} nor a batch of it"
                )
            ctx = self._request_trace()
            if ctx is None:
                result = server.predict(model, inputs, deadline_s, body)
            else:
                echo = {trace.TRACE_HEADER: ctx.to_header()}
                samples = 1 if inputs.shape == shape else len(inputs)
                with trace.scope(ctx), obs.span(
                    f"{server.kind}.request", model=model, samples=samples
                ):
                    result = server.predict(model, inputs, deadline_s, body)
        except ReproError as err:
            self._send_error(err, echo)
            return
        self._send_json(200, result, echo)


class HTTPFrontend(ThreadingHTTPServer):
    """Threading HTTP server behind the shared :class:`_Handler`, which
    validates every request before a hook sees it."""

    daemon_threads = True
    #: Prefix of the root span (``<kind>.request``) and of the thread
    #: :meth:`serve_background` starts (``<kind>-http``).
    kind: str

    def __init__(self, address, verbose: bool, trace_sample: int):
        super().__init__(address, _Handler)
        self.verbose = verbose
        self.trace_sample = trace_sample
        #: Headerless-request counter driving ambient trace sampling
        #: (itertools.count is atomic under CPython — no lock needed).
        self.request_seq = itertools.count()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_background(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread (tests, CLI)."""
        thread = threading.Thread(
            target=self.serve_forever, name=f"{self.kind}-http", daemon=True
        )
        thread.start()
        return thread

    # -- hooks: what differs between frontends -------------------------------

    def health(self) -> dict:  # the /healthz payload
        raise NotImplementedError

    def stats(self) -> dict:  # the /stats payload
        raise NotImplementedError

    def metric_families(self) -> dict:  # added to the obs registry's
        raise NotImplementedError

    def traces(self, limit: int) -> list[dict]:  # /tracez, newest first
        raise NotImplementedError

    def input_shape(self, model: str) -> tuple[int, ...]:
        """One sample's shape; raises :class:`UnknownModelError`."""
        raise NotImplementedError

    def predict(
        self, model: str, inputs: np.ndarray, deadline_s: float, body: bytes
    ) -> dict | list:
        """Answer a validated request (``body`` is its raw bytes)."""
        raise NotImplementedError


class ServeHTTPServer(HTTPFrontend):
    """The frontend bound to one :class:`InferenceService`."""

    kind = "serve"
    service: InferenceService

    def __init__(
        self,
        address,
        service: InferenceService,
        verbose=False,
        trace_sample: int = DEFAULT_TRACE_SAMPLE,
    ):
        super().__init__(address, verbose, trace_sample)
        self.service = service
        #: Set once drain starts; /predict is shed with 503 while GET
        #: endpoints stay live so health checks observe the drain.
        self._draining = threading.Event()
        #: Retry-After hint handed to shed requests during drain.
        self.drain_retry_after_s = 1.0

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def health(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "models": self.service.registry.names(),
        }

    def stats(self) -> dict:
        return self.service.stats()

    def metric_families(self) -> dict:
        return slo_families(self.service.slo_snapshots())

    def traces(self, limit: int) -> list[dict]:
        return trace.recent_traces(limit=limit)

    def input_shape(self, model: str) -> tuple[int, ...]:
        return self.service.registry.get(model).input_shape

    def predict(self, model, inputs, deadline_s, body):
        if self.draining:
            # In-flight work finishes; new work belongs on another replica.
            raise ServiceDrainingError(
                "server is draining; retry against another replica",
                retry_after_s=self.drain_retry_after_s,
            )
        if inputs.shape == self.input_shape(model):
            return self.service.predict(model, inputs, deadline_s).to_dict()
        results = self.service.predict_many(model, inputs, deadline_s)
        return [r.to_dict() for r in results]

    def drain(self, timeout_s: float = 30.0, poll_s: float = 0.02) -> bool:
        """Graceful drain: stop accepting, let admitted work finish.

        New ``POST /predict`` requests are shed with ``503`` +
        ``Retry-After`` immediately; the call then waits until the
        service reports zero pending requests (queued + in flight) or
        ``timeout_s`` elapses. Returns ``True`` when the service fully
        drained. Idempotent; GET endpoints (``/healthz``, ``/metrics``,
        ``/stats``, ``/tracez``) keep answering so supervisors can watch
        the drain progress. The caller still owns ``shutdown()`` /
        ``service.stop()`` afterwards.
        """
        self._draining.set()
        obs.counter("serve.drains_started").add(1)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.service.pending() == 0:
                obs.counter("serve.drains_completed").add(1)
                return True
            time.sleep(poll_s)
        return self.service.pending() == 0


def make_server(
    service: InferenceService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    trace_sample: int = DEFAULT_TRACE_SAMPLE,
) -> ServeHTTPServer:
    """Bind (``port=0`` picks a free one); caller starts/stops it."""
    return ServeHTTPServer(
        (host, port), service, verbose=verbose, trace_sample=trace_sample
    )


def install_graceful_shutdown(
    server: ServeHTTPServer,
    service: InferenceService,
    signals: tuple[int, ...] = (signal_module.SIGTERM,),
    drain_timeout_s: float = 30.0,
    on_done=None,
) -> None:
    """SIGTERM → drain → stop, for clean replica recycling.

    On the first listed signal the server sheds new ``/predict`` traffic
    (503 + ``Retry-After``), waits for in-flight and queued requests to
    finish (up to ``drain_timeout_s``), then shuts the HTTP server and
    service down and calls ``on_done()`` if given. The drain runs on a
    helper thread so the signal handler returns immediately (handlers
    run on the main thread, which may be inside ``serve_forever``).
    Signal handlers can only be installed from the main thread; replica
    processes call this from their own main thread before entering the
    supervision loop.
    """

    def _drain_and_stop() -> None:
        server.drain(timeout_s=drain_timeout_s)
        server.shutdown()
        service.stop()
        if on_done is not None:
            on_done()

    def _handler(signum, frame):  # noqa: ARG001 - signal signature
        if server.draining:  # second signal: already on the way down
            return
        threading.Thread(
            target=_drain_and_stop, name="serve-drain", daemon=True
        ).start()

    for sig in signals:
        signal_module.signal(sig, _handler)
