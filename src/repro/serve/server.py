"""An asyncio HTTP/1.1 front door over :class:`CampaignService`.

Stdlib only (``asyncio.start_server`` plus a hand-rolled HTTP/1.1
request parser): the container must not grow dependencies, and the
surface is small enough -- seven routes, JSON in, JSON or NDJSON out --
that a framework would be mostly weight.  Connections are one request
each (``Connection: close``), which keeps the parser honest and is fine
for a job-submission API where the expensive part is the solve, not the
TCP handshake.

Routes::

    GET  /v1/healthz            service liveness + queue/cache stats
    GET  /v1/scenarios          registered scenario listing
    GET  /v1/jobs               all jobs (most recent first)
    GET  /v1/jobs/<id>          one job's state + progress + counts
    GET  /v1/jobs/<id>/records  stored records as streaming NDJSON
    POST /v1/run                {"scenario": ..., "solver"?, "fresh"?}
    POST /v1/sweep              {"sweep": ..., "fresh"?}
    POST /v1/optimize           {"scenario"|"sweep": ..., "fresh"?}
    POST /v1/predict            {"scenario": ..., "exact_if_std_above"?,
                                 "target"?, "solver"?}
    POST /v1/ml/fit             {"job_ids"?, "model"?, "targets"?}

Submission endpoints respond ``202 Accepted`` with the job dict (plus
``"resubmitted": true`` when the durable queue deduplicated the job).
``/v1/predict`` answers ``200`` with ``{"source": "surrogate", "mean",
"std"}`` when the model is confident, or ``202`` with the enqueued exact
job when the predictive std exceeds ``exact_if_std_above``.
Validation errors are 400s with ``{"error": ...}``; unknown jobs/routes
are 404s.  The server runs the asyncio loop on a dedicated thread
(:meth:`CampaignServer.start_in_thread`) or blocks the caller
(:meth:`CampaignServer.run`, used by ``repro serve``).
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, Optional, Tuple

from .queue import QueueFullError

__all__ = ["CampaignServer"]

#: Largest accepted request body; campaign sweeps are small JSON.
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """Internal: raised by handlers to produce a non-200 JSON response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class CampaignServer:
    """Serve one :class:`~repro.serve.service.CampaignService` over HTTP."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port  # 0 picks an ephemeral port; see .port after start
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------

    async def _serve(self, started: Optional[threading.Event] = None) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if started is not None:
            started.set()
        async with self._server:
            await self._server.serve_forever()

    def run(self) -> None:
        """Run the server on the calling thread until cancelled (Ctrl-C)."""
        self.service.start()
        try:
            asyncio.run(self._serve())
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            self.service.stop()

    def start_in_thread(self) -> "CampaignServer":
        """Start service + server on a background thread; returns when up."""
        self.service.start()

        def target() -> None:
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._serve(self._ready))
            except asyncio.CancelledError:
                pass
            finally:
                self._loop.close()

        self._thread = threading.Thread(
            target=target, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("server failed to start within 10s")
        return self

    def stop(self) -> None:
        """Stop the HTTP listener and the service (thread-safe, idempotent)."""
        if self._loop is not None and self._thread is not None:
            loop = self._loop

            def cancel() -> None:
                if self._server is not None:
                    self._server.close()
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            loop.call_soon_threadsafe(cancel)
            self._thread.join(timeout=10)
            self._thread = None
            self._loop = None
        self.service.stop()

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as error:
                await self._send_json(
                    writer, error.status, {"error": str(error)}
                )
                return
            await self._dispatch(writer, method, path, body)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # stop() cancels in-flight handlers; end the task cleanly so
            # asyncio's stream done-callback doesn't log the cancellation.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _HttpError(400, "request line too long")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed HTTP request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _send_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, document: object
    ) -> None:
        payload = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        await self._send_response(writer, status, payload, "application/json")

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
    ) -> None:
        try:
            document = await self._route(writer, method, path, body)
        except _HttpError as error:
            await self._send_json(writer, error.status, {"error": str(error)})
            return
        except KeyError as error:
            await self._send_json(
                writer, 404, {"error": str(error).strip("'\"")}
            )
            return
        except ValueError as error:
            await self._send_json(writer, 400, {"error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 - service must not die
            await self._send_json(
                writer, 500, {"error": f"{type(error).__name__}: {error}"}
            )
            return
        if document is not None:  # streaming routes respond themselves
            status = 202 if method == "POST" else 200
            await self._send_json(writer, status, document)

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
    ) -> Optional[object]:
        segments = [segment for segment in path.split("/") if segment]
        if not segments or segments[0] != "v1":
            raise _HttpError(404, f"no such path: {path}")
        segments = segments[1:]

        if segments == ["healthz"]:
            self._require(method, "GET")
            return self.service.healthz()
        if segments == ["scenarios"]:
            self._require(method, "GET")
            return {"scenarios": self.service.scenario_rows()}
        if segments == ["jobs"]:
            self._require(method, "GET")
            jobs = [job.to_dict() for job in self.service.queue.jobs()]
            jobs.sort(key=lambda job: job["submitted_at"], reverse=True)
            return {"jobs": jobs}
        if len(segments) == 2 and segments[0] == "jobs":
            self._require(method, "GET")
            return await asyncio.to_thread(self.service.job_detail, segments[1])
        if len(segments) == 3 and segments[:1] == ["jobs"] and segments[2] == "records":
            self._require(method, "GET")
            await self._stream_records(writer, segments[1])
            return None
        if segments in (["run"], ["sweep"], ["optimize"]):
            self._require(method, "POST")
            return await asyncio.to_thread(
                self._submit, segments[0], body
            )
        if segments == ["predict"]:
            self._require(method, "POST")
            document = await asyncio.to_thread(self._predict, body)
            # Confident surrogate answers are complete (200); fallbacks
            # enqueue a job and mirror the submission endpoints (202).
            status = 202 if document.get("source") == "exact" else 200
            await self._send_json(writer, status, document)
            return None
        if segments == ["ml", "fit"]:
            self._require(method, "POST")
            document = await asyncio.to_thread(self._fit, body)
            await self._send_json(writer, 200, document)
            return None
        raise _HttpError(404, f"no such path: {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"method {method} not allowed; use {expected}")

    # -- handlers ----------------------------------------------------------

    def _submit(self, kind: str, body: bytes) -> Dict[str, object]:
        request = self._json_body(body)
        if kind == "sweep":
            campaign = request.get("sweep")
            missing = "'sweep'"
        elif kind == "run":
            campaign = request.get("scenario")
            missing = "'scenario'"
        else:  # optimize takes either a single scenario or a sweep
            campaign = request.get("scenario", request.get("sweep"))
            missing = "'scenario' or 'sweep'"
        if campaign is None:
            raise _HttpError(400, f"request must carry {missing}")
        try:
            job, resubmitted = self.service.submit(
                kind,
                campaign,
                solver=request.get("solver"),
                fresh=bool(request.get("fresh", False)),
            )
        except QueueFullError as error:
            raise _HttpError(429, str(error))
        document = job.to_dict()
        document["resubmitted"] = resubmitted
        return document

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, object]:
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _HttpError(400, f"request body is not JSON: {error}")
        if not isinstance(request, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return request

    def _predict(self, body: bytes) -> Dict[str, object]:
        request = self._json_body(body)
        scenario = request.get("scenario")
        if scenario is None:
            raise _HttpError(400, "request must carry 'scenario'")
        threshold = request.get("exact_if_std_above")
        if threshold is not None:
            try:
                threshold = float(threshold)
            except (TypeError, ValueError):
                raise _HttpError(
                    400, "'exact_if_std_above' must be a number"
                ) from None
        try:
            return self.service.predict(
                scenario,
                exact_if_std_above=threshold,
                target=request.get("target"),
                solver=request.get("solver"),
            )
        except QueueFullError as error:
            raise _HttpError(429, str(error)) from None
        except ValueError as error:
            raise _HttpError(400, str(error)) from None

    def _fit(self, body: bytes) -> Dict[str, object]:
        request = self._json_body(body)
        job_ids = request.get("job_ids")
        if job_ids is not None and (
            not isinstance(job_ids, list)
            or not all(isinstance(item, str) for item in job_ids)
        ):
            raise _HttpError(400, "'job_ids' must be a list of job id strings")
        targets = request.get("targets")
        if targets is not None and (
            not isinstance(targets, list)
            or not all(isinstance(item, str) for item in targets)
        ):
            raise _HttpError(400, "'targets' must be a list of metric paths")
        try:
            return self.service.fit_surrogate(
                job_ids=job_ids,
                model=str(request.get("model", "gp")),
                targets=targets,
            )
        except KeyError as error:
            raise _HttpError(404, str(error).strip("'\"")) from None
        except ValueError as error:
            raise _HttpError(400, str(error)) from None

    async def _stream_records(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        records = await asyncio.to_thread(self.service.job_records, job_id)
        payload = b"".join(
            (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            for record in records
        )
        await self._send_response(
            writer, 200, payload, "application/x-ndjson"
        )
