"""``mrlbm serve``: a stdlib-only asyncio HTTP front end for the scheduler.

The server speaks a deliberately small HTTP/1.1 subset over a local TCP
port or a Unix-domain socket — requests are parsed by hand on asyncio
streams, every response closes its connection, and bodies are JSON
(event streams are newline-delimited JSON read until EOF). That keeps
the service inside the standard library while still being curl-able:

====== ============================== =====================================
Method Path                           Meaning
====== ============================== =====================================
GET    ``/healthz``                   liveness + pool/job counts
GET    ``/kinds``                     the registered problem kinds
POST   ``/jobs``                      submit a RunSpec payload
                                      (201 created / 200 coalesced)
GET    ``/jobs``                      list all jobs
GET    ``/jobs/<id>``                 one job's state
GET    ``/jobs/<id>/result``          sealed result (409 until done)
GET    ``/jobs/<id>/events``          the job's event-bus lines as
                                      ndjson; ``?follow=1`` tails the
                                      live run until it finishes
POST   ``/shutdown``                  graceful stop
====== ============================== =====================================

Submission payloads are validated by
:func:`repro.service.jobs.spec_from_dict`; validation errors come back
as ``400 {"error": ...}``, which is also how unknown problem kinds
surface (the kind table raises at RunSpec construction). The server
validates, fingerprints and queues with the numpy-free
:mod:`repro.spec`: numpy, the descriptors and the cores load only in the
job processes (:mod:`repro.service.jobproc`).
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
from urllib.parse import parse_qs, urlsplit

from ..obs.events import iter_event_lines
from ..spec import get_problem, problem_kinds
from .jobs import JobScheduler, spec_from_dict

__all__ = ["JobServer"]

_MAX_BODY = 8 * 1024 * 1024


class _HttpError(Exception):
    """Routing-level error carrying an HTTP status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _refuse_live(path: str) -> None:
    """Raise ``OSError`` if a server accepts connections on ``path``."""
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.connect(path)
    except OSError:
        return                  # no file, or a stale one: bind replaces it
    finally:
        probe.close()
    raise OSError(f"a server is already listening on {path}; stop it or "
                  f"pick another --uds path")


class JobServer:
    """Serve a :class:`~repro.service.jobs.JobScheduler` over local HTTP.

    Parameters
    ----------
    scheduler:
        The scheduler to front. :meth:`start` starts it too, once the
        socket is bound, so one ``await JobServer(...).start()`` brings
        the whole service up.
    host, port:
        TCP bind address; ``port=0`` picks an ephemeral port (read the
        resolved one back from :attr:`address`). Ignored when ``uds``
        is set.
    uds:
        Path of a Unix-domain socket to bind instead of TCP.
    """

    def __init__(self, scheduler: JobScheduler, host: str = "127.0.0.1",
                 port: int = 0, uds: str | None = None):
        self.scheduler = scheduler
        self.host = host
        self.port = int(port)
        self.uds = uds
        self._server: asyncio.AbstractServer | None = None
        self._bound: tuple[int, int] | None = None   # the uds's inode
        self._stop = asyncio.Event()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "JobServer":
        """Bind the listening socket, start the scheduler, then serve.

        The bind comes first, so a busy port, or a live server answering
        on ``uds`` (binding would unlink its socket and leave it
        unreachable), raises ``OSError`` before any job process is
        forked; a socket file nobody listens on is replaced. The job
        processes forked after the bind close the socket they inherit.
        A failed scheduler start releases the socket again.
        """
        if self.uds is not None:
            _refuse_live(self.uds)
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.uds, start_serving=False)
            stat = os.stat(self.uds)
            self._bound = stat.st_dev, stat.st_ino
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port,
                start_serving=False)
            self.port = self._server.sockets[0].getsockname()[1]
        try:
            await self.scheduler.start()
            await self._server.start_serving()
        except BaseException:
            await self.close()
            raise
        return self

    @property
    def address(self) -> str:
        """The client-usable address: ``host:port`` or the socket path."""
        return self.uds if self.uds is not None else f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Block until :meth:`close` (or ``POST /shutdown``)."""
        await self._stop.wait()

    async def close(self) -> None:
        """Stop accepting, shut the scheduler down, release the socket.

        A ``uds`` path is unlinked while it still names the socket this
        server bound (another server may have replaced it since).
        """
        self._stop.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            try:
                stat = os.stat(self.uds) if self.uds is not None else None
                if stat and (stat.st_dev, stat.st_ino) == self._bound:
                    os.unlink(self.uds)
            except OSError:
                pass
        await self.scheduler.close()

    # -- request plumbing ----------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Parse one request, route it, send one response, close."""
        try:
            method, path, query, body = await self._read_request(reader)
        except (_HttpError, asyncio.IncompleteReadError, ValueError) as exc:
            status = exc.status if isinstance(exc, _HttpError) else 400
            await self._send_json(writer, status, {"error": str(exc) or
                                                   "malformed request"})
            return
        try:
            await self._route(method, path, query, body, writer)
        except _HttpError as exc:
            await self._send_json(writer, exc.status, {"error": str(exc)})
        except ConnectionError:
            pass
        except Exception as exc:  # don't let one request kill the server
            try:
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"})
            except Exception:
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """Parse the request line, headers and (length-delimited) body."""
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise _HttpError(413, f"body of {length} bytes is too large")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return method.upper(), split.path, query, body

    @staticmethod
    async def _send_json(writer: asyncio.StreamWriter, status: int,
                         payload: dict) -> None:
        """Send one JSON response and close the connection."""
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        reason = {200: "OK", 201: "Created", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  409: "Conflict", 413: "Payload Too Large",
                  500: "Internal Server Error"}.get(status, "?")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body)
        try:
            await writer.drain()
        finally:
            writer.close()

    # -- routes --------------------------------------------------------
    async def _route(self, method: str, path: str, query: dict, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        """Dispatch one parsed request to its endpoint."""
        sched = self.scheduler
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, {
                "ok": True, "workers": sched.workers,
                "jobs": len(sched.jobs),
                "runs_executed": sched.runs_executed})
            return
        if path == "/kinds" and method == "GET":
            kinds = {name: get_problem(name).description
                     for name in problem_kinds()}
            await self._send_json(writer, 200, {"kinds": kinds})
            return
        if path == "/jobs" and method == "POST":
            try:
                payload = json.loads(body.decode("utf-8") or "null")
                spec, n_steps = spec_from_dict(payload)
            except (ValueError, UnicodeDecodeError) as exc:
                raise _HttpError(400, str(exc)) from None
            job, created = sched.submit(spec, n_steps)
            await self._send_json(writer, 201 if created else 200, {
                "job": job.to_dict(), "created": created})
            return
        if path == "/jobs" and method == "GET":
            await self._send_json(writer, 200, {
                "jobs": [j.to_dict() for j in sched.list()]})
            return
        if path == "/shutdown" and method == "POST":
            await self._send_json(writer, 200, {"ok": True,
                                                "shutting_down": True})
            self._stop.set()
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):].split("/")
            job = sched.get(rest[0])
            if job is None:
                raise _HttpError(404, f"no such job {rest[0]!r}")
            if len(rest) == 1 and method == "GET":
                await self._send_json(writer, 200, job.to_dict())
                return
            if rest[1:] == ["result"] and method == "GET":
                if job.state != "done":
                    raise _HttpError(
                        409, f"job {job.id} is {job.state}, not done")
                await self._send_json(writer, 200, {
                    "job": job.to_dict(), "result": job.result})
                return
            if rest[1:] == ["events"] and method == "GET":
                follow = query.get("follow") in ("1", "true", "yes")
                await self._stream_events(writer, job, follow)
                return
        raise _HttpError(404 if method == "GET" else 405,
                         f"no route for {method} {path}")

    async def _stream_events(self, writer: asyncio.StreamWriter, job,
                             follow: bool, poll_s: float = 0.2) -> None:
        """Stream a job's event-bus lines as close-delimited ndjson.

        Without ``follow`` this dumps whatever the run directory holds
        right now; with it, the stream keeps tailing the per-rank event
        files until the job reaches a terminal state — with one final
        drain after, so the last heartbeat/end lines are never lost.
        """
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        offsets: dict = {}
        try:
            while True:
                terminal = job.state in ("done", "failed")
                for line in iter_event_lines(job.dir, offsets):
                    writer.write(line.encode() + b"\n")
                await writer.drain()
                if not follow or terminal:
                    break
                await asyncio.sleep(poll_s)
        except ConnectionError:
            pass
        finally:
            writer.close()
