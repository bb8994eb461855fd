"""A stdlib client for the experiment server.

:class:`ServerClient` wraps ``urllib`` so the load harness, the chaos
drill, and tests all speak to ``repro serve`` the same way.  HTTP error
statuses are returned as values, not raised -- load and chaos callers
need to *count* 429s and connection drops, and an exception-per-shed
harness would be the tail wagging the dog.  Transport failures
(connection refused, reset mid-response -- the ``server.accept`` /
``server.respond`` fault sites look exactly like this) come back as
status ``0``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class Response:
    """One HTTP exchange, flattened for counting."""

    status: int
    body: Dict[str, Any] = field(default_factory=dict)
    retry_after_s: Optional[int] = None
    #: Transport-level failure detail when ``status == 0``.
    transport_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def shed(self) -> bool:
        """Load-shedding responses: explicit, retryable refusals."""
        return self.status in (429, 503) and self.retry_after_s is not None

    @property
    def dropped(self) -> bool:
        return self.status == 0


class ServerClient:
    """Thin JSON client; one instance per target server."""

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # ------------------------------------------------------------- #

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Response:
        data = json.dumps(body).encode() if body is not None else None
        headers: Dict[str, str] = (
            {"Content-Type": "application/json"} if data is not None else {}
        )
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers=headers,
        )
        timeout = timeout_s if timeout_s is not None else self.timeout_s
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                response = self._parse(resp.status, resp)
        except urllib.error.HTTPError as exc:
            # 4xx/5xx with a real response: parse it like any other.
            response = self._parse(exc.code, exc)
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            response = Response(
                status=0,
                transport_error=f"{type(exc).__name__}: {exc}",
            )
        return response

    @staticmethod
    def _parse(status: int, resp: Any) -> Response:
        retry_after: Optional[int] = None
        raw_retry = resp.headers.get("Retry-After")
        if raw_retry is not None:
            try:
                retry_after = int(raw_retry)
            except ValueError:
                retry_after = None
        raw = resp.read() or b""
        try:
            body = json.loads(raw or b"{}")
        except ValueError:
            body = {}
        if not isinstance(body, dict):
            body = {"body": body}
        return Response(status=status, body=body, retry_after_s=retry_after)

    # ------------------------------------------------------------- #
    # Endpoint wrappers

    def submit(
        self,
        spec: Dict[str, Any],
        deadline_s: Optional[float] = None,
    ) -> Response:
        body: Dict[str, Any] = {"spec": spec}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        return self.request("POST", "/v1/experiments", body=body)

    def status(self, job_id: str) -> Response:
        return self.request("GET", f"/v1/experiments/{job_id}")

    def result(self, job_id: str) -> Response:
        return self.request("GET", f"/v1/experiments/{job_id}/result")

    def cancel(self, job_id: str) -> Response:
        return self.request("DELETE", f"/v1/experiments/{job_id}")

    def jobs(self) -> Response:
        return self.request("GET", "/v1/jobs")

    def stats(self) -> Response:
        return self.request("GET", "/v1/stats")

    def healthz(self) -> Response:
        return self.request("GET", "/healthz")

    def readyz(self) -> Response:
        return self.request("GET", "/readyz")

    # ------------------------------------------------------------- #

    def wait(
        self,
        job_id: str,
        timeout_s: float = 120.0,
        poll_s: float = 0.1,
    ) -> Response:
        """Poll until the job reaches a terminal state (or timeout);
        returns the final *result* response."""
        deadline = time.monotonic() + timeout_s
        while True:
            resp = self.result(job_id)
            # 202 = still pending; anything else is terminal (including
            # transport drops, which the caller must judge).
            if resp.status != 202:
                return resp
            if time.monotonic() >= deadline:
                return resp
            time.sleep(poll_s)

    def wait_ready(self, timeout_s: float = 10.0) -> bool:
        """Poll ``/readyz`` until the server answers ready."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            resp = self.readyz()
            if resp.ok and resp.body.get("ready"):
                return True
            time.sleep(0.05)
        return False
