"""Minimal HTTP JSON transport for the real provider adapters.

Kept in one place so tests and the mock-mode network assertion can
monkeypatch a single entry point.
"""

from __future__ import annotations

import http.client
import math
import urllib.error
import urllib.request

from .errors import ProviderError
from .jsonio import dumps, loads

RETRYABLE_STATUSES = frozenset({408, 429, 500, 502, 503, 504})
# Statuses whose Retry-After header says how long to back off.
RETRY_AFTER_STATUSES = frozenset({429, 503})


def _retry_after(exc: urllib.error.HTTPError) -> float | None:
    """Seconds from the Retry-After header of a 429 or 503 response.

    Only the delay-seconds form is read; an HTTP-date, a malformed value or
    a missing header gives None, and the retry policy's delay applies alone.
    """
    if exc.code not in RETRY_AFTER_STATUSES or exc.headers is None:
        return None
    try:
        seconds = float(exc.headers.get("Retry-After", ""))
    except ValueError:
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


def http_post_json(url: str, payload: dict, headers: dict[str, str], timeout: float = 60.0) -> dict:
    """POST a JSON payload and return the decoded JSON response body."""
    request = urllib.request.Request(
        url, data=dumps(payload), headers={"Content-Type": "application/json", **headers}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            data = resp.read()
    except urllib.error.HTTPError as exc:
        raise ProviderError(exc.code, exc.reason or "HTTP error", retryable=exc.code in RETRYABLE_STATUSES,
                            retry_after=_retry_after(exc)) from exc
    except urllib.error.URLError as exc:
        raise ProviderError(0, f"network error: {exc.reason}", retryable=True) from exc
    except (OSError, http.client.HTTPException) as exc:
        # urllib wraps only errors from sending the request; a timeout, reset
        # or short body while the response is read arrives as itself.
        raise ProviderError(0, f"network error: {type(exc).__name__}: {exc}", retryable=True) from exc
    try:
        return loads(data)
    except ValueError as exc:
        raise ProviderError(0, f"provider returned undecodable body: {exc}", retryable=False) from exc
