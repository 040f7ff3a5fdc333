"""A local chat-completions endpoint for the live-provider tests."""

from __future__ import annotations

import http.server
import json
import threading

YES_PAYLOAD = {"choices": [{"message": {"content": "Yes"}}]}


class GatewayStub:
    """Local chat-completions endpoint driven by a scripted response list."""

    def __init__(self, script):
        self.script = list(script)
        self.requests: list[dict] = []
        self.headers: list[dict] = []
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802  (stdlib handler naming)
                length = int(self.headers.get("Content-Length", "0"))
                stub.requests.append(json.loads(self.rfile.read(length)))
                stub.headers.append(dict(self.headers))
                status, payload = (
                    stub.script.pop(0) if stub.script else (200, YES_PAYLOAD)
                )
                body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # keep pytest output clean
                pass

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll interval: shutdown waits for the serving loop's next poll.
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.05,), daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat/completions"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
