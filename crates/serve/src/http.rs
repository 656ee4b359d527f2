//! A deliberately small HTTP/1.1 responder: the fallback face of the
//! server for clients that don't speak the binary protocol, and the
//! scrape surface for Prometheus.
//!
//! Routes:
//!
//! * `GET /metrics` — the registry in Prometheus text format 0.0.4.
//! * `GET /healthz` — `ok` while the server is up, `draining` once
//!   shutdown has begun (load balancers stop routing before the listener
//!   goes away).
//! * `POST /query` — body `{"query": "...", "tenant": "..."}` (tenant
//!   optional); answers `{"epoch": N, "names": [...], "rows": [[...]]}`
//!   or `{"error": {"code": "...", "message": "..."}}`.
//!
//! One request per connection (`Connection: close`): the HTTP face is
//! for scrapes and smoke tests, not for throughput — sustained clients
//! use the binary protocol, which keeps a session (and its caches)
//! alive across requests.
//!
//! Hand-rolled on purpose: the workspace vendors no HTTP stack, and the
//! subset needed here — one request line, a handful of headers, a
//! `Content-Length` body — is small enough that a dependency would cost
//! more than these ~100 lines. Limits are enforced while reading
//! (header block ≤ 16 KiB, body ≤ 1 MiB), so an adversarial client
//! cannot balloon memory through the HTTP face either.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use loosedb_browse::Snapshots;

use crate::protocol::{ErrorCode, Request, Response};
use crate::server::{dispatch, open_session, Inner};

/// Largest accepted header block.
const MAX_HEAD: usize = 16 * 1024;

/// Largest accepted request body.
const MAX_BODY: usize = 1024 * 1024;

/// Handles one HTTP connection end to end; `POST /query` reads `db`.
pub(crate) fn handle<P: Snapshots>(inner: &Inner, mut stream: TcpStream, db: &Arc<P>) {
    let metrics = inner.metrics();
    metrics.serve_http_requests.inc();
    let deadline = Instant::now() + inner.config.idle_timeout;

    // Read the head (request line + headers) up to the blank line.
    let mut raw = Vec::new();
    let mut tmp = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_blank_line(&raw) {
            break pos;
        }
        if raw.len() > MAX_HEAD {
            respond(&mut stream, inner, 431, "text/plain", "header block too large\n");
            return;
        }
        if inner.stopping() || Instant::now() > deadline {
            return;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => {
                metrics.serve_bytes_in.add(n as u64);
                raw.extend_from_slice(&tmp[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    };

    let Ok(head) = std::str::from_utf8(&raw[..head_end]) else {
        metrics.serve_protocol_errors.inc();
        respond(&mut stream, inner, 400, "text/plain", "malformed request\n");
        return;
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        metrics.serve_protocol_errors.inc();
        respond(&mut stream, inner, 400, "text/plain", "malformed request line\n");
        return;
    };
    let content_length: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        respond(&mut stream, inner, 413, "text/plain", "body too large\n");
        return;
    }

    // The body: whatever followed the blank line, then the wire.
    let mut body = raw[head_end + 4..].to_vec();
    while body.len() < content_length {
        if inner.stopping() || Instant::now() > deadline {
            return;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => {
                metrics.serve_bytes_in.add(n as u64);
                body.extend_from_slice(&tmp[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }

    match (method, path) {
        ("GET", "/metrics") => {
            let text = loosedb_obs::prometheus_text(metrics.registry());
            respond(&mut stream, inner, 200, "text/plain; version=0.0.4", &text);
        }
        ("GET", "/healthz") => {
            let body = if inner.stopping() { "draining\n" } else { "ok\n" };
            respond(
                &mut stream,
                inner,
                if inner.stopping() { 503 } else { 200 },
                "text/plain",
                body,
            );
        }
        ("POST", "/query") => {
            let Ok(body) = std::str::from_utf8(&body) else {
                respond(&mut stream, inner, 400, "text/plain", "body is not UTF-8\n");
                return;
            };
            let Some(query) = json_string_field(body, "query") else {
                respond(&mut stream, inner, 400, "application/json",
                    "{\"error\":{\"code\":\"malformed\",\"message\":\"missing \\\"query\\\" field\"}}\n");
                return;
            };
            let tenant = json_string_field(body, "tenant").unwrap_or_default();
            run_query(inner, &mut stream, db, &tenant, &query);
        }
        _ => respond(&mut stream, inner, 404, "text/plain", "not found\n"),
    }
}

/// Runs one query through a throwaway session under the tenant's quota
/// and answers JSON.
fn run_query<P: Snapshots>(
    inner: &Inner,
    stream: &mut TcpStream,
    db: &Arc<P>,
    tenant: &str,
    query: &str,
) {
    let metrics = Arc::clone(inner.metrics());
    let quota = inner.config.tenants.get(tenant).copied().unwrap_or(inner.config.default_quota);
    let waited = inner.bucket_for(tenant).acquire();
    if !waited.is_zero() {
        metrics.serve_throttled.inc();
        metrics.serve_throttle_ns.record_duration(waited);
    }
    let mut session = open_session(db, quota.max_rows);
    let started = Instant::now();
    let response = dispatch(inner, &mut session, &Request::Query { text: query.into() }, &metrics);
    metrics.serve_requests.inc();
    metrics.serve_request_ns.record_duration(started.elapsed());
    match response {
        Response::Rows { epoch, names, rows } => {
            let mut out = String::with_capacity(256);
            out.push_str(&format!("{{\"epoch\":{epoch},\"names\":["));
            for (i, n) in names.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(n));
            }
            out.push_str("],\"rows\":[");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, cell) in row.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(cell));
                }
                out.push(']');
            }
            out.push_str("]}\n");
            respond(stream, inner, 200, "application/json", &out);
        }
        Response::Fail { code, message } => {
            let status = match code {
                ErrorCode::Parse | ErrorCode::UnknownEntity | ErrorCode::Malformed => 400,
                ErrorCode::TooManyRows => 422,
                ErrorCode::ShuttingDown => 503,
                _ => 500,
            };
            let body = format!(
                "{{\"error\":{{\"code\":{},\"message\":{}}}}}\n",
                json_string(&format!("{code:?}")),
                json_string(&message),
            );
            respond(stream, inner, status, "application/json", &body);
        }
        _ => respond(stream, inner, 500, "text/plain", "unexpected response\n"),
    }
}

fn respond(stream: &mut TcpStream, inner: &Inner, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    inner.metrics().serve_bytes_out.add((head.len() + body.len()) as u64);
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Position of the `\r\n\r\n` separating head from body.
fn find_blank_line(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Extracts a top-level string field from a JSON object without a JSON
/// stack: scan for `"key"`, a colon, then decode one JSON string.
/// Handles the escapes a query text can contain; nested objects with a
/// same-named field would confuse it, which the two fixed single-level
/// bodies this server accepts never have.
fn json_string_field(body: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let mut chars = rest.strip_prefix('"')?.chars();
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000C}'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Encodes a Rust string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_extraction_round_trips_escapes() {
        let body = r#"{"tenant": "acme", "query": "Q(?x) := (?x, \"EARNS\", ?y)\n"}"#;
        assert_eq!(json_string_field(body, "tenant").as_deref(), Some("acme"));
        assert_eq!(
            json_string_field(body, "query").as_deref(),
            Some("Q(?x) := (?x, \"EARNS\", ?y)\n")
        );
        assert_eq!(json_string_field(body, "missing"), None);
        assert_eq!(json_string_field(r#"{"q": "A"}"#, "q").as_deref(), Some("A"));
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
