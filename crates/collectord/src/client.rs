//! The shard-side push client: connect once, push cumulative campaign
//! state, read the typed ack. Used by `repro fleet --push-to` (via the
//! reconnecting [`crate::resilient`] wrapper) and by the end-to-end
//! tests.

use std::io::{Read, Write};
use std::net::TcpStream;

use fleet::Collector;
use obs::Json;
use wire::framing::{read_frame, write_frame, FrameError};

use crate::protocol::{push_doc, Ack, PushOutcome};

/// A failed push, as seen by the client.
#[derive(Debug)]
pub enum PushError {
    /// The TCP connection could not be established or died mid-push.
    Io(std::io::Error),
    /// Framing broke (torn frame, oversized reply).
    Frame(FrameError),
    /// The daemon answered with something that is not an ack or error.
    BadReply(String),
    /// The daemon rejected the push with a typed error.
    Rejected {
        /// Stable wire code ([`crate::protocol::IngestError::code`]).
        code: String,
        /// Human-readable rejection message.
        message: String,
    },
}

impl PushError {
    /// Whether retrying the same push (after reconnecting) can
    /// plausibly succeed.
    ///
    /// Transport failures — a dead connection, a torn frame, an
    /// unintelligible reply — are transient: pushes are cumulative and
    /// the daemon's ingest is idempotent, so a blind re-send is always
    /// safe. Typed daemon rejections are permanent *unless* the daemon
    /// itself says otherwise: `storage` (journal write failed) and
    /// `conn-timeout` clear on their own, while `spec-mismatch`,
    /// `overlap`, `range-out-of-bounds`, `bad-state`, and `bad-frame`
    /// mean the push is wrong and every retry would fail identically.
    pub fn is_retryable(&self) -> bool {
        match self {
            PushError::Io(_) | PushError::Frame(_) | PushError::BadReply(_) => true,
            PushError::Rejected { code, .. } => code == "storage" || code == "conn-timeout",
        }
    }
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Io(e) => write!(f, "push connection failed: {e}"),
            PushError::Frame(e) => write!(f, "push framing failed: {e}"),
            PushError::BadReply(m) => write!(f, "unintelligible daemon reply: {m}"),
            PushError::Rejected { code, message } => {
                write!(f, "daemon rejected push ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for PushError {}

impl From<std::io::Error> for PushError {
    fn from(e: std::io::Error) -> PushError {
        PushError::Io(e)
    }
}

impl From<FrameError> for PushError {
    fn from(e: FrameError) -> PushError {
        PushError::Frame(e)
    }
}

/// One persistent push connection to a collector daemon.
///
/// Generic over the byte stream so tests (and the chaos harness) can
/// splice a fault-injecting [`wire::chaos::ChaosStream`] between the
/// protocol and the socket; production code uses the [`TcpStream`]
/// default.
pub struct PushClient<S: Read + Write = TcpStream> {
    stream: S,
    shard: String,
}

impl PushClient<TcpStream> {
    /// Connect to the daemon's ingest listener at `addr`
    /// (`host:port`), identifying as `shard` (conventionally `"i/k"`).
    pub fn connect(addr: &str, shard: &str) -> Result<PushClient, PushError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(PushClient::from_stream(stream, shard))
    }
}

impl<S: Read + Write> PushClient<S> {
    /// Wrap an already-established byte stream as a push client.
    pub fn from_stream(stream: S, shard: &str) -> PushClient<S> {
        PushClient {
            stream,
            shard: shard.to_string(),
        }
    }

    /// Push one cumulative campaign-state partial. `done` marks the
    /// shard's slice complete; the last push of a shard must set it.
    pub fn push(&mut self, collector: &Collector, done: bool) -> Result<Ack, PushError> {
        let doc = push_doc(&self.shard, done, &collector.state_json());
        write_frame(&mut self.stream, doc.to_string().as_bytes())?;
        let reply = read_frame(&mut self.stream)?;
        parse_reply(&reply)
    }
}

fn parse_reply(payload: &[u8]) -> Result<Ack, PushError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| PushError::BadReply("reply is not UTF-8".to_string()))?;
    let doc =
        Json::parse(text).map_err(|e| PushError::BadReply(format!("reply is not JSON: {e}")))?;
    match doc.get("type").and_then(Json::as_str) {
        Some("ack") => {}
        Some("error") => {
            return Err(PushError::Rejected {
                code: doc
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: doc
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            })
        }
        other => {
            return Err(PushError::BadReply(format!(
                "expected ack or error, got type {other:?}"
            )))
        }
    }
    let outcome = match doc.get("status").and_then(Json::as_str) {
        Some("absorbed") => PushOutcome::Absorbed,
        Some("buffered") => PushOutcome::Buffered,
        Some("duplicate") => PushOutcome::Duplicate,
        Some("stale") => PushOutcome::Stale,
        other => return Err(PushError::BadReply(format!("unknown ack status {other:?}"))),
    };
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(Ack {
        outcome,
        devices_absorbed: num("devices_absorbed"),
        devices_view: num("devices_view"),
        complete: matches!(doc.get("complete"), Some(Json::Bool(true))),
    })
}
