//! The push protocol: JSON documents in length-prefixed frames
//! ([`wire::framing`]).
//!
//! One message per frame, tagged by a `type` field:
//!
//! * `push` (client → daemon): a cumulative campaign-state partial for
//!   one shard — `{"type":"push","shard":"0/2","final":false,"state":{…}}`
//!   where `state` is a full [`fleet::Collector::state_json`] document
//!   covering the shard's contiguous prefix so far. `final: true` marks
//!   the shard's slice complete.
//! * `ack` (daemon → client): the push was accepted —
//!   `{"type":"ack","status":"absorbed","devices_absorbed":100,
//!   "devices_view":150,"complete":false}`.
//! * `error` (daemon → client): the push was rejected with a typed
//!   [`IngestError`] — `{"type":"error","code":"spec-mismatch",
//!   "message":"…"}`.
//!
//! The daemon never trusts the frame: every failure mode (non-JSON
//! payload, missing fields, a state document from the wrong campaign,
//! out-of-range or overlapping device slices) maps to a distinct
//! [`IngestError`] variant whose `code` travels back on the wire.

use obs::Json;

/// A typed rejection of one push. The daemon answers with the
/// [`IngestError::code`] and message; the campaign state it holds is
/// untouched by a rejected push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The frame payload is not a well-formed `push` document.
    BadFrame(String),
    /// The embedded campaign-state document does not parse.
    BadState(String),
    /// The state belongs to a different campaign (seed or
    /// [`fleet::CampaignSpec::fingerprint`] mismatch).
    SpecMismatch(String),
    /// The state's device slice falls outside the campaign population.
    RangeOutOfBounds {
        /// First device index of the pushed slice.
        start: u64,
        /// One past the last device index of the pushed slice.
        end: u64,
        /// Campaign population size.
        devices: u64,
    },
    /// The state's device slice overlaps a slice already absorbed or
    /// pending from a different shard.
    Overlap {
        /// First device index of the pushed slice.
        start: u64,
        /// Devices the pushed slice covers.
        devices: u64,
    },
    /// The daemon could not journal the push durably (`--state-dir`
    /// write failed). Retryable: the shard's next cumulative push
    /// covers the same devices.
    Storage(String),
    /// The connection sat idle (or mid-frame) past the daemon's ingest
    /// read/write timeout and was dropped. Retryable: reconnect and
    /// re-push.
    ConnTimeout,
}

impl IngestError {
    /// Stable wire code for this error variant.
    pub fn code(&self) -> &'static str {
        match self {
            IngestError::BadFrame(_) => "bad-frame",
            IngestError::BadState(_) => "bad-state",
            IngestError::SpecMismatch(_) => "spec-mismatch",
            IngestError::RangeOutOfBounds { .. } => "range-out-of-bounds",
            IngestError::Overlap { .. } => "overlap",
            IngestError::Storage(_) => "storage",
            IngestError::ConnTimeout => "conn-timeout",
        }
    }

    /// Whether a client should retry after this rejection. Transient
    /// daemon-side conditions (journal write failure, idle-timeout
    /// disconnect) clear on their own; everything else means the push
    /// itself is wrong and a re-send can only fail identically.
    pub fn is_retryable(&self) -> bool {
        matches!(self, IngestError::Storage(_) | IngestError::ConnTimeout)
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::BadFrame(m) => write!(f, "bad push frame: {m}"),
            IngestError::BadState(m) => write!(f, "bad campaign state: {m}"),
            IngestError::SpecMismatch(m) => write!(f, "campaign spec mismatch: {m}"),
            IngestError::RangeOutOfBounds {
                start,
                end,
                devices,
            } => write!(
                f,
                "device slice {start}..{end} is out of bounds for a {devices}-device campaign"
            ),
            IngestError::Overlap { start, devices } => write!(
                f,
                "device slice starting at {start} ({devices} devices) overlaps \
                 an already-ingested slice"
            ),
            IngestError::Storage(m) => write!(f, "ingest journal write failed: {m}"),
            IngestError::ConnTimeout => {
                write!(f, "ingest connection timed out waiting for a frame")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// What the daemon did with an accepted push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The final slice folded into the merged campaign state.
    Absorbed,
    /// The non-final slice is held, until a newer push for the same
    /// slice (or its final) replaces it.
    Buffered,
    /// The exact slice was already ingested — idempotent no-op.
    Duplicate,
    /// A cumulative push older than what the daemon already holds for
    /// that shard — dropped, the newer state wins.
    Stale,
}

impl PushOutcome {
    /// Stable wire status for this outcome.
    pub fn status(&self) -> &'static str {
        match self {
            PushOutcome::Absorbed => "absorbed",
            PushOutcome::Buffered => "buffered",
            PushOutcome::Duplicate => "duplicate",
            PushOutcome::Stale => "stale",
        }
    }
}

/// The daemon's answer to an accepted push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// What happened to the pushed slice.
    pub outcome: PushOutcome,
    /// Devices in the final slices folded into the merged state.
    pub devices_absorbed: u64,
    /// Devices in the live view (merged + pending slices).
    pub devices_view: u64,
    /// Whether the whole campaign population has been absorbed.
    pub complete: bool,
}

/// One parsed `push` message.
#[derive(Debug, Clone)]
pub struct Push {
    /// Shard label (free-form; conventionally `"i/k"`).
    pub shard: String,
    /// Whether the shard's slice is complete.
    pub done: bool,
    /// The embedded campaign-state document.
    pub state: Json,
}

/// Build the wire document for one push.
pub fn push_doc(shard: &str, done: bool, state: &Json) -> Json {
    let mut doc = Json::object();
    doc.set("type", "push");
    doc.set("shard", shard);
    doc.set("final", done);
    doc.set("state", state.clone());
    doc
}

/// Parse a frame payload as a `push` message.
pub fn parse_push(payload: &[u8]) -> Result<Push, IngestError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| IngestError::BadFrame("payload is not UTF-8".to_string()))?;
    let doc = Json::parse(text)
        .map_err(|e| IngestError::BadFrame(format!("payload is not JSON: {e}")))?;
    match doc.get("type").and_then(Json::as_str) {
        Some("push") => {}
        Some(other) => {
            return Err(IngestError::BadFrame(format!(
                "expected a push message, got type `{other}`"
            )))
        }
        None => return Err(IngestError::BadFrame("missing `type` field".to_string())),
    }
    let shard = doc
        .get("shard")
        .and_then(Json::as_str)
        .ok_or_else(|| IngestError::BadFrame("missing `shard` field".to_string()))?
        .to_string();
    let done = match doc.get("final") {
        Some(Json::Bool(b)) => *b,
        _ => return Err(IngestError::BadFrame("missing `final` field".to_string())),
    };
    let state = doc
        .get("state")
        .cloned()
        .ok_or_else(|| IngestError::BadFrame("missing `state` field".to_string()))?;
    // Any other field (a `telemetry` document from an older shard, say)
    // is ignored.
    Ok(Push { shard, done, state })
}

/// Build the wire document for an ack.
pub fn ack_doc(ack: &Ack) -> Json {
    let mut doc = Json::object();
    doc.set("type", "ack");
    doc.set("status", ack.outcome.status());
    doc.set("devices_absorbed", ack.devices_absorbed);
    doc.set("devices_view", ack.devices_view);
    doc.set("complete", ack.complete);
    doc
}

/// Build the wire document for a typed rejection.
pub fn error_doc(err: &IngestError) -> Json {
    let mut doc = Json::object();
    doc.set("type", "error");
    doc.set("code", err.code());
    doc.set("message", err.to_string());
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_round_trips() {
        let mut state = Json::object();
        state.set("format", "acutemon-fleet-campaign-state");
        let doc = push_doc("1/2", true, &state);
        let p = parse_push(doc.to_string().as_bytes()).unwrap();
        assert_eq!(p.shard, "1/2");
        assert!(p.done);
        assert_eq!(
            p.state.get("format").and_then(Json::as_str),
            Some("acutemon-fleet-campaign-state")
        );
    }

    /// A shard built before the push lost its `telemetry` field still
    /// sends one, well-formed or not; the daemon ignores it, so such a
    /// push parses and is answered exactly like the same push without.
    #[test]
    fn telemetry_rides_the_push_optionally() {
        let spec = fleet::CampaignSpec::heterogeneous(3, 8).with_probes(1);
        let (part, _) = fleet::run_partition(&spec, 1, 0, 2);
        let state = part.state_json();
        let outcome = |doc: &Json| {
            let p = parse_push(doc.to_string().as_bytes()).unwrap();
            let ack = crate::Ingest::new(spec.clone())
                .push(&p.shard, &p.state, p.done, 0)
                .unwrap();
            (p.shard, p.done, p.state.to_string(), ack)
        };
        for done in [false, true] {
            let plain = push_doc("0/2", done, &state);
            let expected = outcome(&plain);
            assert_eq!(expected.3.devices_view, 4);
            for telemetry in [
                r#"{"devices_per_sec":123.5,"workers":2,"per_worker_devices":[7,5],
                    "queue_depth":3,"phases":[{"phase":"des","self_ns":42}]}"#,
                r#"{"devices_per_sec":"oops","phases":[{"phase":"des"}]}"#,
                "null",
            ] {
                let mut legacy = plain.clone();
                legacy.set("telemetry", Json::parse(telemetry).unwrap());
                assert_eq!(outcome(&legacy), expected, "telemetry {telemetry}");
            }
        }
    }

    #[test]
    fn bad_frames_are_typed() {
        assert_eq!(parse_push(&[0xFF, 0xFE]).unwrap_err().code(), "bad-frame");
        assert_eq!(parse_push(b"not json").unwrap_err().code(), "bad-frame");
        assert_eq!(parse_push(b"{}").unwrap_err().code(), "bad-frame");
        assert_eq!(
            parse_push(br#"{"type":"ack"}"#).unwrap_err().code(),
            "bad-frame"
        );
        assert_eq!(
            parse_push(br#"{"type":"push","shard":"0/1"}"#)
                .unwrap_err()
                .code(),
            "bad-frame"
        );
    }

    #[test]
    fn error_docs_carry_code_and_message() {
        let e = IngestError::Overlap {
            start: 10,
            devices: 5,
        };
        let doc = error_doc(&e);
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("overlap"));
        assert!(doc
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("overlaps"));
    }
}
