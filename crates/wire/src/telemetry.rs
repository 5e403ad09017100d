//! Live shard telemetry riding the collector push protocol.
//!
//! A fleet shard that streams partial campaign state to `collectord`
//! can attach a [`ShardTelemetry`] document to each push: current
//! throughput, per-worker rates, the devices held past the head
//! segment, and the engine's self-profiling phase split
//! ([`obs::prof`]). The field is **optional and backward compatible**
//! — old daemons ignore it, old clients simply never send it — and it
//! never touches the campaign *state* payload, so the byte-identical
//! determinism contract over merged reports is unaffected.

use obs::Json;

/// One shard's live engine telemetry at push time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardTelemetry {
    /// Devices completed per wall-clock second over the whole run so
    /// far (0 until the first device lands).
    pub devices_per_sec: f64,
    /// Worker threads driving this shard.
    pub workers: u64,
    /// Devices completed per worker thread, same order as spawned.
    pub per_worker_devices: Vec<u64>,
    /// Devices held past the head segment at push time: run and
    /// handed over, waiting for an earlier segment to complete.
    pub queue_depth: u64,
    /// Self-nanoseconds per engine phase (flat, cross-thread), sorted
    /// by descending cost. Empty when the shard runs unprofiled.
    pub phase_self_ns: Vec<(String, u64)>,
}

impl ShardTelemetry {
    /// Serialize for the optional `telemetry` field of a push document.
    pub fn to_json(&self) -> Json {
        let mut workers = Json::array();
        for n in &self.per_worker_devices {
            workers.push(*n);
        }
        let mut phases = Json::array();
        for (name, ns) in &self.phase_self_ns {
            let mut p = Json::object();
            p.set("phase", name);
            p.set("self_ns", *ns);
            phases.push(p);
        }
        let mut doc = Json::object();
        doc.set("devices_per_sec", self.devices_per_sec);
        doc.set("workers", self.workers);
        doc.set("per_worker_devices", workers);
        doc.set("queue_depth", self.queue_depth);
        doc.set("phases", phases);
        doc
    }

    /// Parse the `telemetry` field of a push document. Lenient: any
    /// missing or mistyped field falls back to its default, so a
    /// newer/older peer never turns telemetry into a push rejection.
    pub fn from_json(doc: &Json) -> ShardTelemetry {
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let per_worker_devices = doc
            .get("per_worker_devices")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_f64)
                    .map(|v| v.max(0.0) as u64)
                    .collect()
            })
            .unwrap_or_default();
        let phase_self_ns = doc
            .get("phases")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|p| {
                        let name = p.get("phase")?.as_str()?.to_string();
                        let ns = p.get("self_ns")?.as_f64()?.max(0.0) as u64;
                        Some((name, ns))
                    })
                    .collect()
            })
            .unwrap_or_default();
        ShardTelemetry {
            devices_per_sec: num("devices_per_sec"),
            workers: num("workers").max(0.0) as u64,
            per_worker_devices,
            queue_depth: num("queue_depth").max(0.0) as u64,
            phase_self_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_round_trips() {
        let t = ShardTelemetry {
            devices_per_sec: 123.5,
            workers: 4,
            per_worker_devices: vec![10, 12, 9, 11],
            queue_depth: 3,
            phase_self_ns: vec![("des".to_string(), 900), ("setup".to_string(), 100)],
        };
        let back = ShardTelemetry::from_json(&Json::parse(&t.to_json().to_string()).unwrap());
        assert_eq!(back, t);
    }

    #[test]
    fn parsing_is_lenient_about_missing_fields() {
        let t = ShardTelemetry::from_json(&Json::parse("{}").unwrap());
        assert_eq!(t, ShardTelemetry::default());
        let t = ShardTelemetry::from_json(
            &Json::parse(r#"{"devices_per_sec":"oops","phases":[{"phase":"des"}]}"#).unwrap(),
        );
        assert_eq!(t.devices_per_sec, 0.0);
        assert!(t.phase_self_ns.is_empty());
    }
}
