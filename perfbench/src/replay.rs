//! The sequential in-process replay: the correctness oracle for every wire
//! run, and the traced run's source of per-layer numbers.
//!
//! The registry is built exactly as `qvsec-cli serve` builds it
//! (`qvsec_cli::parse_serve_spec` + `qvsec_cli::build_registry`). The
//! benchmark times its own calls into public functions — request decode,
//! `handle_request_traced`, response encode — and reads the program's
//! existing `qvsec-obs` stage spans from the summary dispatch returns.

use crate::lists::Plan;
use crate::server::Result;
use qvsec_serve::{handle_request_traced, SessionRegistry, WireRequest};
use qvsec_store::StoreConfig;
use serde_json::Value;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Builds the registry a server spec declares, as `serve` does; `store`
/// overrides the spec's store as `serve --store` does.
pub fn build_registry(spec: &Path, store: Option<StoreConfig>) -> Result<SessionRegistry> {
    let text =
        std::fs::read_to_string(spec).map_err(|e| format!("read {}: {e}", spec.display()))?;
    let mut spec = qvsec_cli::parse_serve_spec(&text).map_err(|e| format!("spec: {e}"))?;
    if store.is_some() {
        spec.store = store;
    }
    qvsec_cli::build_registry(&spec).map_err(|e| format!("registry: {e}"))
}

/// Sends `lines` through dispatch, requiring every answer to be `ok`.
pub fn run_setup(registry: &SessionRegistry, lines: &[String]) -> Result<()> {
    for line in lines {
        let (response, _) = qvsec_serve::handle_request(registry, line);
        if response.field("ok") != &Value::Bool(true) {
            return Err(format!(
                "set-up request {line} failed in-process: {response:?}"
            ));
        }
    }
    Ok(())
}

/// One replayed timed request.
#[derive(Debug, Clone)]
pub struct Record {
    /// `serde_json::parse` + `from_value::<WireRequest>` of the line.
    pub decode_ns: u64,
    /// `serde_json::to_string` of the response.
    pub encode_ns: u64,
    /// Encoded response bytes.
    pub response_bytes: usize,
    /// The program's stage spans for this request (empty with spans off).
    pub stages: Vec<(String, u64)>,
}

impl Record {
    /// Nanos recorded under `stage` (0 when no span of it closed).
    pub fn stage(&self, stage: &str) -> u64 {
        self.stages
            .iter()
            .find(|(s, _)| s == stage)
            .map_or(0, |(_, n)| *n)
    }
}

/// What a sequential replay of a plan's timed list produced.
#[derive(Debug)]
pub struct Replay {
    /// Response digests, in list order.
    pub digests: Vec<u64>,
    /// One record per timed request, in replay order.
    pub records: Vec<Record>,
    /// Wall time of the whole timed replay.
    pub wall_ns: u64,
}

fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replays the timed list one request at a time.
pub fn replay_timed(registry: &SessionRegistry, plan: &Plan) -> Result<Replay> {
    let mut digests = Vec::with_capacity(plan.timed.len());
    let mut records = Vec::with_capacity(plan.timed.len());
    let start = Instant::now();
    for req in &plan.timed {
        let t = Instant::now();
        let decoded =
            serde_json::parse(&req.line).and_then(|v| serde_json::from_value::<WireRequest>(&v));
        let decode_ns = nanos(t);
        black_box(decoded.map_err(|e| format!("decode {}: {e}", req.line))?);
        let (response, _, summary) = handle_request_traced(registry, None, black_box(&req.line));
        let t = Instant::now();
        let encoded = serde_json::to_string(&response).map_err(|e| format!("encode: {e}"))?;
        let encode_ns = nanos(t);
        records.push(Record {
            decode_ns,
            encode_ns,
            response_bytes: encoded.len(),
            stages: summary.map(|s| s.stages).unwrap_or_default(),
        });
        digests.push(digest(&encoded));
    }
    Ok(Replay {
        digests,
        records,
        wall_ns: nanos(start),
    })
}

/// The member the server appends, last, to a response whose request asked
/// for `"timing": true`.
const TIMING: &str = ",\"timing\":{\"total_nanos\":";

/// Digest of a response with its interleaving-dependent members removed:
/// `report.cache`, a delta of engine-global counters, and `timing`, which
/// only the traced wire pass asks for.
///
/// Responses are compact JSON in which `report.cache` is a flat object of
/// integers and `timing` is the last member, so both are cut out of the
/// text directly — parsing 30 KB witness lists twice per request would
/// cost more than serving them.
pub fn digest(response: &str) -> u64 {
    let response = match response.rfind(TIMING) {
        Some(at) => &response[..at],
        None => response.strip_suffix('}').unwrap_or(response),
    };
    let bytes = response.as_bytes();
    let cut = response.find("\"report\":{").and_then(|report| {
        let start = report + response[report..].find("\"cache\":{")?;
        let end = start + response[start..].find('}')? + 1;
        Some(match (bytes.get(end), bytes[start - 1]) {
            (Some(b','), _) => (start, end + 1),
            (_, b',') => (start - 1, end),
            _ => (start, end),
        })
    });
    match cut {
        Some((start, end)) => hash(&[&bytes[..start], &bytes[end..]]),
        None => hash(&[bytes]),
    }
}

/// The server's own handling nanos, from a response's `timing` member.
pub fn handled_nanos(response: &str) -> Option<u64> {
    let at = response.rfind(TIMING)? + TIMING.len();
    let digits = response[at..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(&response[at..], |end| &response[at..at + end]);
    digits.parse().ok()
}

/// A fast word-at-a-time hash (not adversarial: both sides are trusted).
fn hash(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut mix = |word: u64| {
        h = (h ^ word)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .rotate_left(29)
    };
    let joined: Vec<u8>;
    let bytes: &[u8] = match parts {
        [one] => one,
        _ => {
            joined = parts.concat();
            &joined
        }
    };
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix(u64::from_le_bytes(tail));
    mix(bytes.len() as u64);
    h
}

#[cfg(test)]
mod tests {
    use super::{digest, handled_nanos};

    #[test]
    fn digest_ignores_only_the_report_cache_member() {
        let a = r#"{"ok":true,"v":1,"report":{"secure":false,"cache":{"hits":1,"misses":2},"witnesses":["x"]}}"#;
        let b = r#"{"ok":true,"v":1,"report":{"secure":false,"cache":{"hits":7,"misses":0},"witnesses":["x"]}}"#;
        let c = r#"{"ok":true,"v":1,"report":{"secure":false,"witnesses":["x"]}}"#;
        let d = r#"{"ok":true,"v":1,"report":{"secure":true,"cache":{"hits":1,"misses":2},"witnesses":["x"]}}"#;
        assert_eq!(digest(a), digest(b));
        assert_eq!(digest(a), digest(c));
        assert_ne!(digest(a), digest(d));
        let last = r#"{"ok":true,"report":{"secure":false,"cache":{"hits":3}}}"#;
        assert_eq!(
            digest(last),
            digest(r#"{"ok":true,"report":{"secure":false}}"#)
        );
    }

    #[test]
    fn digest_ignores_the_timing_member_which_carries_the_handling_nanos() {
        let plain = r#"{"ok":true,"report":{"secure":false,"cache":{"hits":1}}}"#;
        let timed = r#"{"ok":true,"report":{"secure":false,"cache":{"hits":2}},"timing":{"total_nanos":1234,"stages":[]}}"#;
        assert_eq!(digest(plain), digest(timed));
        assert_ne!(
            digest(plain),
            digest(
                r#"{"ok":true,"report":{"secure":true},"timing":{"total_nanos":1,"stages":[]}}"#
            )
        );
        assert_eq!(handled_nanos(timed), Some(1234));
        assert_eq!(handled_nanos(plain), None);
    }
}
