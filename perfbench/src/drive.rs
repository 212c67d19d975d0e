//! The end-to-end drive: closed-loop query clients and the open-loop
//! `:append` writer, each on its own connection and thread.

use crate::inputs::{Plan, Workload};
use crate::server::Conn;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Replies kept per client and class for the correctness oracle.
pub const KEEP_PER_CLASS: usize = 16;

/// Provenance string of a lattice mined by this very request.
pub const MINED_COLD: &str = "freshly mined (cold)";

/// One completed query.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Client index.
    pub client: usize,
    /// Position in the client's stream.
    pub k: usize,
    /// Query class.
    pub class: usize,
    /// Latency from sending the line to reading the whole reply.
    pub latency_ms: f64,
    /// The reply's admission `wait_us`.
    pub wait_us: u64,
}

/// A reply kept for the oracle.
#[derive(Clone, Debug)]
pub struct Kept {
    /// Client index.
    pub client: usize,
    /// Position in the client's stream.
    pub k: usize,
    /// Query class.
    pub class: usize,
    /// Epoch the answer is exact for.
    pub epoch: u64,
    /// The whole reply line.
    pub reply: String,
}

/// What one closed-loop client did.
#[derive(Debug, Default)]
pub struct ClientOut {
    /// Completed, well-formed, gate-passing queries.
    pub samples: Vec<Sample>,
    /// Replies kept for the oracle.
    pub kept: Vec<Kept>,
    /// Failures: error replies, gate violations, transport errors.
    pub failures: Vec<String>,
    /// Requests sent.
    pub attempted: u64,
    /// Longest delay of a send past its due time (closed loop: the next
    /// request is due one think time after the previous reply).
    pub lateness_ms_max: f64,
    /// Whether the pre-generated stream ran out before the deadline.
    pub exhausted: bool,
}

/// The first `u64` after `key` in `reply`.
pub fn field_u64(reply: &str, key: &str) -> Option<u64> {
    let at = reply.find(key)? + key.len();
    let digits: String = reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The string value of `"key":"..."` in `reply` (no escapes expected).
pub fn field_str<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = reply.find(&pat)? + pat.len();
    let end = reply[at..].find('"')?;
    Some(&reply[at..at + end])
}

/// Why `reply` fails the workload's shape gate, if it does.
pub fn gate(workload: Workload, reply: &str) -> Option<String> {
    if !reply.starts_with("{\"v\":1,\"result\":") {
        return Some(format!("error reply: {}", truncate(reply)));
    }
    match workload {
        Workload::WarmHits => match field_u64(reply, "\"db_scans\":") {
            Some(0) => None,
            other => Some(format!(
                "warm_hits reply scanned the database: db_scans {other:?}"
            )),
        },
        Workload::ColdMiss => {
            let s = field_str(reply, "s_lattice");
            let t = field_str(reply, "t_lattice");
            (s != Some(MINED_COLD) || t != Some(MINED_COLD))
                .then(|| format!("cold_miss lattices not both mined cold: S {s:?}, T {t:?}"))
        }
        Workload::ColdBypass | Workload::AppendChurn => None,
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.char_indices().nth(200).map_or(s.len(), |(i, _)| i)]
}

/// Runs client `client` closed-loop against `addr` until `deadline`.
pub fn closed_loop(addr: &str, plan: &Plan, client: usize, deadline: Instant) -> ClientOut {
    let mut out = ClientOut::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("client {client}: connect: {e}"));
            return out;
        }
    };
    let mut kept_per_class = vec![0usize; plan.workload.classes()];
    let mut kept_epochs = std::collections::BTreeSet::new();
    let mut last_reply: Option<Instant> = None;
    let think = plan.workload.think();
    for k in 0.. {
        if k > 0 && !think.is_zero() {
            std::thread::sleep(think);
        }
        if Instant::now() >= deadline {
            break;
        }
        let Some(g) = plan.request(client, k) else {
            out.exhausted = true;
            break;
        };
        let line = g.line();
        out.attempted += 1;
        let (reply, sent) = match conn.round_trip(&line) {
            Ok(r) => r,
            Err(e) => {
                out.failures
                    .push(format!("client {client} request {k}: {e}"));
                break;
            }
        };
        let done = Instant::now();
        if let Some(prev) = last_reply {
            let due = prev + think;
            out.lateness_ms_max = out
                .lateness_ms_max
                .max(ms(sent.saturating_duration_since(due)));
        }
        last_reply = Some(done);
        if let Some(why) = gate(plan.workload, reply) {
            out.failures
                .push(format!("client {client} request {k}: {why}"));
            continue;
        }
        let epoch = field_u64(reply, "\"epoch\":").unwrap_or(0);
        out.samples.push(Sample {
            client,
            k,
            class: g.class,
            latency_ms: ms(done - sent),
            wait_us: field_u64(reply, "\"wait_us\":").unwrap_or(0),
        });
        let keep_class = kept_per_class[g.class] < KEEP_PER_CLASS;
        let keep_epoch = plan.workload == Workload::AppendChurn && kept_epochs.insert(epoch);
        if keep_class || keep_epoch {
            kept_per_class[g.class] += 1;
            out.kept.push(Kept {
                client,
                k,
                class: g.class,
                epoch,
                reply: reply.to_string(),
            });
        }
    }
    out
}

/// One acknowledged append.
#[derive(Clone, Debug)]
pub struct AppendSample {
    /// Latency from when the append was due to its acknowledgement.
    pub latency_ms: f64,
    /// How late the send was against its schedule.
    pub lateness_ms: f64,
    /// Latency from the send to the acknowledgement.
    pub service_ms: f64,
}

/// What the writer did.
#[derive(Debug, Default)]
pub struct WriterOut {
    /// Acknowledged appends.
    pub samples: Vec<AppendSample>,
    /// Failed appends.
    pub failures: Vec<String>,
    /// Appends sent.
    pub attempted: u64,
}

/// Sends `:append` of `files[k % len]` at `start + k·period` for every
/// `k` due before `deadline`, timing each from when it was due. A slow
/// append delays the next send; the delay counts in that append's
/// latency and lateness.
pub fn open_loop_writer(
    addr: &str,
    files: &[PathBuf],
    period: Duration,
    start: Instant,
    deadline: Instant,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("writer: connect: {e}"));
            return out;
        }
    };
    for k in 0.. {
        let due = start + period * k as u32;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let line = format!(":append {}", files[k % files.len()].display());
        out.attempted += 1;
        let (reply, sent) = match conn.round_trip(&line) {
            Ok(r) => r,
            Err(e) => {
                out.failures.push(format!("append {k}: {e}"));
                break;
            }
        };
        let done = Instant::now();
        // "appended N transactions: now epoch E with ..."
        match field_u64(reply, "now epoch ") {
            Some(_) if reply.starts_with("appended ") => out.samples.push(AppendSample {
                latency_ms: ms(done - due),
                lateness_ms: ms(sent.saturating_duration_since(due)),
                service_ms: ms(done - sent),
            }),
            _ => out
                .failures
                .push(format!("append {k}: {}", truncate(reply))),
        }
    }
    out
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields_and_gates() {
        let warm = r#"{"v":1,"result":{"epoch":3,"pair_count":5,"pairs":[],"s_sets":[],"t_sets":[],"db_scans":0,"s_lattice":"cache hit (reused mined lattice)","t_lattice":"freshly mined (cold)","plan_cached":true,"wait_us":12}}"#;
        assert_eq!(field_u64(warm, "\"epoch\":"), Some(3));
        assert_eq!(field_u64(warm, "\"wait_us\":"), Some(12));
        assert_eq!(field_str(warm, "t_lattice"), Some(MINED_COLD));
        assert_eq!(gate(Workload::WarmHits, warm), None);
        assert!(gate(Workload::ColdMiss, warm).is_some());
        let scanned = warm.replace("\"db_scans\":0", "\"db_scans\":4");
        assert!(gate(Workload::WarmHits, &scanned).is_some());
        let err = r#"{"v":1,"error":{"kind":"parse","message":"x"}}"#;
        assert!(gate(Workload::ColdBypass, err).is_some());
        assert_eq!(
            field_u64("appended 200 transactions: now epoch 7 with", "now epoch "),
            Some(7)
        );
    }
}
