//! `perfbench` — end-to-end and per-layer benchmark of `cfq serve`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --cfq PATH --work DIR --out DIR [--commit SHA] [--rustc VERSION]
//! ```
//!
//! One run generates every input from the seed, boots the real server
//! with its default flags (plus the data files, an ephemeral port and,
//! for `append_churn`, a WAL directory), drives it over TCP for the
//! given seconds, checks a seeded sample of answers against the
//! one-shot optimizer, and prints one JSON result line last on stdout:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics from a
//! separate in-process traced replay (made twice, its work counters
//! required to repeat exactly) with `--trace 1`. A full record with the
//! machine stamp goes to `DIR/<workload>-<seed>-trace<T>.json` and the
//! spans to `DIR/spans-<workload>-<seed>.jsonl`. Any failed operation,
//! wrong answer, shape violation or counter mismatch exits 1.

mod drive;
mod inputs;
mod metrics;
mod rng;
mod server;
mod sha256;
mod stats;
mod trace;
mod verify;

use cfq_engine::json::{self, Json};
use drive::{AppendSample, ClientOut, WriterOut};
use inputs::{Data, Plan, Workload};
use server::{scrape_value, Conn, Server};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Server boots per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Cheap boots repeat, up to [`SETUP_REPS_MAX`], until they have taken
/// this long in all, so a fast set-up still gets a steady median.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Most server boots per run.
const SETUP_REPS_MAX: usize = 15;
/// `append_churn` writer schedule: one append due every this often.
const APPEND_PERIOD: Duration = Duration::from_millis(200);
/// `status` round trips timed after the measured phase of a traced run.
const STATUS_PROBES: usize = 64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    cfq: PathBuf,
    work: PathBuf,
    out: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let need = |key: &str| get(key).ok_or_else(|| format!("missing {key}"));
    let num = |key: &str| -> Result<u64, String> {
        need(key)?
            .parse()
            .map_err(|_| format!("{key} needs a whole number"))
    };
    let workload = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        cfq: need("--cfq")?.into(),
        work: need("--work")?.into(),
        out: need("--out")?.into(),
        commit: get("--commit").unwrap_or_else(|| "unknown".into()),
        rustc: get("--rustc").unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What the measured phase observed.
struct Phase {
    clients: Vec<ClientOut>,
    writer: WriterOut,
    elapsed_s: f64,
    cpu_ms: f64,
    peak_rss_mb: f64,
    setup_s: Vec<f64>,
    scrape: (String, String),
    status_rtt_us: Vec<f64>,
}

fn run(a: &Args) -> Result<bool, String> {
    let err = |e: cfq_types::CfqError| e.to_string();
    let inputs_dir = a.work.join("inputs");
    let _ = std::fs::remove_dir_all(&a.work);
    let data = inputs::generate_data(&inputs_dir).map_err(err)?;
    let plan = Plan::new(a.workload, a.seed, &data.catalog).map_err(err)?;
    let mut files = vec![data.db_path.clone(), data.catalog_path.clone()];
    files.extend(data.delta_paths.iter().cloned());
    let digests: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let bytes = std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((file_name(p), sha256::hex_digest(&bytes)))
        })
        .collect::<Result<_, String>>()?;

    let wal = a.work.join("wal");
    let mut flags = vec![
        "--data".to_string(),
        path_str(&data.db_path),
        "--catalog".into(),
        path_str(&data.catalog_path),
        "--listen".into(),
        "127.0.0.1:0".into(),
    ];
    if a.workload == Workload::AppendChurn {
        flags.extend(["--wal-dir".to_string(), path_str(&wal)]);
    }
    let phase = measure(a, &plan, &data, &flags, &wal)?;

    let mut failures: Vec<String> = Vec::new();
    let mut shape: Vec<String> = Vec::new();
    for c in &phase.clients {
        failures.extend(c.failures.iter().cloned());
        if c.exhausted {
            shape.push("a client ran out of pre-generated requests before the deadline".into());
        }
    }
    failures.extend(phase.writer.failures.iter().cloned());
    let attempted: u64 =
        phase.clients.iter().map(|c| c.attempted).sum::<u64>() + phase.writer.attempted;

    // The oracle.
    let kept: Vec<_> = phase
        .clients
        .iter()
        .flat_map(|c| c.kept.iter().cloned())
        .collect();
    let mut checked = 0usize;
    match verify::sample(a.workload, a.seed, &kept) {
        Ok(picked) => {
            checked = picked.len();
            failures.extend(verify::check(&plan, &data, &picked).map_err(err)?);
        }
        Err(e) => shape.push(e),
    }

    let samples: Vec<&drive::Sample> = phase.clients.iter().flat_map(|c| &c.samples).collect();
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let tail = stats::tail(&latencies);
    if tail.is_none() {
        shape.push(format!(
            "{} queries completed: too few for a tail percentile",
            latencies.len()
        ));
    }

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    let mut layer_record = String::new();
    let mut counters_repeat = true;
    if a.trace {
        let extent = trace::Extent::of(a.workload);
        let replay_wal = a.work.join("replay-wal");
        let r1 = trace::replay(&plan, &data, &replay_wal, extent).map_err(err)?;
        let r2 = trace::replay(&plan, &data, &replay_wal, extent).map_err(err)?;
        if r1.counters != r2.counters {
            counters_repeat = false;
            shape.push(format!(
                "work counters differ between the two replays: {:?} vs {:?}",
                r1.counters, r2.counters
            ));
        }
        std::fs::create_dir_all(&a.out).map_err(|e| e.to_string())?;
        let spans = a
            .out
            .join(format!("spans-{}-{}.jsonl", a.workload.name(), a.seed));
        std::fs::write(&spans, r1.tracer.to_jsonl(1) + &r2.tracer.to_jsonl(2))
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        metrics = per_layer(&phase, &samples, &r1, &r2);
        let _ = write!(
            layer_record,
            "\"counters\":\"{:?}\",\"spans\":",
            r1.counters
        );
        json::write_escaped(&mut layer_record, &path_str(&spans));
        layer_record.push(',');
    } else {
        let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        let ops = samples.len() + phase.writer.samples.len();
        metrics.push(("query_p50_ms", median(&latencies)));
        metrics.push(("query_tail_ms", tail.as_ref().map_or(0.0, |t| t.value)));
        metrics.push(("queries_per_s", samples.len() as f64 / phase.elapsed_s));
        metrics.push(("setup_s", median(&phase.setup_s)));
        metrics.push(("server_peak_rss_mb", phase.peak_rss_mb));
        metrics.push(("server_cpu_ms_per_op", phase.cpu_ms / ops.max(1) as f64));
    }

    let failed = failures.len() as u64;
    let correct = failed == 0 && shape.is_empty() && counters_repeat;
    for f in failures.iter().chain(&shape).take(20) {
        eprintln!("perfbench: FAIL {f}");
    }

    // The full record, stamped.
    let units = |name: &str| -> &'static str {
        metrics::END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .or_else(|| {
                metrics::PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.unit)
            })
            .unwrap_or("")
    };
    let mut metrics_json = String::from("{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            metrics_json.push(',');
        }
        let _ = write!(
            metrics_json,
            "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
            num(*value),
            units(name)
        );
    }
    metrics_json.push('}');
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics_json}}}",
        attempted.max(1)
    );

    let mut record = String::from("{\"stamp\":{");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = write!(
        record,
        "\"commit\":{},\"nproc\":{nproc},\"profile\":\"release\",\"rustc\":{},\"seed\":{},\
         \"scale\":1.0,\"transactions\":{},\"items\":{},\"workload\":\"{}\",\"seconds\":{},\
         \"trace\":{},\"server_flags\":{},\"engine_defaults\":{},\"append_period_ms\":{},\
         \"inputs\":{{",
        quote(&a.commit),
        quote(&a.rustc),
        a.seed,
        data.db.len(),
        inputs::ITEMS,
        a.workload.name(),
        a.seconds,
        a.trace as u8,
        json_list(&flags),
        quote(&format!("{:?}", cfq_engine::EngineConfig::default())),
        APPEND_PERIOD.as_millis(),
    );
    for (i, (name, digest)) in digests.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(record, "{sep}{}:\"{digest}\"", quote(name));
    }
    let appends: Vec<f64> = phase
        .writer
        .samples
        .iter()
        .map(|s: &AppendSample| s.latency_ms)
        .collect();
    let service: Vec<f64> = phase.writer.samples.iter().map(|s| s.service_ms).collect();
    let catalogue: Vec<String> = metrics::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .chain(metrics::PER_LAYER.iter().map(|m| {
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"moves\":{}}}",
                m.name,
                m.unit,
                m.better,
                quote(m.moves)
            )
        }))
        .collect();
    let _ = write!(
        record,
        "}}}},\"result\":{result},{layer_record}\"queries\":{},\"ladder_ms\":{},\"class_p50_ms\":{},\"oracle_checked\":{checked},\
         \"tail\":{},\"appends\":{},\"append_p50_ms\":{},\"append_tail\":{},\"append_service_p50_ms\":{},\"failures\":{},\"catalogue\":[{}]}}",
        latencies.len(),
        ladder(&latencies),
        class_p50(&samples, a.workload.classes()),
        tail.as_ref().map_or("null".into(), |t| format!(
            "{{\"percentile\":\"{}\",\"value_ms\":{},\"beyond\":{},\"samples\":{}}}",
            t.label,
            num(t.value),
            t.beyond,
            t.samples
        )),
        appends.len(),
        num(stats::median(&appends).unwrap_or(0.0)),
        stats::tail(&appends).map_or("null".into(), |t| format!(
            "{{\"percentile\":\"{}\",\"value_ms\":{},\"samples\":{}}}",
            t.label,
            num(t.value),
            t.samples
        )),
        num(stats::median(&service).unwrap_or(0.0)),
        json_list(&failures.iter().chain(&shape).take(50).cloned().collect::<Vec<_>>()),
        catalogue.join(","),
    );
    std::fs::create_dir_all(&a.out).map_err(|e| e.to_string())?;
    let record_path = a.out.join(format!(
        "{}-{}-trace{}.json",
        a.workload.name(),
        a.seed,
        a.trace as u8
    ));
    std::fs::write(&record_path, record + "\n")
        .map_err(|e| format!("{}: {e}", record_path.display()))?;
    eprintln!("perfbench: record written to {}", record_path.display());
    println!("{result}");
    Ok(correct)
}

/// Boots the server [`SETUP_REPS`] to [`SETUP_REPS_MAX`] times (keeping
/// the last), then drives the measured phase.
fn measure(
    a: &Args,
    plan: &Plan,
    data: &Data,
    flags: &[String],
    wal: &Path,
) -> Result<Phase, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS_MAX {
        let _ = std::fs::remove_dir_all(wal);
        let t0 = Instant::now();
        let s = Server::spawn(&a.cfq, flags)?;
        let mut conn = Conn::connect(&s.addr).map_err(|e| format!("connect: {e}"))?;
        for req in &plan.prologue {
            let (reply, _) = conn
                .round_trip(&inputs::envelope(req))
                .map_err(|e| format!("prologue: {e}"))?;
            if !reply.starts_with("{\"v\":1,\"result\":") {
                return Err(format!("prologue query failed: {reply}"));
            }
        }
        if plan.prologue.is_empty() {
            conn.round_trip("{\"v\":1,\"cmd\":\"status\"}")
                .map_err(|e| format!("status: {e}"))?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(conn);
        let spent: f64 = setup_s.iter().sum();
        let last = rep + 1 == SETUP_REPS_MAX
            || (rep + 1 >= SETUP_REPS && spent >= SETUP_BUDGET.as_secs_f64());
        if last {
            server = Some(s);
            break;
        }
        s.stop();
    }
    let server = server.expect("at least one setup rep");

    let scrape = |addr: &str| -> Result<String, String> {
        let mut c = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let (reply, _) = c
            .round_trip("{\"v\":1,\"cmd\":\"metrics\"}")
            .map_err(|e| format!("metrics: {e}"))?;
        let v = json::parse(reply).map_err(|e| e.to_string())?;
        Ok(v.get("result")
            .and_then(|r| r.get("text"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string())
    };
    let before = scrape(&server.addr)?;
    let cpu0 = server.cpu_ms();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(a.seconds);
    let (clients, writer) = std::thread::scope(|sc| {
        let readers: Vec<_> = (0..a.workload.readers())
            .map(|c| {
                let addr = server.addr.clone();
                sc.spawn(move || drive::closed_loop(&addr, plan, c, deadline))
            })
            .collect();
        let writer = (a.workload == Workload::AppendChurn).then(|| {
            let addr = server.addr.clone();
            let files = &data.delta_paths;
            sc.spawn(move || drive::open_loop_writer(&addr, files, APPEND_PERIOD, start, deadline))
        });
        let clients: Vec<ClientOut> = readers
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let writer = writer
            .map(|h| h.join().expect("writer thread panicked"))
            .unwrap_or_default();
        (clients, writer)
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let cpu_ms = server.cpu_ms() - cpu0;
    let after = scrape(&server.addr)?;
    let mut status_rtt_us = Vec::new();
    if a.trace {
        let mut c = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        for _ in 0..STATUS_PROBES {
            let t = Instant::now();
            c.round_trip("{\"v\":1,\"cmd\":\"status\"}")
                .map_err(|e| format!("status: {e}"))?;
            status_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let peak_rss_mb = server.peak_rss_mb();
    server.stop();
    Ok(Phase {
        clients,
        writer,
        elapsed_s,
        cpu_ms,
        peak_rss_mb,
        setup_s,
        scrape: (before, after),
        status_rtt_us,
    })
}

/// The per-layer metrics, in catalogue order.
fn per_layer(
    phase: &Phase,
    samples: &[&drive::Sample],
    r1: &trace::Replay,
    r2: &trace::Replay,
) -> Vec<(&'static str, f64)> {
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let spans = |name: &str| {
        let mut v = r1.tracer.durations(name);
        v.extend(r2.tracer.durations(name));
        median(&v)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let delta =
        |name: &str| scrape_value(&phase.scrape.1, name) - scrape_value(&phase.scrape.0, name);
    let outside: Vec<f64> = samples
        .iter()
        .filter_map(|s| {
            let id = trace::request_id(s.client, s.k);
            let e1 = r1.execute_us.get(&id)?;
            let e2 = r2.execute_us.get(&id)?;
            Some(s.latency_ms * 1000.0 - (e1 + e2) / 2.0)
        })
        .collect();
    let mut self_us = r1.self_us.clone();
    self_us.extend(&r2.self_us);
    let c = &r1.counters;
    let appends = r1.appends.max(1) as f64;
    let lateness = phase
        .clients
        .iter()
        .map(|c| c.lateness_ms_max)
        .chain(phase.writer.samples.iter().map(|s| s.lateness_ms))
        .fold(0.0, f64::max);
    let values: Vec<(&'static str, f64)> = vec![
        ("serve.status_rtt_us", median(&phase.status_rtt_us)),
        ("serve.outside_us", median(&outside)),
        ("wire.parse_us", spans("wire.parse")),
        ("request.encode_us", spans("request.encode")),
        ("request.reply_bytes", median(&r1.reply_bytes)),
        ("constraints.parse_bind_us", spans("constraints.parse_bind")),
        ("optimizer.plan_us", spans("optimizer.plan")),
        (
            "cache.plan_hit_ratio",
            ratio(
                r1.cache.plan_hits as f64,
                (r1.cache.plan_hits + r1.cache.plan_misses) as f64,
            ),
        ),
        (
            "cache.lattice_hit_ratio",
            ratio(
                r1.cache.lattice_hits as f64,
                (r1.cache.lattice_hits + r1.cache.lattice_misses) as f64,
            ),
        ),
        ("cache.entries", r1.cache.entries as f64),
        ("cache.bytes_used", r1.cache.bytes_used as f64),
        (
            "scheduler.queued_replies",
            samples.iter().filter(|s| s.wait_us > 0).count() as f64,
        ),
        ("scheduler.mining_passes", delta("cfq_mining_passes_total")),
        (
            "scheduler.coalesced",
            delta("cfq_scheduler_coalesced_total"),
        ),
        ("session.execute_us", spans("session.execute")),
        ("session.self_us", median(&self_us)),
        ("mining.apriori_us", spans("mining.apriori")),
        ("mining.db_scans", c.mining_db_scans as f64),
        ("mining.support_counted", c.mining_support_counted as f64),
        ("mining.items_scanned", c.mining_items_scanned as f64),
        (
            "mining.frequent_per_counted",
            ratio(c.mining_frequent as f64, c.mining_support_counted as f64),
        ),
        ("optimizer.execute_plan_us", spans("optimizer.execute_plan")),
        ("cap.support_counted", c.cap_support_counted as f64),
        ("cap.pruned_candidates", c.cap_pruned_candidates as f64),
        ("optimizer.db_scans", c.optimizer_db_scans as f64),
        ("jkmax.rounds", c.jkmax_rounds as f64),
        ("pairs.form_us", spans("pairs.form")),
        ("pairs.checks", c.pairs_checks as f64),
        (
            "pairs.valid_per_check",
            ratio(c.pairs_valid as f64, c.pairs_checks as f64),
        ),
        ("engine.append_us", spans("engine.append")),
        ("fup.old_db_recounts", c.fup_old_db_recounts as f64),
        ("fup.upgraded_lattices", c.fup_upgraded_lattices as f64),
        (
            "wal.bytes_per_append",
            r1.durability.wal_bytes as f64 / appends,
        ),
        (
            "wal.fsyncs_per_append",
            r1.durability.wal_fsyncs as f64 / appends,
        ),
        ("snapshot.bytes", r1.durability.snapshot_bytes as f64),
        ("setup.load_db_us", spans("setup.load_db")),
        ("setup.engine_build_us", spans("setup.engine_build")),
        ("loadgen.lateness_ms", lateness),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(metrics::PER_LAYER.iter().map(|m| m.name)));
    values
}

/// The median latency of each query class, as a JSON list.
fn class_p50(samples: &[&drive::Sample], classes: usize) -> String {
    let p50: Vec<String> = (0..classes)
        .map(|c| {
            let v: Vec<f64> = samples
                .iter()
                .filter(|s| s.class == c)
                .map(|s| s.latency_ms)
                .collect();
            stats::median(&v).map_or("null".into(), num)
        })
        .collect();
    format!("[{}]", p50.join(","))
}

/// Nearest-rank percentiles of `v` for the record: p50 … p99.9 and max.
fn ladder(v: &[f64]) -> String {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |permille: usize| {
        s.get((permille * s.len()).div_ceil(1000).saturating_sub(1))
            .copied()
            .unwrap_or(0.0)
    };
    format!(
        "{{\"p50\":{},\"p90\":{},\"p99\":{},\"p99.9\":{},\"max\":{}}}",
        num(at(500)),
        num(at(900)),
        num(at(990)),
        num(at(999)),
        num(at(1000))
    )
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::new();
    json::write_escaped(&mut out, s);
    out
}

fn json_list(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| quote(s)).collect();
    format!("[{}]", parts.join(","))
}

fn path_str(p: &Path) -> String {
    p.display().to_string()
}

fn file_name(p: &Path) -> String {
    p.file_name()
        .map_or_else(|| path_str(p), |n| n.to_string_lossy().into_owned())
}
