//! The traced run: an in-process replay of the workload's generated
//! requests that times each call into a layer's public functions as a
//! span (name, start, end, parent, request id), kept in memory and
//! written out when the run ends, and sums each layer's work counters.

use crate::inputs::{effective_universe, Data, Plan, Workload, DELTAS};
use cfq_constraints::{bind_query, eval_all_one, parse_query, Var};
use cfq_core::{form_pairs_with, QueryEnv};
use cfq_datagen::io;
use cfq_engine::wire::{self, WireCmd};
use cfq_engine::{Engine, EngineConfig, QueryResponse};
use cfq_mining::{apriori, AprioriConfig, FrequentSets, WorkStats};
use cfq_types::{CfqError, ItemId, Itemset, Result};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `session.execute`.
    pub name: &'static str,
    /// Start, microseconds since the tracer began.
    pub start_us: f64,
    /// End, microseconds since the tracer began.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id (`client << 32 | k`; `u64::MAX` outside requests).
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Spans in memory.
pub struct Tracer {
    t0: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start_us: t,
            end_us: t,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) -> f64 {
        self.spans[idx].end_us = self.now();
        self.spans[idx].us()
    }

    /// Runs `f` inside a span and returns its result and duration (us).
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let idx = self.open(name, parent, request);
        let out = f();
        (out, self.close(idx))
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self, replay: usize) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = if s.request == u64::MAX {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"replay\":{replay},\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_us, s.end_us
            );
        }
        out
    }
}

/// Work counters that must repeat exactly between two replays.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Database scans of the direct `apriori` calls.
    pub mining_db_scans: u64,
    /// Sets counted for support by `apriori`.
    pub mining_support_counted: u64,
    /// Items scanned by `apriori`.
    pub mining_items_scanned: u64,
    /// Frequent sets `apriori` found.
    pub mining_frequent: u64,
    /// Sets counted for support by `Optimizer::execute_plan`.
    pub cap_support_counted: u64,
    /// Candidates pruned before counting by pushed constraints.
    pub cap_pruned_candidates: u64,
    /// Database scans of `Optimizer::execute_plan`.
    pub optimizer_db_scans: u64,
    /// `J^k_max` rounds (`V^k` history entries).
    pub jkmax_rounds: u64,
    /// 2-var checks of `form_pairs_with`.
    pub pairs_checks: u64,
    /// Valid pairs `form_pairs_with` found.
    pub pairs_valid: u64,
    /// FUP candidate sets recounted against the old database.
    pub fup_old_db_recounts: u64,
    /// Cached lattices FUP upgraded.
    pub fup_upgraded_lattices: u64,
}

/// What one replay produced.
pub struct Replay {
    /// Its spans.
    pub tracer: Tracer,
    /// Its deterministic counters.
    pub counters: Counters,
    /// `session.execute` time per request id.
    pub execute_us: BTreeMap<u64, f64>,
    /// `session.execute` minus mining (when the session mined) and pair
    /// formation, for requests on the heavy tier.
    pub self_us: Vec<f64>,
    /// Reply bytes per replayed request.
    pub reply_bytes: Vec<f64>,
    /// Lattice cache counters at the end.
    pub cache: cfq_engine::CacheStats,
    /// Durability counters at the end.
    pub durability: cfq_engine::DurabilityStats,
    /// Appends made.
    pub appends: u64,
}

/// How much of the stream one replay covers.
#[derive(Clone, Copy, Debug)]
pub struct Extent {
    /// Requests per client replayed through every cheap layer.
    pub per_client: usize,
    /// Requests, the first of each query class, that also run the
    /// expensive direct calls: `apriori` per side, `form_pairs_with`
    /// and `execute_plan`.
    pub heavy: usize,
    /// `append_churn`: an append after every this many reads. Other
    /// workloads append [`PROBE_APPENDS`] batches at the end so the
    /// append layer is measured everywhere.
    pub reads_per_append: usize,
}

/// Appends at the end of a replay of a workload without a writer.
pub const PROBE_APPENDS: usize = 2;

impl Extent {
    /// The replay size for `workload`, chosen so that two replays take
    /// a few seconds at paper scale.
    pub fn of(workload: Workload) -> Extent {
        match workload {
            Workload::WarmHits => Extent {
                per_client: 100,
                heavy: 2,
                reads_per_append: 0,
            },
            Workload::ColdMiss => Extent {
                per_client: 8,
                heavy: 6,
                reads_per_append: 0,
            },
            Workload::ColdBypass => Extent {
                per_client: 8,
                heavy: 5,
                reads_per_append: 0,
            },
            Workload::AppendChurn => Extent {
                per_client: 160,
                heavy: 6,
                reads_per_append: 16,
            },
        }
    }
}

/// Request id of client `c`'s `k`-th request.
pub fn request_id(c: usize, k: usize) -> u64 {
    ((c as u64) << 32) | k as u64
}

/// Replays `plan` in-process from a fresh engine built like the
/// server's (default configuration; a WAL directory under `wal_dir`
/// for `append_churn`). Clients' requests interleave round-robin, the
/// order the closed-loop clients approximately produce.
pub fn replay(plan: &Plan, data: &Data, wal_dir: &Path, extent: Extent) -> Result<Replay> {
    let mut t = Tracer::new();
    const NONE: u64 = u64::MAX;
    let root = t.open("setup", None, NONE);
    let (loaded, _) = t.time("setup.load_db", Some(root), NONE, || -> Result<_> {
        let db = io::load_transactions(&data.db_path)?;
        let catalog = io::read_catalog(std::fs::File::open(&data.catalog_path)?)?;
        Ok((db, catalog))
    });
    let (db, catalog) = loaded?;
    let mut config = EngineConfig::default();
    if plan.workload == Workload::AppendChurn {
        let _ = std::fs::remove_dir_all(wal_dir);
        config.wal_dir = Some(wal_dir.to_path_buf());
    }
    let (engine, _) = t.time("setup.engine_build", Some(root), NONE, || {
        Engine::with_config(db, catalog, config)
    });
    let engine = engine?;
    t.close(root);
    let session = engine.session();
    let cfg = engine.config().clone();
    for req in &plan.prologue {
        let (out, _) = t.time("prologue", None, NONE, || session.execute(req));
        out?;
    }

    let mut counters = Counters::default();
    let mut execute_us = BTreeMap::new();
    let mut self_us = Vec::new();
    let mut reply_bytes = Vec::new();
    let mut appends = 0u64;
    let append = |t: &mut Tracer, counters: &mut Counters, appends: &mut u64| -> Result<()> {
        let delta = data.deltas[*appends as usize % DELTAS].clone();
        let (info, _) = t.time("engine.append", None, NONE, || engine.append(delta));
        let info = info?;
        counters.fup_old_db_recounts += info.old_db_recounts;
        counters.fup_upgraded_lattices += info.upgraded_lattices as u64;
        *appends += 1;
        Ok(())
    };

    let readers = plan.workload.readers();
    let mut replayed = 0usize;
    let mut heavy_classes: Vec<usize> = Vec::new();
    for k in 0..extent.per_client {
        for c in 0..readers {
            let Some(g) = plan.request(c, k) else {
                continue;
            };
            let id = request_id(c, k);
            let heavy = heavy_classes.len() < extent.heavy && !heavy_classes.contains(&g.class);
            if heavy {
                heavy_classes.push(g.class);
            }
            replayed += 1;
            let req_span = t.open("request", None, id);
            let line = g.line();
            let (cmd, _) = t.time("wire.parse", Some(req_span), id, || {
                wire::parse_envelope(&line)
            });
            let req = match cmd {
                Ok(WireCmd::Query(r)) if r == g.req => r,
                other => {
                    return Err(CfqError::Engine(format!(
                        "envelope did not round-trip: {other:?}"
                    )))
                }
            };
            let (bound, _) = t.time("constraints.parse_bind", Some(req_span), id, || {
                bind_query(&parse_query(&req.query)?, &engine.catalog())
            });
            let bound = bound?;
            let catalog = engine.catalog();
            let (qplan, _) = t.time("optimizer.plan", Some(req_span), id, || {
                req.strategy.build_plan(&bound, &catalog)
            });
            let (out, exec_us) = t.time("session.execute", Some(req_span), id, || {
                session.execute(&req)
            });
            let out = out?;
            execute_us.insert(id, exec_us);
            let (json, _) = t.time("request.encode", Some(req_span), id, || {
                QueryResponse::from_outcome(&out).to_json()
            });
            reply_bytes.push(json.len() as f64);

            if heavy {
                let db = engine.db();
                let (s_sup, t_sup) = req.support.resolve(db.len())?;
                // Mining: `apriori` with the engine's configuration over
                // each side's effective universe (once when both sides
                // coincide, as the cache would share the lattice).
                let mut lattices: Vec<(Vec<ItemId>, u64, FrequentSets)> = Vec::new();
                let mut mining_us = 0.0;
                for (var, sup) in [(Var::S, s_sup), (Var::T, t_sup)] {
                    let eff = effective_universe(&req, var, &catalog)?;
                    if eff.is_empty() || lattices.iter().any(|(u, s, _)| *u == eff && *s == sup) {
                        continue;
                    }
                    let acfg = AprioriConfig::new(sup)
                        .with_universe(eff.clone())
                        .with_trim(cfg.trim)
                        .with_backend(cfg.backend)
                        .with_shards(cfg.shards)
                        .with_counting_threads(cfg.counting_threads);
                    let mut stats = WorkStats::new();
                    let (lat, us) = t.time("mining.apriori", Some(req_span), id, || {
                        apriori(&db, &acfg, &mut stats)
                    });
                    mining_us += us;
                    counters.mining_db_scans += stats.db_scans;
                    counters.mining_support_counted += stats.support_counted;
                    counters.mining_items_scanned += stats.scan.items_scanned;
                    counters.mining_frequent += lat.total() as u64;
                    lattices.push((eff, sup, lat));
                }
                // Pair formation over exactly the sets the session forms
                // pairs from: the lattice restricted to the side's
                // effective universe, threshold and 1-var constraints.
                let valid = |var: Var, sup: u64| -> Result<Vec<(Itemset, u64)>> {
                    let eff = effective_universe(&req, var, &catalog)?;
                    let one: Vec<_> = bound.one_var_for(var).cloned().collect();
                    let Some((_, _, lat)) =
                        lattices.iter().find(|(u, s, _)| *u == eff && *s == sup)
                    else {
                        return Ok(Vec::new());
                    };
                    Ok(lat
                        .iter()
                        .filter(|(set, n)| *n >= sup && eval_all_one(&one, set, &catalog))
                        .map(|(set, n)| (set.clone(), n))
                        .collect())
                };
                let (s_sets, t_sets) = (valid(Var::S, s_sup)?, valid(Var::T, t_sup)?);
                let (pairs, pairs_us) = t.time("pairs.form", Some(req_span), id, || {
                    form_pairs_with(
                        &s_sets,
                        &t_sets,
                        &qplan.trace().final_two,
                        &catalog,
                        req.max_pairs,
                        cfg.counting_threads,
                    )
                });
                counters.pairs_checks += pairs.checks;
                counters.pairs_valid += pairs.count;
                // The core executors: the one-shot run the bypass path
                // makes, with the session's environment.
                let mut env = QueryEnv::new(&db, &catalog, s_sup)
                    .with_supports(s_sup, t_sup)
                    .with_counting_threads(cfg.counting_threads)
                    .with_trim(cfg.trim)
                    .with_backend(cfg.backend)
                    .with_shards(cfg.shards);
                env.s_universe = req.s_universe.clone();
                env.t_universe = req.t_universe.clone();
                env.max_pairs = req.max_pairs;
                let (exec, plan_us) = t.time("optimizer.execute_plan", Some(req_span), id, || {
                    req.strategy.execute_plan(&qplan, &env)
                });
                let exec = exec?;
                counters.cap_support_counted +=
                    exec.s_stats.support_counted + exec.t_stats.support_counted;
                counters.cap_pruned_candidates +=
                    exec.s_stats.pruned_candidates + exec.t_stats.pruned_candidates;
                counters.optimizer_db_scans += exec.db_scans;
                counters.jkmax_rounds += exec
                    .v_histories
                    .iter()
                    .map(|(_, h)| h.len() as u64)
                    .sum::<u64>();
                let inner = if req.bypass_cache {
                    plan_us
                } else {
                    pairs_us
                        + if out.outcome.db_scans > 0 {
                            mining_us
                        } else {
                            0.0
                        }
                };
                self_us.push(exec_us - inner);
            }
            t.close(req_span);
            if extent.reads_per_append > 0 && replayed.is_multiple_of(extent.reads_per_append) {
                append(&mut t, &mut counters, &mut appends)?;
            }
        }
    }
    if extent.reads_per_append == 0 {
        for _ in 0..PROBE_APPENDS {
            append(&mut t, &mut counters, &mut appends)?;
        }
    }
    Ok(Replay {
        tracer: t,
        counters,
        execute_us,
        self_us,
        reply_bytes,
        cache: engine.cache_stats(),
        durability: engine.durability_stats(),
        appends,
    })
}
