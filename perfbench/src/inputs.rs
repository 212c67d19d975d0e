//! Everything a run feeds the server: the paper-scale Quest database,
//! the Price/Type catalog and the delta batches `append_churn` appends
//! (fixed), and every workload's request stream (from the run seed).

use crate::rng::Rng;
use cfq_constraints::{bind_query, parse_query, BoundQuery, SuccinctForm, Var};
use cfq_datagen::{generate_transactions, io, QuestConfig};
use cfq_engine::{QueryRequest, SupportSpec};
use cfq_types::{Catalog, CatalogBuilder, CfqError, ItemId, Result, TransactionDb};
use std::path::{Path, PathBuf};

/// Items in the catalog (the paper's 1000).
pub const ITEMS: usize = 1000;
/// `Type` categories in the catalog.
pub const TYPES: usize = 8;
/// Transactions per `append_churn` delta batch.
pub const DELTA_ROWS: usize = 200;
/// Distinct delta batches; the writer cycles through them.
pub const DELTAS: usize = 16;
/// Support (fraction of transactions) of every cold request, and the
/// floor the `append_churn` reader windows are pre-mined at.
pub const FLOOR: f64 = 0.01;
/// `append_churn` reads ask for one of these supports, all at or above
/// [`FLOOR`].
const CHURN_SUPPORTS: [f64; 4] = [0.01, 0.0125, 0.015, 0.02];
/// The floor the `warm_hits` prologue pre-mines the full universe at.
/// Below the cold support, so that a warm request spends most of its
/// time filtering and pairing sets (about a millisecond) rather than in
/// wake-ups, whose jitter on a shared machine spread sub-millisecond
/// latencies past the bounds.
pub const WARM_FLOOR: f64 = 0.0075;
/// `warm_hits` requests ask for one of these supports, all at or above
/// [`WARM_FLOOR`].
const WARM_SUPPORTS: [f64; 4] = [0.0075, 0.009, 0.01, 0.0125];
/// Items per S or T universe window of `cold_miss`.
pub const COLD_WINDOW: usize = 200;
/// Items per S or T universe window of `cold_bypass`: smaller than
/// [`COLD_WINDOW`] so that its one client completes about 200 requests
/// in a 20 s run, twice what a p90 tail needs.
pub const BYPASS_WINDOW: usize = 120;
/// Items per fixed `append_churn` reader window.
pub const CHURN_WINDOW: usize = 80;
/// Fixed reader windows in `append_churn`.
pub const CHURN_WINDOWS: usize = 3;
/// Requests pre-generated per client of a cold workload: about five
/// times what a client completes in a 20 s run at this scale.
pub const COLD_PER_CLIENT: usize = 1200;
/// Materialized pairs per reply: full answers run to tens of MB.
pub const MAX_PAIRS: usize = 100;
/// Query classes of the mixed palette (see [`palette`]).
pub const CLASSES: usize = 6;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop mixed-class queries served from a pre-mined lattice.
    WarmHits,
    /// Closed-loop queries over fresh universe windows: every lattice is
    /// mined cold.
    ColdMiss,
    /// Closed-loop `bypass_cache` runs of the paper's 2-var forms.
    ColdBypass,
    /// An open-loop `:append` writer beside a closed-loop warm reader.
    AppendChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmHits,
        Workload::ColdMiss,
        Workload::ColdBypass,
        Workload::AppendChurn,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHits => "warm_hits",
            Workload::ColdMiss => "cold_miss",
            Workload::ColdBypass => "cold_bypass",
            Workload::AppendChurn => "append_churn",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop query clients (connections besides the writer).
    /// `cold_bypass` has one: each of its requests keeps a core busy
    /// for about 100 ms, and a second client would leave no core free
    /// for anything else on a 2-core machine, so that its tail would
    /// measure the scheduler.
    pub fn readers(self) -> usize {
        match self {
            Workload::AppendChurn | Workload::ColdBypass => 1,
            _ => 2,
        }
    }

    /// Pause a closed-loop client takes between a reply and its next
    /// request. The `append_churn` reader pauses so that appends, not
    /// reads, dominate the server's work, and the read tail is the p99
    /// of a few thousand reads rather than the p99.9 of a hundred
    /// thousand.
    pub fn think(self) -> std::time::Duration {
        match self {
            Workload::AppendChurn => std::time::Duration::from_micros(500),
            _ => std::time::Duration::ZERO,
        }
    }

    /// Number of query classes the workload draws from.
    pub fn classes(self) -> usize {
        match self {
            Workload::ColdBypass => BYPASS_FORMS.len(),
            _ => CLASSES,
        }
    }
}

/// The generated data files, in memory and on disk.
pub struct Data {
    /// The base database (100k transactions).
    pub db: TransactionDb,
    /// The Price/Type catalog.
    pub catalog: Catalog,
    /// The delta batches, in file order.
    pub deltas: Vec<TransactionDb>,
    /// Base database file.
    pub db_path: PathBuf,
    /// Catalog file.
    pub catalog_path: PathBuf,
    /// Delta batch files.
    pub delta_paths: Vec<PathBuf>,
}

/// Generates the database, catalog and delta batches and writes them
/// under `dir`. The data is the same for every run seed: the Quest
/// generator's own paper seed, as the paper measures one T10.I4.D100K
/// database. (Across Quest seeds the 1% lattice ranges from about 420
/// to 530 sets, which alone moves warm-path timings by more than the
/// benchmark's bounds; the run seed varies the request streams.) One
/// Quest run makes `100k + DELTAS × DELTA_ROWS` rows, so the deltas come
/// from the same patterns as the base and resemble the past, as appended
/// data does.
pub fn generate_data(dir: &Path) -> Result<Data> {
    std::fs::create_dir_all(dir)?;
    let base = QuestConfig::paper_scaled(1.0);
    let base_rows = base.n_transactions;
    let data_seed = base.seed;
    let cfg = QuestConfig {
        n_items: ITEMS,
        n_transactions: base_rows + DELTAS * DELTA_ROWS,
        ..base
    };
    let all = generate_transactions(&cfg)?;
    let rows = |range: std::ops::Range<usize>| -> Result<TransactionDb> {
        TransactionDb::new(ITEMS, range.map(|i| all.transaction(i).to_vec()).collect())
    };
    let db = rows(0..base_rows)?;
    let deltas = (0..DELTAS)
        .map(|d| rows(base_rows + d * DELTA_ROWS..base_rows + (d + 1) * DELTA_ROWS))
        .collect::<Result<Vec<_>>>()?;

    let mut rng = Rng::new(data_seed, "catalog");
    let mut b = CatalogBuilder::new(ITEMS);
    let price: Vec<f64> = (0..ITEMS)
        .map(|_| (rng.next_u64() % 1_000_000) as f64 / 1000.0)
        .collect();
    b.num_attr("Price", price)?;
    let types: Vec<String> = (0..ITEMS)
        .map(|_| format!("Type{}", rng.below(TYPES)))
        .collect();
    b.cat_attr("Type", &types)?;
    let catalog = b.build();

    let db_path = dir.join("data.txt");
    let catalog_path = dir.join("catalog.txt");
    io::save_transactions(&db, &db_path)?;
    io::write_catalog(&catalog, std::fs::File::create(&catalog_path)?)?;
    let mut delta_paths = Vec::new();
    for (d, delta) in deltas.iter().enumerate() {
        let path = dir.join(format!("delta-{d:02}.txt"));
        io::save_transactions(delta, &path)?;
        delta_paths.push(path);
    }
    Ok(Data {
        db,
        catalog,
        deltas,
        db_path,
        catalog_path,
        delta_paths,
    })
}

/// One generated query.
#[derive(Clone, Debug, PartialEq)]
pub struct Gen {
    /// Palette class (index into [`palette`] or [`BYPASS_FORMS`]).
    pub class: usize,
    /// The request.
    pub req: QueryRequest,
}

impl Gen {
    /// The v1 query envelope line.
    pub fn line(&self) -> String {
        envelope(&self.req)
    }
}

/// Wraps a request in the v1 query envelope.
pub fn envelope(req: &QueryRequest) -> String {
    format!("{{\"v\":1,\"cmd\":\"query\",\"req\":{}}}", req.to_json())
}

/// One query text of constraint class `class`, thresholds drawn from
/// `rng`. Classes: 0 anti-monotone + succinct 1-var bounds; 1 succinct
/// set constraint; 2 quasi-succinct `max(S)<=min(T)`; 3 induced-weaker
/// `sum`; 4 induced-weaker `avg`; 5 `S.Type = T.Type` (Fig. 8b).
pub fn palette(rng: &mut Rng, class: usize) -> String {
    let v = 300 + 50 * rng.below(8);
    let w = 100 + 50 * rng.below(8);
    match class {
        0 => format!("max(S.Price) <= {v} & min(T.Price) >= {w}"),
        1 => {
            let a = rng.below(TYPES - 1);
            format!(
                "S.Type subseteq {{Type{a}, Type{}}} & min(T.Price) >= {w}",
                a + 1
            )
        }
        2 => "max(S.Price) <= min(T.Price)".to_string(),
        3 => format!("sum(S.Price) <= max(T.Price) & min(T.Price) >= {w}"),
        4 => format!("avg(S.Price) <= avg(T.Price) & max(S.Price) <= {v}"),
        _ => format!("max(S.Price) <= {v} & min(T.Price) >= {w} & S.Type = T.Type"),
    }
}

/// The paper's 2-var forms `cold_bypass` runs (Figs. 4–8): quasi-succinct
/// (CAP), the Fig. 8(b) conjunction, `J^k_max`-bounded `sum`, and the
/// induced-weaker `avg` and `sum`/`max` forms.
pub const BYPASS_FORMS: [&str; 5] = [
    "max(S.Price) <= min(T.Price)",
    "max(S.Price) <= 400 & min(T.Price) >= 600 & S.Type = T.Type",
    "sum(S.Price) <= sum(T.Price)",
    "avg(S.Price) <= avg(T.Price)",
    "sum(S.Price) <= max(T.Price)",
];

fn base_request(query: String, support: f64) -> QueryRequest {
    let mut req = QueryRequest::new(query);
    req.support = SupportSpec::Frac(support);
    req.max_pairs = Some(MAX_PAIRS);
    req
}

fn ids(v: Vec<u32>) -> Vec<ItemId> {
    v.into_iter().map(ItemId).collect()
}

/// A workload's generated traffic.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Queries the untimed prologue runs (cache warm-up).
    pub prologue: Vec<QueryRequest>,
    /// Pre-generated per-client streams of the cold workloads (empty for
    /// warm streams, which are generated on demand by index).
    cold: Vec<Vec<Gen>>,
    /// `append_churn` reader windows.
    windows: Vec<Vec<ItemId>>,
}

impl Plan {
    /// Builds the traffic of `workload` for `seed` against `catalog`.
    pub fn new(workload: Workload, seed: u64, catalog: &Catalog) -> Result<Plan> {
        Plan::sized(workload, seed, catalog, COLD_PER_CLIENT)
    }

    /// [`Plan::new`] with `per_client` pre-generated cold requests.
    pub fn sized(
        workload: Workload,
        seed: u64,
        catalog: &Catalog,
        per_client: usize,
    ) -> Result<Plan> {
        let mut plan = Plan {
            workload,
            seed,
            prologue: Vec::new(),
            cold: Vec::new(),
            windows: Vec::new(),
        };
        match workload {
            Workload::WarmHits => {
                // One full-universe lattice at the floor serves every
                // warm request: each effective universe is a subset of
                // it, and each support is at or above the floor.
                plan.prologue
                    .push(base_request(BYPASS_FORMS[0].to_string(), WARM_FLOOR));
            }
            Workload::ColdMiss => plan.cold = cold_miss_streams(seed, catalog, per_client)?,
            Workload::ColdBypass => plan.cold = cold_bypass_streams(seed, per_client),
            Workload::AppendChurn => {
                let mut rng = Rng::new(seed, "churn-windows");
                for _ in 0..CHURN_WINDOWS {
                    let w = ids(rng.sample_sorted(ITEMS, CHURN_WINDOW));
                    let mut req = base_request(BYPASS_FORMS[0].to_string(), FLOOR);
                    req.s_universe = w.clone();
                    req.t_universe = w.clone();
                    plan.prologue.push(req);
                    plan.windows.push(w);
                }
            }
        }
        Ok(plan)
    }

    /// Request `k` of client `client`, or `None` past the end of a
    /// pre-generated stream. Warm streams are unbounded and a pure
    /// function of `(seed, client, k)`.
    pub fn request(&self, client: usize, k: usize) -> Option<Gen> {
        match self.workload {
            Workload::ColdMiss | Workload::ColdBypass => self.cold.get(client)?.get(k).cloned(),
            Workload::WarmHits | Workload::AppendChurn => {
                let mut rng = Rng::new(
                    self.seed ^ ((client as u64) << 48) ^ (k as u64).wrapping_mul(0x9e37_79b9),
                    self.workload.name(),
                );
                let class = rng.below(CLASSES);
                let text = palette(&mut rng, class);
                let supports = match self.workload {
                    Workload::WarmHits => WARM_SUPPORTS,
                    _ => CHURN_SUPPORTS,
                };
                let mut req = base_request(text, supports[rng.below(supports.len())]);
                if !self.windows.is_empty() {
                    let w = self.windows[rng.below(self.windows.len())].clone();
                    req.s_universe = w.clone();
                    req.t_universe = w;
                }
                Some(Gen { class, req })
            }
        }
    }

    /// The first `n` requests of every client and the prologue, as
    /// text; the determinism test compares these bytes across builds.
    #[cfg(test)]
    pub fn emit(&self, n: usize) -> String {
        let mut out = String::new();
        for c in 0..self.workload.readers() {
            for k in 0..n {
                if let Some(g) = self.request(c, k) {
                    out.push_str(&format!("{c}\t{k}\t{}\t{}\n", g.class, g.line()));
                }
            }
        }
        for p in &self.prologue {
            out.push_str(&format!("prologue\t{}\n", envelope(p)));
        }
        out
    }
}

/// Cold streams for two clients: mixed-class queries, each over its own
/// random S and T windows. Each client cycles through the classes, so
/// every run has the same class mix. The windows are resampled until no
/// *effective* universe (the window after the query's 1-var filter,
/// which is what the lattice cache is keyed by) is a subset of another,
/// in either direction and across both sides and both clients. Since
/// the cache serves a request only from a lattice over a superset
/// universe, every request then misses on both sides, whatever order
/// the two clients' requests interleave in.
fn cold_miss_streams(seed: u64, catalog: &Catalog, per_client: usize) -> Result<Vec<Vec<Gen>>> {
    let mut rng = Rng::new(seed, "cold_miss");
    let mut seen: Vec<Bits> = Vec::new();
    let mut streams = vec![Vec::new(), Vec::new()];
    for k in 0..2 * per_client {
        let class = (k / 2) % CLASSES;
        let text = palette(&mut rng, class);
        let bound = bind_query(&parse_query(&text)?, catalog)?;
        let eff = |rng: &mut Rng, var: Var, other: Option<&Bits>| -> Result<(Vec<ItemId>, Bits)> {
            let form = side_form(&bound, var, catalog);
            for _ in 0..1000 {
                let w = ids(rng.sample_sorted(ITEMS, COLD_WINDOW));
                let e = Bits::of(&form.filter_universe(&w));
                if e.count() == 0 {
                    continue;
                }
                let clash = |b: &Bits| b.subset_of(&e) || e.subset_of(b);
                if !seen.iter().any(clash) && !other.is_some_and(clash) {
                    return Ok((w, e));
                }
            }
            Err(CfqError::Config(format!(
                "no fresh cold window for `{text}`"
            )))
        };
        let (s, se) = eff(&mut rng, Var::S, None)?;
        let (t, te) = eff(&mut rng, Var::T, Some(&se))?;
        seen.push(se);
        seen.push(te);
        let mut req = base_request(text, FLOOR);
        req.s_universe = s;
        req.t_universe = t;
        streams[k % 2].push(Gen { class, req });
    }
    Ok(streams)
}

/// The bypass stream of the one client: it cycles through the paper's
/// forms, each request over fresh random windows (the bypass path never
/// consults the cache, so windows only vary the work).
fn cold_bypass_streams(seed: u64, per_client: usize) -> Vec<Vec<Gen>> {
    let mut rng = Rng::new(seed, "cold_bypass");
    let stream = (0..per_client)
        .map(|k| {
            let class = k % BYPASS_FORMS.len();
            let mut req = base_request(BYPASS_FORMS[class].to_string(), FLOOR);
            req.s_universe = ids(rng.sample_sorted(ITEMS, BYPASS_WINDOW));
            req.t_universe = ids(rng.sample_sorted(ITEMS, BYPASS_WINDOW));
            req.bypass_cache = true;
            Gen { class, req }
        })
        .collect();
    vec![stream]
}

/// A fixed-width item bitset for subset tests.
#[derive(Clone, Debug)]
pub struct Bits([u64; ITEMS.div_ceil(64)]);

impl Bits {
    /// The set of `items`.
    pub fn of(items: &[ItemId]) -> Bits {
        let mut b = [0u64; ITEMS.div_ceil(64)];
        for i in items {
            b[i.0 as usize / 64] |= 1 << (i.0 % 64);
        }
        Bits(b)
    }

    /// Whether `self ⊆ other`.
    pub fn subset_of(&self, other: &Bits) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a & !b == 0)
    }

    /// Members.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
}

/// The 1-var succinct filter of side `var` of `bound`.
fn side_form(bound: &BoundQuery, var: Var, catalog: &Catalog) -> SuccinctForm {
    let one: Vec<_> = bound.one_var_for(var).cloned().collect();
    SuccinctForm::compile(&one, catalog)
}

/// The effective universe of `req` on side `var`: the window after the
/// query's 1-var succinct filter.
pub fn effective_universe(req: &QueryRequest, var: Var, catalog: &Catalog) -> Result<Vec<ItemId>> {
    let bound = bind_query(&parse_query(&req.query)?, catalog)?;
    let form = side_form(&bound, var, catalog);
    if form.unsatisfiable() {
        return Ok(Vec::new());
    }
    let window = match var {
        Var::S => &req.s_universe,
        Var::T => &req.t_universe,
    };
    let full: Vec<ItemId>;
    let window = if window.is_empty() {
        full = (0..catalog.n_items() as u32).map(ItemId).collect();
        &full
    } else {
        window
    };
    Ok(form.filter_universe(window))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_catalog() -> Catalog {
        let mut rng = Rng::new(3, "catalog");
        let mut b = CatalogBuilder::new(ITEMS);
        b.num_attr(
            "Price",
            (0..ITEMS).map(|_| rng.below(1000) as f64).collect(),
        )
        .unwrap();
        let types: Vec<String> = (0..ITEMS)
            .map(|_| format!("Type{}", rng.below(TYPES)))
            .collect();
        b.cat_attr("Type", &types).unwrap();
        b.build()
    }

    #[test]
    fn same_seed_same_request_streams() {
        let cat = small_catalog();
        for w in Workload::ALL {
            let a = Plan::sized(w, 11, &cat, 40).unwrap().emit(40);
            let b = Plan::sized(w, 11, &cat, 40).unwrap().emit(40);
            assert_eq!(a, b, "{}", w.name());
            let c = Plan::sized(w, 12, &cat, 40).unwrap().emit(40);
            assert_ne!(a, c, "{}: the seed must matter", w.name());
        }
    }

    #[test]
    fn generated_input_files_are_byte_identical() {
        let root = std::env::temp_dir().join(format!("perfbench-inputs-{}", std::process::id()));
        let digests = |dir: &Path| {
            let d = generate_data(dir).unwrap();
            let mut files = vec![d.db_path, d.catalog_path];
            files.extend(d.delta_paths);
            files
                .iter()
                .map(|p| crate::sha256::hex_digest(&std::fs::read(p).unwrap()))
                .collect::<Vec<_>>()
        };
        let a = digests(&root.join("a"));
        let b = digests(&root.join("b"));
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(a.len(), 2 + DELTAS);
        assert_eq!(a, b);
    }

    #[test]
    fn every_query_text_binds() {
        let cat = small_catalog();
        let mut rng = Rng::new(1, "bind");
        for class in 0..CLASSES {
            for _ in 0..20 {
                let text = palette(&mut rng, class);
                bind_query(&parse_query(&text).unwrap(), &cat).unwrap();
            }
        }
        for text in BYPASS_FORMS {
            bind_query(&parse_query(text).unwrap(), &cat).unwrap();
        }
    }

    #[test]
    fn no_cold_miss_window_is_a_subset_of_another() {
        let cat = small_catalog();
        let plan = Plan::sized(Workload::ColdMiss, 9, &cat, 150).unwrap();
        let mut effs = Vec::new();
        for k in 0..150 {
            for c in 0..2 {
                let g = plan.request(c, k).unwrap();
                for var in [Var::S, Var::T] {
                    let e = effective_universe(&g.req, var, &cat).unwrap();
                    assert!(!e.is_empty());
                    effs.push(Bits::of(&e));
                }
            }
        }
        for (i, a) in effs.iter().enumerate() {
            for (j, b) in effs.iter().enumerate() {
                assert!(
                    i == j || !a.subset_of(b),
                    "universe {i} is a subset of universe {j}"
                );
            }
        }
        // Every class appears, so the oracle can sample each one.
        let classes: std::collections::BTreeSet<usize> = (0..150)
            .map(|k| plan.request(0, k).unwrap().class)
            .collect();
        assert_eq!(classes.len(), CLASSES);
    }

    #[test]
    fn bits_subset() {
        let a = Bits::of(&[ItemId(1), ItemId(70)]);
        let b = Bits::of(&[ItemId(1), ItemId(2), ItemId(70)]);
        assert!(a.subset_of(&b) && !b.subset_of(&a) && a.subset_of(&a));
        assert_eq!(b.count(), 3);
    }
}
