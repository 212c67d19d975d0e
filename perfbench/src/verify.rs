//! The correctness oracle: a seeded sample of the server's replies,
//! each recomputed in-process by the one-shot optimizer on the same
//! database epoch and compared on pair count and S/T sets.

use crate::drive::Kept;
use crate::inputs::{Data, Plan, Workload, DELTAS};
use crate::rng::Rng;
use cfq_constraints::{bind_query, parse_query};
use cfq_core::{Optimizer, QueryEnv};
use cfq_engine::json::{self, Json};
use cfq_engine::QueryRequest;
use cfq_types::{Itemset, Result, TransactionDb};

type Sets = Vec<(Vec<u32>, u64)>;

/// Picks the replies to check: for every query class one kept reply at
/// a seeded position, and in `append_churn` also the first kept read
/// of every epoch. Fails when a class has no completed reply at all.
pub fn sample(
    workload: Workload,
    seed: u64,
    kept: &[Kept],
) -> std::result::Result<Vec<Kept>, String> {
    let mut rng = Rng::new(seed, "oracle-sample");
    let mut picked: Vec<Kept> = Vec::new();
    for class in 0..workload.classes() {
        let of_class: Vec<&Kept> = kept.iter().filter(|r| r.class == class).collect();
        if of_class.is_empty() {
            return Err(format!(
                "no completed reply of query class {class} to check"
            ));
        }
        picked.push(of_class[rng.below(of_class.len())].clone());
    }
    if workload == Workload::AppendChurn {
        let mut epochs = std::collections::BTreeSet::new();
        for r in kept {
            if epochs.insert(r.epoch) && !picked.iter().any(|p| p.epoch == r.epoch) {
                picked.push(r.clone());
            }
        }
    }
    picked.sort_by_key(|r| (r.epoch, r.client, r.k));
    Ok(picked)
}

/// Recomputes every sampled reply and returns one message per mismatch.
/// Epoch `e`'s database is the base plus the first `e` appends, which
/// the writer takes from the delta batches in cyclic order.
pub fn check(plan: &Plan, data: &Data, picked: &[Kept]) -> Result<Vec<String>> {
    let mut bad = Vec::new();
    let mut db_epoch = 0u64;
    let mut db = data.db.clone();
    for r in picked {
        while db_epoch < r.epoch {
            db = db.concat(&data.deltas[db_epoch as usize % DELTAS])?;
            db_epoch += 1;
        }
        let Some(g) = plan.request(r.client, r.k) else {
            bad.push(format!("reply for unknown request {}/{}", r.client, r.k));
            continue;
        };
        if let Some(why) = compare(&g.req, &db, data, &r.reply)? {
            bad.push(format!(
                "client {} request {} (class {}, epoch {}): {why}",
                r.client, r.k, r.class, r.epoch
            ));
        }
    }
    Ok(bad)
}

/// The one-shot answer to `req` on `db`: pair count and the frequent
/// valid S and T sets, sorted.
pub fn oracle(req: &QueryRequest, db: &TransactionDb, data: &Data) -> Result<(u64, Sets, Sets)> {
    let bound = bind_query(&parse_query(&req.query)?, &data.catalog)?;
    let (s_sup, t_sup) = req.support.resolve(db.len())?;
    let mut env = QueryEnv::new(db, &data.catalog, s_sup).with_supports(s_sup, t_sup);
    env.s_universe = req.s_universe.clone();
    env.t_universe = req.t_universe.clone();
    env.max_pairs = req.max_pairs;
    let out = Optimizer::default().evaluate(&bound, &env)?;
    let project = |sets: &[(Itemset, u64)]| -> Sets {
        let mut v: Sets = sets
            .iter()
            .map(|(s, n)| (s.iter().map(|i| i.0).collect(), *n))
            .collect();
        v.sort();
        v
    };
    Ok((
        out.pair_result.count,
        project(&out.s_sets),
        project(&out.t_sets),
    ))
}

fn compare(
    req: &QueryRequest,
    db: &TransactionDb,
    data: &Data,
    reply: &str,
) -> Result<Option<String>> {
    let (count, s, t) = oracle(req, db, data)?;
    let v = json::parse(reply)?;
    let Some(res) = v.get("result") else {
        return Ok(Some("not a result envelope".into()));
    };
    let got_count = res.get("pair_count").and_then(Json::as_u64);
    if got_count != Some(count) {
        return Ok(Some(format!("pair_count {got_count:?}, oracle {count}")));
    }
    for (key, want) in [("s_sets", s), ("t_sets", t)] {
        let got = reply_sets(res.get(key));
        if got.as_ref() != Some(&want) {
            return Ok(Some(format!(
                "{key} differ: {} in reply, {} from the oracle",
                got.map_or(0, |g| g.len()),
                want.len()
            )));
        }
    }
    Ok(None)
}

fn reply_sets(v: Option<&Json>) -> Option<Sets> {
    let mut out = Sets::new();
    for set in v?.as_arr()? {
        let items = set.get("items")?.as_arr()?;
        let items: Option<Vec<u32>> = items.iter().map(|i| i.as_u64().map(|n| n as u32)).collect();
        out.push((items?, set.get("support")?.as_u64()?));
    }
    out.sort();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kept(client: usize, k: usize, class: usize, epoch: u64) -> Kept {
        Kept {
            client,
            k,
            class,
            epoch,
            reply: String::new(),
        }
    }

    #[test]
    fn sample_covers_every_class_and_every_epoch() {
        let kept: Vec<Kept> = (0..40).map(|k| kept(0, k, k % 6, (k / 7) as u64)).collect();
        let picked = sample(Workload::AppendChurn, 3, &kept).unwrap();
        for class in 0..6 {
            assert!(picked.iter().any(|p| p.class == class));
        }
        for epoch in 0..=5 {
            assert!(picked.iter().any(|p| p.epoch == epoch));
        }
        assert_eq!(picked, sample(Workload::AppendChurn, 3, &kept).unwrap());
    }

    #[test]
    fn sample_fails_on_a_missing_class() {
        let kept: Vec<Kept> = (0..10).map(|k| kept(0, k, k % 2, 0)).collect();
        assert!(sample(Workload::WarmHits, 1, &kept).is_err());
    }

    impl PartialEq for Kept {
        fn eq(&self, o: &Kept) -> bool {
            (self.client, self.k, self.class, self.epoch) == (o.client, o.k, o.class, o.epoch)
        }
    }
}
