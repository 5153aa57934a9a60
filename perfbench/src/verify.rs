//! Answer verification, run after the timed window.
//!
//! Every 200 is decoded with `http::decode_recommendations` and must
//! hold the expected number of items, ids below C without duplicates,
//! and scores that do not increase. A seeded sample of exact (level 0)
//! answers is also compared byte-for-byte with an in-process reference:
//! `recommend_compiled` for the model tier, the exact scan of the full
//! table for the retrieval tiers, and the exact scan of the answering
//! shard group's rows for degraded router answers.

use crate::loadgen::Outcome;
use crate::rig::{Reference, Tier, Workload, K, QUERY_SEED};
use crate::schedule::Planned;
use etude_models::retrieval::encode_session_query;
use etude_serve::http::{decode_recommendations, encode_recommendations};
use etude_tensor::topk::score_topk;
use etude_tensor::JitOptions;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::ops::Range;

/// k served on the reduced-k rung by every tier's default ladder.
pub const REDUCED_K: usize = 5;
/// Exact answers compared byte-for-byte with the in-process reference
/// after the timed window.
pub const REFERENCE_SAMPLE: usize = 256;

/// Items a 200 at brownout `level` must carry.
pub fn expected_len(w: &Workload, level: u8, degraded: bool) -> usize {
    let k = match (w.tier, level) {
        // The router merges one reduced-k partial per answering group.
        (Tier::Sharded, 2) => REDUCED_K * if degraded { 1 } else { 2 },
        (_, 2) => REDUCED_K,
        _ => K,
    };
    k.min(w.catalog)
}

/// Checks the shape of one answer body.
pub fn check_shape(body: &[u8], catalog: usize, len: usize) -> Result<(), String> {
    let (ids, scores) = decode_recommendations(body).map_err(|e| format!("undecodable: {e:?}"))?;
    if ids.len() != len {
        return Err(format!("{} items, expected {len}", ids.len()));
    }
    if let Some(bad) = ids.iter().find(|&&i| i as usize >= catalog) {
        return Err(format!("item {bad} outside the catalog"));
    }
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate item".into());
    }
    // NaN compares as neither, so it fails the check too.
    let descending = |w: &[f32]| {
        matches!(
            w[0].partial_cmp(&w[1]),
            Some(Ordering::Greater | Ordering::Equal)
        )
    };
    if !scores.windows(2).all(descending) {
        return Err("scores increase".into());
    }
    Ok(())
}

/// Whether an answer is exact and so comparable with the reference.
fn exact(o: &Outcome) -> bool {
    o.status == 200 && o.level == 0
}

/// The reference body for a session.
pub struct Oracle<'a> {
    w: &'a Workload,
    reference: &'a Reference,
    compiled: Option<etude_tensor::CompiledGraph>,
}

impl<'a> Oracle<'a> {
    /// Prepares the reference (compiles the model graph like the server
    /// does).
    pub fn new(w: &'a Workload, reference: &'a Reference) -> Oracle<'a> {
        let compiled = match reference {
            Reference::Model { model, .. } => Some(
                etude_models::traits::compile(model.as_ref(), JitOptions::default())
                    .expect("the served model compiles"),
            ),
            Reference::Table { .. } => None,
        };
        Oracle {
            w,
            reference,
            compiled,
        }
    }

    /// The catalog rows an exact answer must have been scanned over: the
    /// whole catalog, or, for a degraded router answer, the rows of the
    /// one shard group all of its ids fall in (`Err` when they span
    /// groups or fall in none).
    pub fn rows_for(&self, o: &Outcome) -> Result<Range<usize>, String> {
        let groups = match self.reference {
            Reference::Table { groups, .. } if o.degraded && !groups.is_empty() => groups,
            _ => return Ok(0..self.w.catalog),
        };
        let (ids, _) =
            decode_recommendations(&o.body).map_err(|e| format!("undecodable: {e:?}"))?;
        groups
            .iter()
            .find(|g| ids.iter().all(|&i| g.contains(&(i as usize))))
            .cloned()
            .ok_or_else(|| "degraded answer does not come from one shard group".into())
    }

    /// The exact answer body for `session` over catalog `rows` (model
    /// tiers always scan the whole catalog).
    pub fn body(&self, session: &[u32], rows: Range<usize>) -> String {
        match self.reference {
            Reference::Model { model } => {
                let graph = self.compiled.as_ref().expect("compiled with the oracle");
                let rec = etude_models::traits::recommend_compiled(model.as_ref(), graph, session)
                    .expect("reference inference");
                encode_recommendations(&rec.items, &rec.scores)
            }
            Reference::Table { table, .. } => {
                let d = self.w.dim;
                let q = encode_session_query(session, d, QUERY_SEED);
                let slice = &table[rows.start * d..rows.end * d];
                let (mut ids, scores) = score_topk(slice, &q, rows.len(), K);
                for id in &mut ids {
                    *id += rows.start as u32;
                }
                encode_recommendations(&ids, &scores)
            }
        }
    }
}

/// Verification result of one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Per request: failed a check.
    pub wrong: Vec<bool>,
    /// 200s whose shape was checked.
    pub shape_checked: usize,
    /// Exact answers compared with the reference.
    pub reference_checked: usize,
    /// A deliberately corrupted answer was caught.
    pub corruption_caught: bool,
    /// First failure, for the report.
    pub first_failure: Option<String>,
}

impl Verdict {
    /// Wrong answers.
    pub fn wrong_count(&self) -> usize {
        self.wrong.iter().filter(|&&w| w).count()
    }
}

/// Checks every answer of a run; `seed` picks the reference sample.
pub fn verify(
    w: &Workload,
    oracle: &Oracle<'_>,
    plan: &[Planned],
    outcomes: &[Outcome],
    seed: u64,
) -> Verdict {
    let mut v = Verdict {
        wrong: vec![false; outcomes.len()],
        ..Verdict::default()
    };
    let fail = |v: &mut Verdict, i: usize, why: String| {
        v.wrong[i] = true;
        v.first_failure
            .get_or_insert_with(|| format!("request {i}: {why}"));
    };
    for (i, o) in outcomes.iter().enumerate() {
        if o.status != 0 && !o.id_matched {
            fail(&mut v, i, "answer for another request".into());
            continue;
        }
        if o.status != 200 {
            continue;
        }
        v.shape_checked += 1;
        if let Err(e) = check_shape(&o.body, w.catalog, expected_len(w, o.level, o.degraded)) {
            fail(&mut v, i, e);
        }
    }
    let eligible: Vec<usize> = (0..outcomes.len())
        .filter(|&i| exact(&outcomes[i]) && !v.wrong[i])
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0c4e_c4ed);
    let mut sample: Vec<usize> = if eligible.len() <= REFERENCE_SAMPLE {
        eligible
    } else {
        (0..REFERENCE_SAMPLE)
            .map(|_| eligible[rng.gen_range(0..eligible.len())])
            .collect()
    };
    sample.sort_unstable();
    sample.dedup();
    for &i in &sample {
        let o = &outcomes[i];
        v.reference_checked += 1;
        match oracle.rows_for(o) {
            Ok(rows) => {
                let want = oracle.body(&plan[i].session, rows);
                if o.body[..] != *want.as_bytes() {
                    fail(&mut v, i, format!("differs from the reference: {want}"));
                }
            }
            Err(e) => fail(&mut v, i, e),
        }
    }
    // Self-test: a corrupted copy of a checked answer must be caught.
    v.corruption_caught = match sample.first() {
        Some(&i) => {
            let o = &outcomes[i];
            let bad = corrupt(&o.body);
            let want = oracle.body(&plan[i].session, oracle.rows_for(o).unwrap_or(0..w.catalog));
            check_shape(&bad, w.catalog, expected_len(w, o.level, o.degraded)).is_err()
                && bad != want.as_bytes()
        }
        None => true,
    };
    v
}

/// Corrupts an answer body: the first item is replaced by the second,
/// which duplicates an id and changes the bytes.
pub fn corrupt(body: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(body);
    let mut pairs: Vec<&str> = text.split(',').collect();
    if pairs.len() >= 2 {
        let second_id = pairs[1].split(':').next().unwrap_or("0");
        let first_score = pairs[0].split(':').nth(1).unwrap_or("0");
        let replaced = format!("{second_id}:{first_score}");
        let mut out = replaced;
        for p in pairs.drain(1..) {
            out.push(',');
            out.push_str(p);
        }
        out.into_bytes()
    } else {
        b"not-an-answer".to_vec()
    }
}
