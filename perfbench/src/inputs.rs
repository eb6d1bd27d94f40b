//! Generates every input of a run from its seed. The server receives
//! only what is generated here: CSV rows for `load`, and command lines.

use std::fmt::Write as _;
use std::path::Path;

use ivme_core::{brute_force, Database, DeltaBatch, EngineOptions, ShardedEngine};
use ivme_data::Tuple;
use ivme_query::Query;
use ivme_workload::{chunk_stream, two_path_db, update_stream, OmvInstance, StreamOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::*;

/// The inputs of one run.
pub struct Inputs {
    pub query_text: &'static str,
    pub query: Query,
    pub shards: usize,
    /// The database loaded before `build`.
    pub db: Database,
    /// Open-loop request rates (0 for `omv_batch`'s closed loop).
    pub write_rate: u64,
    pub read_rate: u64,
    /// One set of requests per segment of the timed phase; every segment
    /// starts from `db` on a fresh deployment.
    pub segments: Vec<Segment>,
    /// `omv_batch`: vector insert and retract scripts; round 2i inserts
    /// vector i and round 2i + 1 retracts it, so any even-length prefix
    /// nets to nothing.
    pub omv_rounds: Vec<String>,
    /// `omv_batch`: the script that loads the vector the post-run reads
    /// see, applied after each segment's writers stop.
    pub omv_final: Option<String>,
    /// Writes committed after the clean checkpoint and before `kill -9`,
    /// on top of the last segment's state.
    pub tail: Vec<String>,
    /// The database after the last segment and the tail.
    pub after_tail: Database,
}

/// The requests of one segment.
pub struct Segment {
    /// Open-loop write requests (command scripts), in send order, and
    /// the updates each carries. Empty for `omv_batch`, whose closed-loop
    /// writers draw from `omv_rounds`.
    pub writes: Vec<String>,
    pub write_updates: Vec<usize>,
    /// Read request lines, in send order.
    pub reads: Vec<String>,
    /// For each read, whether the answer is known in advance to be
    /// "not in result" (a `get` of a key outside every value domain).
    pub read_miss: Vec<bool>,
    /// The database after the segment's writes (and `omv_final`).
    pub after_run: Database,
}

impl Inputs {
    /// Inputs for `segments` segments of `seconds` each.
    pub fn generate(wl: Workload, seconds: f64, segments: usize, seed: u64) -> Inputs {
        match wl {
            Workload::TwopathChurn => twopath(seconds, segments, seed, false),
            Workload::ReplicaPages => twopath(seconds, segments, seed, true),
            Workload::OmvBatch => omv(segments, seed),
        }
    }

    /// Writes one CSV per relation of `db` into `dir` and returns the
    /// setup command lines that load them and build.
    pub fn setup_lines(&self, dir: &Path) -> Result<Vec<String>, String> {
        let mut lines = vec![
            format!("query {}", self.query_text),
            format!("epsilon {EPSILON}"),
            format!(".shards {}", self.shards),
        ];
        let mut rels = self.db.relations();
        rels.sort_unstable();
        for rel in rels {
            let mut rows = self.db.rows(rel);
            rows.sort();
            let mut csv = String::new();
            for (t, m) in rows {
                for _ in 0..m {
                    csv.push_str(&ivme_cli::proto::format_tuple(&t));
                    csv.push('\n');
                }
            }
            let path = dir.join(format!("{rel}.csv"));
            std::fs::write(&path, csv).map_err(|e| format!("{}: {e}", path.display()))?;
            lines.push(format!("load {rel} {}", path.display()));
        }
        lines.push("build".to_owned());
        Ok(lines)
    }

    /// The query result over `db`, sorted — the correctness oracle.
    pub fn oracle(&self, db: &Database) -> Vec<(Tuple, i64)> {
        let mut rows = brute_force(&self.query, db);
        rows.sort();
        rows
    }

    /// Every request the traced replay applies, in the order the server
    /// would see them: open-loop streams merged by intended send time,
    /// or for `omv_batch` a fixed number of rounds, the final vector and
    /// the reads.
    pub fn replay_requests(&self) -> Vec<String> {
        let seg = &self.segments[0];
        if !self.omv_rounds.is_empty() {
            let mut out: Vec<String> = (0..OMV_REPLAY_BATCHES)
                .map(|i| self.omv_rounds[i % self.omv_rounds.len()].clone())
                .collect();
            out.extend(self.omv_final.iter().cloned());
            out.extend(seg.reads.iter().cloned());
            return out;
        }
        let (w, r) = (self.write_rate as u128, self.read_rate as u128);
        let mut out = Vec::with_capacity(seg.writes.len() + seg.reads.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < seg.writes.len() || j < seg.reads.len() {
            // Write i is due at i/w seconds, read j at j/r.
            let write_first = j >= seg.reads.len()
                || (i < seg.writes.len() && (i as u128) * r <= (j as u128) * w);
            if write_first {
                out.push(seg.writes[i].clone());
                i += 1;
            } else {
                out.push(seg.reads[j].clone());
                j += 1;
            }
        }
        out
    }
}

fn apply_ops(db: &mut Database, ops: &[StreamOp]) {
    for op in ops {
        db.apply(&op.relation, op.tuple.clone(), op.delta);
    }
}

/// The first `two_path_db` drawn from the seed whose shape matches
/// `TWOPATH_RESULT` and `TWOPATH_AUX` within `SHAPE_TOLERANCE` (or the
/// closest of 2000 candidates).
fn sized_two_path_db(query: &Query, seed: u64) -> Database {
    let off = |got: usize, want: usize| (got as f64 / want as f64 - 1.0).abs();
    let mut best: Option<(f64, Database)> = None;
    for k in 0..2000 {
        let db = two_path_db(
            TWOPATH_N,
            TWOPATH_B_DOMAIN,
            TWOPATH_SKEW,
            derive(seed, 100 + k),
        );
        let result = off(brute_force(query, &db).len(), TWOPATH_RESULT);
        if result > SHAPE_TOLERANCE {
            continue;
        }
        let eng = ShardedEngine::new(query, &db, EngineOptions::dynamic(EPSILON), 1)
            .expect("the benchmark query is hierarchical");
        let aux = off(eng.shard(0).aux_space(), TWOPATH_AUX);
        if aux <= SHAPE_TOLERANCE {
            return db;
        }
        if best.as_ref().is_none_or(|(b, _)| aux < *b) {
            best = Some((aux, db));
        }
    }
    best.expect("some candidate matches the result size").1
}

fn update_lines(ops: &[StreamOp], batch: usize) -> (Vec<String>, Vec<usize>) {
    if batch == 1 {
        let lines = ops
            .iter()
            .map(|o| ivme_cli::proto::update_line(&o.relation, &o.tuple, o.delta) + "\n")
            .collect();
        return (lines, vec![1; ops.len()]);
    }
    let batches = chunk_stream(ops, batch);
    (
        batches.iter().map(ivme_cli::proto::batch_lines).collect(),
        batches.iter().map(DeltaBatch::cardinality).collect(),
    )
}

fn twopath(seconds: f64, segments: usize, seed: u64, replica: bool) -> Inputs {
    let n = TWOPATH_N;
    let query = ivme_query::parse_query(TWOPATH_QUERY).expect("the benchmark query parses");
    let db = sized_two_path_db(&query, seed);
    let rels = [("R", 2), ("S", 2)];
    let (write_rate, read_rate, batch) = if replica {
        (REPLICA_BATCH_RATE, REPLICA_READ_RATE, REPLICA_BATCH_SIZE)
    } else {
        (CHURN_WRITE_RATE, CHURN_READ_RATE, 1)
    };
    let stream = |len: usize, stream: u64| {
        update_stream(
            len,
            &rels,
            n,
            STREAM_SKEW,
            DELETE_RATIO,
            derive(seed, stream),
        )
    };
    // Half the `get` lookups hit the initial result; the other half ask
    // for a C value outside every generated domain, so they must miss.
    let hits = brute_force(&query, &db);
    let mut out = Vec::with_capacity(segments);
    for s in 0..segments as u64 {
        let ops = stream((write_rate as f64 * seconds) as usize * batch, 10 + s);
        let (writes, write_updates) = update_lines(&ops, batch);
        let mut after_run = db.clone();
        apply_ops(&mut after_run, &ops);
        let mut rng = StdRng::seed_from_u64(derive(seed, 1000 + s));
        let (mut reads, mut read_miss) = (Vec::new(), Vec::new());
        for i in 0..(read_rate as f64 * seconds) as usize {
            let (line, miss) = if replica {
                if i % 2 == 0 {
                    let offset = rng.gen_range(0..hits.len().max(1));
                    (format!("page {offset} {PAGE_LIMIT}\n"), false)
                } else {
                    ("count\n".to_owned(), false)
                }
            } else if rng.gen::<bool>() || hits.is_empty() {
                let a = rng.gen_range(0..n as i64);
                let c = n as i64 + rng.gen_range(0..n as i64);
                (format!("get {a},{c}\n"), true)
            } else {
                let (t, _) = &hits[rng.gen_range(0..hits.len())];
                (format!("get {}\n", ivme_cli::proto::format_tuple(t)), false)
            };
            reads.push(line);
            read_miss.push(miss);
        }
        out.push(Segment {
            writes,
            write_updates,
            reads,
            read_miss,
            after_run,
        });
    }
    let tail_ops = stream(TAIL_ROUNDS * TAIL_BATCH, 2);
    let (tail, _) = update_lines(&tail_ops, TAIL_BATCH);
    let mut after_tail = out.last().expect("at least one segment").after_run.clone();
    apply_ops(&mut after_tail, &tail_ops);
    Inputs {
        query_text: TWOPATH_QUERY,
        query,
        shards: if replica { REPLICA_SHARDS } else { 1 },
        db,
        write_rate,
        read_rate,
        segments: out,
        omv_rounds: Vec::new(),
        omv_final: None,
        tail,
        after_tail,
    }
}

/// A vector of exactly `k` distinct positions below `n`.
fn vector(rng: &mut StdRng, n: usize, k: usize) -> Vec<i64> {
    let mut v: Vec<i64> = Vec::with_capacity(k);
    while v.len() < k.min(n) {
        let j = rng.gen_range(0..n as i64);
        if !v.contains(&j) {
            v.push(j);
        }
    }
    v.sort_unstable();
    v
}

fn vector_script(v: &[i64], verb: &str) -> String {
    let mut s = String::from(".batch begin\n");
    for j in v {
        let _ = writeln!(s, "{verb} S {j}");
    }
    s.push_str(".batch commit\n");
    s
}

fn omv(segments: usize, seed: u64) -> Inputs {
    let mut inst = OmvInstance::generate(OMV_N, 0, OMV_DENSITY, derive(seed, 1));
    let mut rng = StdRng::seed_from_u64(derive(seed, 2));
    // Vectors 0..OMV_VECTORS feed the writers, the next one is the final
    // vector the reads see, and the rest feed the tail.
    let total = OMV_VECTORS + 1 + TAIL_ROUNDS;
    inst.vectors = (0..total).map(|_| vector(&mut rng, OMV_N, OMV_K)).collect();
    let mut db = Database::new();
    for t in inst.matrix_tuples() {
        db.insert("R", t, 1);
    }
    let mut omv_rounds = Vec::new();
    for v in &inst.vectors[..OMV_VECTORS] {
        omv_rounds.push(vector_script(v, "insert"));
        omv_rounds.push(vector_script(v, "delete"));
    }
    let final_v = &inst.vectors[OMV_VECTORS];
    let mut after_run = db.clone();
    for &j in final_v {
        after_run.apply("S", Tuple::ints(&[j]), 1);
    }
    // The tail only inserts, one vector per round, so every acked round
    // changes the state: a reboot that loses any of them fails the
    // recovery check.
    let mut after_tail = after_run.clone();
    let mut tail = Vec::new();
    for v in &inst.vectors[OMV_VECTORS + 1..] {
        tail.push(vector_script(v, "insert"));
        for &j in v {
            after_tail.apply("S", Tuple::ints(&[j]), 1);
        }
    }
    let segments = (0..segments)
        .map(|_| Segment {
            writes: Vec::new(),
            write_updates: Vec::new(),
            reads: vec!["list 100000\n".to_owned(); OMV_READS],
            read_miss: vec![false; OMV_READS],
            after_run: after_run.clone(),
        })
        .collect();
    Inputs {
        query_text: OMV_QUERY,
        query: ivme_query::parse_query(OMV_QUERY).expect("the benchmark query parses"),
        shards: 1,
        db,
        write_rate: 0,
        read_rate: 0,
        segments,
        omv_rounds,
        omv_final: Some(vector_script(final_v, "insert")),
        tail,
        after_tail,
    }
}
