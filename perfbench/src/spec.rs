//! The frozen workload parameters and seeds.
//!
//! Every size and rate the benchmark uses lives here, and every one of
//! them is recorded in each result's provenance, so two results whose
//! parameters differ are never compared (see `record::compare`).
//! Changing a value here changes the benchmark: do it in a change of its
//! own, never in one that claims a gain.

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// The held-out seed: correctness must also pass on it, and a claimed
/// gain must hold on it, but it is not used while tuning a change.
pub const VERIFY_SEED: u64 = 7;

/// ε for every workload: the paper's weakly Pareto-optimal point.
pub const EPSILON: f64 = 0.5;
/// The timed phase runs in this many segments of equal length, each on a
/// fresh deployment set up from scratch. A server process's own state
/// (where the kernel places its threads, how its allocator's arenas fall)
/// moves its tail latency by tens of percent for its whole life; medians
/// over segments keep one unlucky process from setting a run's result.
pub const SEGMENTS: usize = 10;
/// Deployments per run that are only set up and torn down, one after
/// another on a quiet machine before the segments: `setup_s` is their
/// median. (A segment's own set-up follows the previous segment's load
/// and teardown, and takes longer by a varying amount.)
pub const SETUP_REPS: usize = 15;
/// `kill -9` + reboot cycles per run; `recovery_s` is their median.
pub const RECOVERY_REPS: usize = 21;

/// The δ1 query of `twopath_churn` and `replica_pages`.
pub const TWOPATH_QUERY: &str = "Q(A,C) :- R(A,B), S(B,C)";
/// The OMv query of `omv_batch`.
pub const OMV_QUERY: &str = "Q(A) :- R(A,B), S(B)";

/// `two_path_db` size: tuples per relation, and the Zipf(1.0) domain of
/// the join column. Each published snapshot re-merges the whole result.
pub const TWOPATH_N: usize = 768;
pub const TWOPATH_B_DOMAIN: usize = 768;
pub const TWOPATH_SKEW: f64 = 1.0;
/// The shape every seed's database is drawn to: its result size, and
/// the engine's auxiliary space after `build` (which moves with how many
/// join keys land on the heavy side of the ε = ½ threshold), each within
/// `SHAPE_TOLERANCE`. Both set the cost of a publish, so without them a
/// seed that drew a larger heavy key would be a different workload.
pub const TWOPATH_RESULT: usize = 16_000;
pub const TWOPATH_AUX: usize = 10_400;
pub const SHAPE_TOLERANCE: f64 = 0.02;
/// Share of `update_stream` operations that delete an earlier insert.
pub const DELETE_RATIO: f64 = 0.25;
/// Zipf exponent of the update streams' values. Uniform, so the churn
/// does not pile onto the database's heavy join keys and the result
/// (and with it every write's cost) stays about the same size for the
/// whole run.
pub const STREAM_SKEW: f64 = 0.0;

/// `twopath_churn`: single-tuple writes per second on one connection.
/// Every open-loop rate is about half of what its connection carries in
/// a closed loop while the other one runs at its rate (`--capacity`; the
/// measurements are in the README).
pub const CHURN_WRITE_RATE: u64 = 65;
/// `twopath_churn`: `get` lookups per second on the other connection.
pub const CHURN_READ_RATE: u64 = 25000;
/// Write rounds committed after the clean checkpoint and before the
/// `kill -9`: every workload's reboot replays this many rounds.
pub const TAIL_ROUNDS: usize = 16;
/// Updates per tail round on the two-path workloads (`omv_batch`'s are
/// its vector batches). Replaying them, not starting the process, is
/// then most of a reboot, so `recovery_s` measures recovery.
pub const TAIL_BATCH: usize = 128;

/// `replica_pages`: shards of the primary (and replica) engine.
pub const REPLICA_SHARDS: usize = 2;
/// `replica_pages`: write batches per second to the primary.
pub const REPLICA_BATCH_RATE: u64 = 32;
/// `replica_pages`: updates per write batch.
pub const REPLICA_BATCH_SIZE: usize = 4;
/// `replica_pages`: `page`/`count` reads per second to the replica.
pub const REPLICA_READ_RATE: u64 = 15000;
/// `replica_pages`: tuples per `page` read.
pub const PAGE_LIMIT: usize = 100;

/// `omv_batch`: matrix dimension n (the result has at most n tuples).
pub const OMV_N: usize = 1024;
/// `omv_batch`: matrix entry density; 1/64 gives about 16k entries.
pub const OMV_DENSITY: f64 = 1.0 / 64.0;
/// `omv_batch`: vector entries per update batch (k). Large enough that a
/// round's apply, not its fsync, sets the pace of the closed loop.
pub const OMV_K: usize = 512;
/// `omv_batch`: distinct vectors the writers cycle through.
pub const OMV_VECTORS: usize = 64;
/// `omv_batch`: closed-loop writer connections.
pub const OMV_WRITERS: usize = 2;
/// `omv_batch`: closed-loop `list` reads after each segment's writers
/// stop.
pub const OMV_READS: usize = 1000;
/// `omv_batch`: batches the traced replay applies (the closed loop's
/// count depends on speed, so the replay uses a fixed one).
pub const OMV_REPLAY_BATCHES: usize = 512;

/// The three workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TwopathChurn,
    OmvBatch,
    ReplicaPages,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "twopath_churn" => Some(Workload::TwopathChurn),
            "omv_batch" => Some(Workload::OmvBatch),
            "replica_pages" => Some(Workload::ReplicaPages),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TwopathChurn => "twopath_churn",
            Workload::OmvBatch => "omv_batch",
            Workload::ReplicaPages => "replica_pages",
        }
    }

    /// Every parameter this workload's run depends on, for provenance.
    pub fn params(self) -> Vec<(&'static str, String)> {
        let mut p = vec![
            ("epsilon", EPSILON.to_string()),
            ("segments", SEGMENTS.to_string()),
            ("setup_reps", SETUP_REPS.to_string()),
            ("recovery_reps", RECOVERY_REPS.to_string()),
            ("tail_rounds", TAIL_ROUNDS.to_string()),
            ("tail_batch", TAIL_BATCH.to_string()),
            ("fsync", "group".to_owned()),
        ];
        match self {
            Workload::TwopathChurn | Workload::ReplicaPages => {
                p.push(("query", TWOPATH_QUERY.to_owned()));
                p.push(("n", TWOPATH_N.to_string()));
                p.push(("b_domain", TWOPATH_B_DOMAIN.to_string()));
                p.push(("skew", TWOPATH_SKEW.to_string()));
                p.push(("result_target", TWOPATH_RESULT.to_string()));
                p.push(("aux_target", TWOPATH_AUX.to_string()));
                p.push(("shape_tolerance", SHAPE_TOLERANCE.to_string()));
                p.push(("stream_skew", STREAM_SKEW.to_string()));
                p.push(("delete_ratio", DELETE_RATIO.to_string()));
            }
            Workload::OmvBatch => {
                p.push(("query", OMV_QUERY.to_owned()));
                p.push(("omv_n", OMV_N.to_string()));
                p.push(("omv_density", OMV_DENSITY.to_string()));
                p.push(("omv_k", OMV_K.to_string()));
                p.push(("omv_vectors", OMV_VECTORS.to_string()));
                p.push(("omv_writers", OMV_WRITERS.to_string()));
                p.push(("omv_reads", OMV_READS.to_string()));
                p.push(("omv_replay_batches", OMV_REPLAY_BATCHES.to_string()));
            }
        }
        match self {
            Workload::TwopathChurn => {
                p.push(("shards", "1".to_owned()));
                p.push(("write_rate", CHURN_WRITE_RATE.to_string()));
                p.push(("read_rate", CHURN_READ_RATE.to_string()));
            }
            Workload::ReplicaPages => {
                p.push(("shards", REPLICA_SHARDS.to_string()));
                p.push(("batch_rate", REPLICA_BATCH_RATE.to_string()));
                p.push(("batch_size", REPLICA_BATCH_SIZE.to_string()));
                p.push(("read_rate", REPLICA_READ_RATE.to_string()));
                p.push(("page_limit", PAGE_LIMIT.to_string()));
            }
            Workload::OmvBatch => p.push(("shards", "1".to_owned())),
        }
        p
    }
}

/// Derives an independent generator seed for one input stream of a run,
/// so every stream changes with `--seed` and no two streams share one.
pub fn derive(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
