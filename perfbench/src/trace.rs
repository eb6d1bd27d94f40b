//! The traced run: replays a workload's generated requests in-process,
//! one at a time, through each layer's public functions, and records a
//! span `{name, start, end, parent, request_id}` around every call. The
//! spans stay in memory and are written out when the replay ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ivme_cli::proto::{self, Command};
use ivme_cli::render;
use ivme_core::{Database, DeltaBatch, EngineOptions, Mode, ShardedEngine, ShardedSnapshot};
use ivme_server::snapshot::{self, SnapshotData};
use ivme_server::wal::{self, Wal};

use crate::inputs::Inputs;
use crate::spec::EPSILON;

/// One recorded span; times are ns since the tracer started.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
}

/// An in-memory span recorder. When off, `begin`/`end` do nothing, so
/// the same replay code measures the tracing overhead.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    /// Counts recorded at the same boundaries, per name.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request_id: self.request,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let i = self.stack.pop().expect("end without begin");
        self.spans[i].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.entry(name).or_default().push(value);
        }
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_out(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"request_id\":{}}}",
                s.name, s.start, s.end, parent, s.request_id
            );
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What one replay produced besides its spans.
pub struct Replay {
    /// Wall time of the request loop alone, s.
    pub requests_secs: f64,
    pub aux_tuples: usize,
    pub rebalances: u64,
    pub updates: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    /// The replayed result and the recovered one, sorted.
    pub result: Vec<(ivme_data::Tuple, i64)>,
    pub recovered: Vec<(ivme_data::Tuple, i64)>,
    /// Indexes (into the request list) of write requests.
    pub write_ids: Vec<u64>,
}

struct State<'a> {
    tr: &'a mut Tracer,
    q: &'a ivme_query::Query,
    eng: ShardedEngine,
    snap: ShardedSnapshot,
    epoch: u64,
    wal: Wal,
    updates: u64,
}

impl State<'_> {
    fn commit(&mut self, batch: DeltaBatch) -> Result<(), String> {
        let card = batch.cardinality();
        let eng = &mut self.eng;
        self.tr
            .span("core.apply", || eng.apply_delta_batch(&batch))
            .map_err(|e| format!("replayed batch rejected: {e}"))?;
        self.tr.count("core.updates", card as f64);
        self.updates += card as u64;
        self.epoch += 1;
        let (eng, epoch) = (&self.eng, self.epoch);
        self.snap = self.tr.span("core.publish", || eng.snapshot(epoch));
        self.tr
            .count("core.publish_tuples", self.snap.count_distinct() as f64);
        let text = self.tr.span("proto.encode", || proto::batch_lines(&batch));
        let wal = &mut self.wal;
        self.tr
            .span("wal.append", || wal.append(epoch, &text))
            .map_err(|e| format!("WAL append: {e}"))?;
        let wal = &mut self.wal;
        self.tr
            .span("wal.fsync", || wal.sync())
            .map_err(|e| format!("WAL fsync: {e}"))
    }

    fn read(&mut self, cmd: Command) -> Result<(), String> {
        let snap = &self.snap;
        let q = self.q;
        if let Command::Get(t) = &cmd {
            std::hint::black_box(self.tr.span("core.lookup", || snap.multiplicity(t)));
        }
        let mut framed = Vec::new();
        let rendered = self.tr.span("render", || {
            let out = match cmd {
                Command::Get(t) => render::render_get(snap, q, &t),
                Command::Page { offset, limit } => Ok(render::render_page(snap, offset, limit)),
                Command::Count => Ok(render::render_count(snap)),
                Command::List { limit } => Ok(render::render_list(snap, limit)),
                other => Err(format!("not a benchmark read: {other:?}")),
            };
            out.map(|o| proto::write_ok(&mut framed, &o))
        });
        rendered?.map_err(|e| format!("render: {e}"))?;
        self.tr.count("render.bytes", framed.len() as f64);
        Ok(())
    }

    /// One request script, parsed line by line like a connection does.
    fn request(&mut self, script: &str) -> Result<bool, String> {
        let mut pending: Option<DeltaBatch> = None;
        let mut wrote = false;
        for line in script.lines() {
            let cmd = self
                .tr
                .span("proto.parse", || proto::parse_command(line))?
                .ok_or("blank request line")?;
            match cmd {
                Command::BatchBegin => pending = Some(DeltaBatch::new()),
                Command::BatchCommit => {
                    let b = pending.take().ok_or("commit without begin")?;
                    self.commit(b)?;
                    wrote = true;
                }
                Command::Update {
                    relation,
                    tuple,
                    delta,
                } => match pending.as_mut() {
                    Some(b) => b.push(&relation, tuple, delta),
                    None => {
                        let mut b = DeltaBatch::new();
                        b.push(&relation, tuple, delta);
                        self.commit(b)?;
                        wrote = true;
                    }
                },
                cmd => self.read(cmd)?,
            }
        }
        Ok(wrote)
    }
}

/// Replays `requests` against a fresh engine built from `inp.db`, with
/// its WAL and snapshot in `dir`, then recovers from them the way a boot
/// does (scan, parse, rebuild, apply).
pub fn replay(
    tr: &mut Tracer,
    inp: &Inputs,
    requests: &[String],
    dir: &Path,
) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let opts = EngineOptions {
        epsilon: EPSILON,
        mode: Mode::Dynamic,
    };
    let q = tr
        .span("query.parse", || ivme_query::parse_query(inp.query_text))
        .map_err(|e| e.to_string())?;
    tr.span("plan.compile", || ivme_plan::compile(&q, Mode::Dynamic))
        .map_err(|e| e.to_string())?;
    let eng = tr
        .span("core.build", || {
            ShardedEngine::new(&q, &inp.db, opts, inp.shards)
        })
        .map_err(|e| e.to_string())?;
    let aux_tuples = (0..eng.num_shards())
        .map(|s| eng.shard(s).aux_space())
        .sum();

    // The checkpoint a boot starts from: the built state.
    let epoch0 = 1;
    let data = SnapshotData {
        epoch: epoch0,
        epsilon: EPSILON,
        shards: inp.shards,
        query: Some(q.to_string()),
        built: true,
        base: eng.export_database(),
        ..SnapshotData::default()
    };
    let snap_path = tr
        .span("snapshot.write", || snapshot::write(dir, &data))
        .map_err(|e| format!("snapshot write: {e}"))?;
    let snapshot_bytes = std::fs::metadata(&snap_path).map_or(0, |m| m.len());
    let wal_path = dir.join("wal.log");
    let wal = Wal::create(&wal_path, epoch0).map_err(|e| format!("WAL create: {e}"))?;
    let wal_start = std::fs::metadata(&wal_path).map_or(0, |m| m.len());

    let snap = eng.snapshot(epoch0);
    let mut st = State {
        tr,
        q: &q,
        eng,
        snap,
        epoch: epoch0,
        wal,
        updates: 0,
    };
    let mut write_ids = Vec::new();
    let t0 = Instant::now();
    for (i, script) in requests.iter().enumerate() {
        st.tr.request = i as u64;
        st.tr.begin("request");
        let wrote = st.request(script)?;
        st.tr.end();
        if wrote {
            write_ids.push(i as u64);
        }
    }
    let requests_secs = t0.elapsed().as_secs_f64();
    st.tr.request = requests.len() as u64;
    let State {
        tr,
        eng,
        wal,
        updates,
        ..
    } = st;
    drop(wal);
    let wal_bytes = std::fs::metadata(&wal_path).map_or(0, |m| m.len()) - wal_start;

    // The paper's enumeration: every shard engine's own result iterator.
    tr.begin("core.enum");
    let mut tuples = 0usize;
    for s in 0..eng.num_shards() {
        tuples += eng.shard(s).enumerate().count();
    }
    tr.end();
    tr.count("core.enum_tuples", tuples as f64);

    // Recovery, as a boot does it.
    let (_, frames) = tr
        .span("recovery.scan", || wal::scan(&wal_path))
        .map_err(|e| format!("WAL scan: {e}"))?;
    let text = std::fs::read_to_string(&snap_path).map_err(|e| format!("snapshot read: {e}"))?;
    let loaded = tr
        .span("snapshot.parse", || snapshot::parse(&text))
        .map_err(|e| format!("snapshot parse: {e}"))?;
    tr.begin("recovery.apply");
    let recovered = recover(&q, &loaded.base, inp.shards, &frames);
    tr.end();
    let recovered = recovered?;

    let stats = eng.stats();
    Ok(Replay {
        requests_secs,
        aux_tuples,
        rebalances: stats.major_rebalances + stats.minor_rebalances,
        updates,
        wal_bytes,
        snapshot_bytes,
        result: eng.result_sorted(),
        recovered,
        write_ids,
    })
}

/// Rebuilds the engine from a checkpoint's base relations and applies
/// every logged frame.
fn recover(
    q: &ivme_query::Query,
    base: &Database,
    shards: usize,
    frames: &[wal::Frame],
) -> Result<Vec<(ivme_data::Tuple, i64)>, String> {
    let opts = EngineOptions {
        epsilon: EPSILON,
        mode: Mode::Dynamic,
    };
    let mut eng = ShardedEngine::new(q, base, opts, shards).map_err(|e| e.to_string())?;
    for f in frames {
        let mut batch = DeltaBatch::new();
        for line in f.text.lines() {
            if let Some(Command::Update {
                relation,
                tuple,
                delta,
            }) = proto::parse_command(line)?
            {
                batch.push(&relation, tuple, delta);
            }
        }
        eng.apply_delta_batch(&batch)
            .map_err(|e| format!("recovery apply at epoch {}: {e}", f.epoch))?;
    }
    Ok(eng.result_sorted())
}
