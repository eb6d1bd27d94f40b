//! The end-to-end run: a real `ivme-server` (and replica) as child
//! processes, driven over loopback TCP from at most two threads and two
//! connections. With `sample` set (the traced run only) extra
//! connections also sample the servers' `stats` while the load runs.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ivme_data::Tuple;
use ivme_workload::{parse_listing, poll_stat, stat_field, Client};

use crate::inputs::{Inputs, Segment};
use crate::server::{Launch, Proc};
use crate::spec::*;
use crate::wire::{drive, tighten_timer_slack, Conn, Pace, Req, Response, Timing};

/// What the end-to-end run measured and checked.
#[derive(Default)]
pub struct E2e {
    pub segments: Vec<SegmentRun>,
    /// Set-up times of the deployments that only set up (`setup_s`).
    pub setups: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness mismatches; any one makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Traced run only.
    pub sampled: Option<Sampled>,
}

/// One segment: a fresh deployment, set up and then loaded.
pub struct SegmentRun {
    pub setup_s: f64,
    pub writes: Vec<Timing>,
    /// Updates each write request carried (0 when it failed).
    pub write_updates: Vec<u64>,
    pub reads: Vec<Timing>,
    /// Peak resident memory of the primary after the segment.
    pub rss_mb: f64,
    /// Share of the machine's CPU time stolen by its hypervisor during the
    /// timed phase (`/proc/stat`), 0 where that is not reported.
    pub steal_share: f64,
}

/// (steal, total) CPU jiffies so far, from the `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// What the `stats` samplers saw during the timed phase (traced run).
#[derive(Default)]
pub struct Sampled {
    /// Primary `snapshot_epoch` at the start and end of the timed phase.
    pub epochs: (u64, u64),
    pub fsync_backlog_max: u64,
    pub snapshot_busy_share: f64,
    /// Replica: the largest `replication_lag_frames` seen.
    pub repl_lag_frames_max: u64,
    /// Replica: per write batch, ms from the primary's ack until the
    /// replica was first seen serving that batch's epoch.
    pub repl_lag_ms: Vec<f64>,
    /// Blank-line round trips to the primary, µs.
    pub noop_us: Vec<f64>,
}

pub struct Opts<'a> {
    pub bin: &'a Path,
    pub work: &'a Path,
    /// Length of each segment's timed phase.
    pub segment: Duration,
    pub sample: bool,
}

impl E2e {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    fn count(&mut self, timings: &[Timing]) {
        self.attempted += timings.len() as u64;
        self.failed += timings.iter().filter(|t| !t.ok).count() as u64;
    }
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One `stats` field from a live endpoint.
fn stat(addr: SocketAddr, key: &str) -> Result<u64, String> {
    poll_stat(addr, key).ok_or_else(|| format!("no `{key}` in the stats of {addr}"))
}

/// The full served result, sorted.
fn listing(addr: SocketAddr) -> Result<Vec<(Tuple, i64)>, String> {
    let mut conn = Client::connect(addr).map_err(io("connect"))?;
    match conn.request("list 1000000000").map_err(io("list"))? {
        Ok(payload) => parse_listing(&payload),
        Err(e) => Err(format!("list: {e}")),
    }
}

/// Sends a script and waits for all its responses; `Err` names the
/// first `err` response.
fn run_script(conn: &mut Conn, script: &str) -> Result<(), String> {
    conn.send(script).map_err(io("send"))?;
    let mut first_err = None;
    for _ in 0..script.lines().count() {
        match conn.recv(None).map_err(io("recv"))? {
            Some(Ok(_)) => {}
            Some(Err(e)) => {
                first_err.get_or_insert(e);
            }
            None => return Err("no response".to_owned()),
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// Polls `addr`'s `stats` until `key` reaches `target`. Polls back to
/// back: `ivme_workload::wait_for_stat` sleeps 10 ms between polls, which
/// would round `setup_s` on `replica_pages` up by as much.
fn wait_stat(addr: SocketAddr, key: &str, target: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while poll_stat(addr, key).is_none_or(|v| v < target) {
        if Instant::now() > deadline {
            return Err(format!("{addr} never reached {key} = {target}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

struct Deployment {
    primary: Proc,
    replica: Option<Proc>,
    launch: Launch,
}

/// Starts a fresh primary (and replica), then loads and builds. Returns
/// the deployment and the set-up time: from the first command until the
/// build is acked — or, with a replica, until the replica serves the
/// build epoch.
fn setup(
    wl: Workload,
    opts: &Opts,
    rep: usize,
    lines: &[String],
) -> Result<(Deployment, f64), String> {
    let data = opts.work.join(format!("data-{rep}"));
    std::fs::create_dir_all(&data).map_err(io("data dir"))?;
    let with_replica = wl == Workload::ReplicaPages;
    let launch = Launch::primary(opts.bin, &data, with_replica, opts.work.join("primary.log"));
    let primary = launch.start()?;
    let replica = match primary.repl_addr {
        Some(r) => Some(Launch::replica(opts.bin, r, opts.work.join("replica.log")).start()?),
        None => None,
    };
    let mut conn = Client::connect(primary.addr).map_err(io("connect"))?;
    let t0 = Instant::now();
    for line in lines {
        match conn.request(line).map_err(io("setup"))? {
            Ok(_) => {}
            Err(e) => return Err(format!("`{line}` failed: {e}")),
        }
    }
    if let Some(r) = &replica {
        wait_stat(
            r.addr,
            "snapshot_epoch",
            stat(primary.addr, "snapshot_epoch")?,
        )?;
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Deployment {
            primary,
            replica,
            launch,
        },
        secs,
    ))
}

/// Checks a `get a,c` answer: well formed, and "not in result" when the
/// key lies outside every generated domain.
fn check_get(resp: &Response, must_miss: bool) -> bool {
    match resp {
        Ok(p) => {
            let p = p.trim_end();
            if p.ends_with(" not in result") {
                return true;
            }
            !must_miss
                && p.rsplit_once(" x")
                    .and_then(|(_, m)| m.parse::<i64>().ok())
                    .is_some_and(|m| m > 0)
        }
        Err(_) => false,
    }
}

/// Checks a `page` or `count` answer from the replica.
fn check_page_or_count(resp: &Response, is_page: bool) -> bool {
    match resp {
        Ok(p) if is_page => {
            let lines: Vec<&str> = p.lines().collect();
            lines.len() <= PAGE_LIMIT + 1
                && lines
                    .last()
                    .is_some_and(|l| l.contains(" tuples at offset "))
        }
        Ok(p) => p.trim().parse::<u64>().is_ok(),
        Err(_) => false,
    }
}

/// Samples the primary's `stats` every 10 ms until `stop`.
fn sample_primary(addr: SocketAddr, stop: &AtomicBool) -> Result<(u64, f64), String> {
    let mut conn = Client::connect(addr).map_err(io("connect"))?;
    let (mut backlog_max, mut busy, mut n) = (0u64, 0u64, 0u64);
    while !stop.load(Ordering::Relaxed) {
        if let Ok(Ok(p)) = conn.request("stats") {
            backlog_max = backlog_max.max(stat_field(&p, "fsync_backlog").unwrap_or(0));
            busy += stat_field(&p, "snapshot_in_progress").unwrap_or(0);
            n += 1;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok((backlog_max, busy as f64 / n.max(1) as f64))
}

/// Polls the replica's `stats` back to back until `stop`: each sample is
/// (receive offset from `origin`, served `snapshot_epoch`, lag frames).
/// The served epoch, not `replica_epoch`: the replica advances the
/// latter before it publishes the view that serves it.
fn sample_replica(
    addr: SocketAddr,
    origin: Instant,
    stop: &AtomicBool,
) -> Result<Vec<(Duration, u64, u64)>, String> {
    let mut conn = Client::connect(addr).map_err(io("connect"))?;
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        if let Ok(Ok(p)) = conn.request("stats") {
            let at = Instant::now().saturating_duration_since(origin);
            out.push((
                at,
                stat_field(&p, "snapshot_epoch").unwrap_or(0),
                stat_field(&p, "replication_lag_frames").unwrap_or(0),
            ));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(out)
}

/// Runs one workload end to end: every segment on a fresh deployment,
/// then the recovery cycle on the last one.
pub fn run(wl: Workload, inp: &Inputs, opts: &Opts) -> Result<E2e, String> {
    tighten_timer_slack();
    let mut out = E2e::default();
    let lines = inp.setup_lines(opts.work)?;
    for k in 0..SETUP_REPS {
        let rep = inp.segments.len() + k;
        let (dep, setup_s) = setup(wl, opts, rep, &lines)?;
        drop(dep);
        let _ = std::fs::remove_dir_all(opts.work.join(format!("data-{rep}")));
        out.setups.push(setup_s);
    }
    let mut last: Option<Deployment> = None;
    for (i, seg) in inp.segments.iter().enumerate() {
        if let Some(prev) = last.take() {
            drop(prev);
            let _ = std::fs::remove_dir_all(opts.work.join(format!("data-{}", i - 1)));
        }
        let (dep, setup_s) = setup(wl, opts, i, &lines)?;
        segment(wl, inp, seg, opts, &dep, setup_s, &mut out)?;
        last = Some(dep);
    }
    recover(wl, inp, last.expect("at least one segment"), &mut out)?;
    Ok(out)
}

/// Each connection's closed-loop capacity, in requests per second, while
/// the other connection runs at its frozen open-loop rate, each measured
/// for `secs` on a fresh deployment: (writes, reads). `spec`'s open-loop
/// rates are about half of these. `inp` must hold requests for far more
/// than `secs` at the frozen rates; every response must be `ok`.
pub fn capacity(wl: Workload, inp: &Inputs, opts: &Opts, secs: f64) -> Result<[f64; 2], String> {
    let lines = inp.setup_lines(opts.work)?;
    let seg = &inp.segments[0];
    let streams = [(&seg.writes, inp.write_rate), (&seg.reads, inp.read_rate)];
    let mut caps = [0.0; 2];
    for (side, cap) in caps.iter_mut().enumerate() {
        let (dep, _) = setup(wl, opts, side, &lines)?;
        let write_addr = dep.primary.addr;
        let read_addr = dep.replica.as_ref().map_or(write_addr, |r| r.addr);
        let origin = Instant::now() + Duration::from_millis(20);
        let until = origin + Duration::from_secs_f64(secs);
        let load = |k: usize, addr: SocketAddr| {
            let (list, rate) = streams[k];
            let mut conn = Conn::connect(addr).map_err(io("connect"))?;
            tighten_timer_slack();
            std::thread::sleep(origin.saturating_duration_since(Instant::now()));
            let (pace, n) = if k == side {
                (Pace::Closed { until }, list.len())
            } else {
                let interval = Duration::from_secs_f64(1.0 / rate as f64);
                (Pace::Open { interval }, (rate as f64 * secs) as usize)
            };
            let next = &mut |i: usize| (i < n).then(|| Req::script(list[i].clone()));
            drive(&mut conn, origin, pace, next, &mut |_, _, r| r.is_ok()).map_err(io("capacity"))
        };
        let (writes, reads) = std::thread::scope(|s| {
            let writer = s.spawn(|| load(0, write_addr));
            let reads = load(1, read_addr);
            (writer.join().expect("writer thread panicked"), reads)
        });
        let runs = [writes?, reads?];
        if runs.iter().flatten().any(|t| !t.ok) {
            return Err("a request failed while measuring capacity".to_owned());
        }
        let closed = &runs[side];
        if closed.len() == streams[side].0.len() {
            return Err("the capacity probe ran out of requests".to_owned());
        }
        let span = match (closed.first(), closed.last()) {
            (Some(a), Some(b)) => (b.done - a.intended).as_secs_f64(),
            _ => return Err("the capacity probe completed no request".to_owned()),
        };
        *cap = closed.len() as f64 / span;
    }
    Ok(caps)
}

/// One segment's timed phase on `dep`, then its correctness checks.
fn segment(
    wl: Workload,
    inp: &Inputs,
    seg: &Segment,
    opts: &Opts,
    dep: &Deployment,
    setup_s: f64,
    out: &mut E2e,
) -> Result<(), String> {
    let write_addr = dep.primary.addr;
    let read_addr = dep.replica.as_ref().map_or(write_addr, |r| r.addr);
    let stop = AtomicBool::new(false);
    let epoch0 = if opts.sample {
        stat(write_addr, "snapshot_epoch")?
    } else {
        0
    };
    let mut write_conn = Conn::connect(write_addr).map_err(io("connect"))?;
    let mut read_conn = Conn::connect(read_addr).map_err(io("connect"))?;
    let origin = Instant::now() + Duration::from_millis(20);
    let until = origin + opts.segment;
    let jiffies0 = cpu_jiffies();
    let (writes, reads, primary_samples, replica_samples) = std::thread::scope(|s| {
        let primary_sampler = opts
            .sample
            .then(|| s.spawn(|| sample_primary(write_addr, &stop)));
        let replica_sampler = dep
            .replica
            .as_ref()
            .filter(|_| opts.sample)
            .map(|r| s.spawn(|| sample_replica(r.addr, origin, &stop)));
        let writer = s.spawn(|| {
            tighten_timer_slack();
            if wl == Workload::OmvBatch {
                return omv_writer(&mut write_conn, inp, origin, until, 0);
            }
            let interval = Duration::from_secs_f64(1.0 / inp.write_rate as f64);
            drive(
                &mut write_conn,
                origin,
                Pace::Open { interval },
                &mut |i| seg.writes.get(i).map(|t| Req::script(t.clone())),
                &mut |_, _, r| r.is_ok(),
            )
            .map_err(io("writes"))
        });
        // `omv_batch` has no readers: this thread is its second writer.
        let reads = if wl == Workload::OmvBatch {
            omv_writer(&mut read_conn, inp, origin, until, 1)
        } else {
            let interval = Duration::from_secs_f64(1.0 / inp.read_rate as f64);
            drive(
                &mut read_conn,
                origin,
                Pace::Open { interval },
                &mut |i| seg.reads.get(i).map(|t| Req::script(t.clone())),
                &mut |i, _, r| {
                    if wl == Workload::ReplicaPages {
                        check_page_or_count(r, seg.reads[i].starts_with("page"))
                    } else {
                        check_get(r, seg.read_miss[i])
                    }
                },
            )
            .map_err(io("reads"))
        };
        let writes = writer.join().expect("writer thread panicked");
        // Let the replica catch up before the samplers stop.
        if let (true, Some(r)) = (opts.sample, &dep.replica) {
            let _ = wait_stat(r.addr, "snapshot_epoch", epoch0 + seg.writes.len() as u64);
        }
        stop.store(true, Ordering::Relaxed);
        let p = primary_sampler.map(|h| h.join().expect("sampler panicked"));
        let r = replica_sampler.map(|h| h.join().expect("sampler panicked"));
        (writes, reads, p, r)
    });
    let jiffies1 = cpu_jiffies();
    let steal_share = (jiffies1.0 - jiffies0.0) as f64 / (jiffies1.1 - jiffies0.1).max(1) as f64;
    let (mut writes, mut reads) = (writes?, reads?);
    if wl == Workload::OmvBatch {
        writes.append(&mut reads);
        writes.sort_by_key(|t| t.intended);
    }
    let write_updates: Vec<u64> = writes
        .iter()
        .enumerate()
        .map(|(i, t)| match (t.ok, wl) {
            (false, _) => 0,
            (true, Workload::OmvBatch) => OMV_K as u64,
            (true, _) => seg.write_updates[i] as u64,
        })
        .collect();

    if opts.sample {
        let mut sampled = Sampled::default();
        let epoch1 = stat(write_addr, "snapshot_epoch")?;
        sampled.epochs = (epoch0, epoch1);
        if let Some(p) = primary_samples {
            (sampled.fsync_backlog_max, sampled.snapshot_busy_share) = p?;
        }
        if let Some(samples) = replica_samples {
            let samples = samples?;
            sampled.repl_lag_frames_max = samples.iter().map(|s| s.2).max().unwrap_or(0);
            // Batch i committed alone at epoch epoch0 + i + 1 (one writer
            // connection, so no two batches share a round).
            if epoch1 == epoch0 + writes.len() as u64 {
                let mut k = 0;
                for (i, t) in writes.iter().enumerate() {
                    let epoch = epoch0 + i as u64 + 1;
                    while k < samples.len() && samples[k].1 < epoch {
                        k += 1;
                    }
                    if k == samples.len() {
                        break;
                    }
                    let lag = samples[k].0.saturating_sub(t.done);
                    sampled.repl_lag_ms.push(lag.as_secs_f64() * 1e3);
                }
            }
        }
        let mut conn = Client::connect(write_addr).map_err(io("connect"))?;
        for _ in 0..2000 {
            let t0 = Instant::now();
            conn.request("")
                .map_err(io("noop"))?
                .map_err(|e| format!("noop: {e}"))?;
            sampled.noop_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        out.sampled = Some(sampled);
    }

    // ---- after the timed phase ----
    let rss_mb = dep.primary.peak_rss_mb()?;
    if wl == Workload::OmvBatch {
        // The writers stopped after a retraction: the state is the
        // matrix alone. Load the final vector the reads are checked on.
        let expected = inp.oracle(&inp.db);
        let got = listing(write_addr)?;
        out.check(got == expected, || {
            format!(
                "omv_batch: state after the writers stopped differs from brute force ({} vs {} tuples)",
                got.len(),
                expected.len()
            )
        });
        let mut conn = Conn::connect(write_addr).map_err(io("connect"))?;
        run_script(
            &mut conn,
            inp.omv_final.as_deref().expect("omv has a final vector"),
        )?;
        drop(conn);
        reads = omv_reads(write_addr, seg, &inp.oracle(&seg.after_run))?;
    }
    let expected = inp.oracle(&seg.after_run);
    let got = listing(write_addr)?;
    out.check(got == expected, || {
        format!(
            "{}: primary's final state differs from brute force ({} vs {} tuples)",
            wl.name(),
            got.len(),
            expected.len()
        )
    });
    if let Some(r) = &dep.replica {
        wait_stat(
            r.addr,
            "snapshot_epoch",
            stat(write_addr, "snapshot_epoch")?,
        )?;
        let got = listing(r.addr)?;
        out.check(got == expected, || {
            format!(
                "replica's final state differs from brute force ({} vs {} tuples)",
                got.len(),
                expected.len()
            )
        });
    }
    out.count(&writes);
    out.count(&reads);
    out.segments.push(SegmentRun {
        setup_s,
        writes,
        write_updates,
        reads,
        rss_mb,
        steal_share,
    });
    Ok(())
}

/// Clean checkpoint, a fixed tail of writes, `kill -9`, then timed
/// reboots, each checked against the acked state.
fn recover(wl: Workload, inp: &Inputs, dep: Deployment, out: &mut E2e) -> Result<(), String> {
    let Deployment {
        primary,
        replica,
        launch,
    } = dep;
    drop(replica);
    primary.shutdown()?;
    let p = launch.start()?;
    let mut conn = Conn::connect(p.addr).map_err(io("connect"))?;
    for script in &inp.tail {
        run_script(&mut conn, script).map_err(|e| format!("tail write failed: {e}"))?;
    }
    drop(conn);
    p.kill9();
    let expected = inp.oracle(&inp.after_tail);
    for _ in 0..RECOVERY_REPS {
        let t0 = Instant::now();
        let p = launch.start()?;
        let mut conn = Client::connect(p.addr).map_err(io("connect"))?;
        loop {
            match conn.request("count") {
                Ok(Ok(_)) => break,
                _ if t0.elapsed() < Duration::from_secs(60) => {}
                _ => return Err("rebooted server never answered `count`".to_owned()),
            }
        }
        out.recovery_s.push(t0.elapsed().as_secs_f64());
        let got = listing(p.addr)?;
        out.check(got == expected, || {
            format!(
                "{}: state after kill -9 and reboot differs from the acked writes ({} vs {} tuples)",
                wl.name(),
                got.len(),
                expected.len()
            )
        });
        p.kill9();
    }
    Ok(())
}

/// One of `omv_batch`'s closed-loop writers: writer `w` inserts vectors
/// w, w + W, … and retracts each right after, until `until`, always
/// ending on a retraction.
fn omv_writer(
    conn: &mut Conn,
    inp: &Inputs,
    origin: Instant,
    until: Instant,
    w: usize,
) -> Result<Vec<Timing>, String> {
    let rounds = &inp.omv_rounds;
    if let Some(wait) = origin.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let pace = Pace::Closed {
        until: origin + Duration::from_secs(24 * 3600),
    };
    drive(
        conn,
        origin,
        pace,
        &mut |i| {
            if i % 2 == 0 && Instant::now() >= until {
                return None;
            }
            let v = (w + OMV_WRITERS * (i / 2)) % (rounds.len() / 2);
            Some(Req::script(rounds[2 * v + i % 2].clone()))
        },
        &mut |_, _, r| r.is_ok(),
    )
    .map_err(io("omv writes"))
}

/// `omv_batch`'s reads: closed-loop `list` requests for the whole
/// product M·v (the OMv answer), each checked exactly against the oracle.
fn omv_reads(
    addr: SocketAddr,
    seg: &Segment,
    expected: &[(Tuple, i64)],
) -> Result<Vec<Timing>, String> {
    let mut conn = Conn::connect(addr).map_err(io("connect"))?;
    let origin = Instant::now();
    drive(
        &mut conn,
        origin,
        Pace::Closed {
            until: origin + Duration::from_secs(3600),
        },
        &mut |i| seg.reads.get(i).map(|t| Req::script(t.clone())),
        &mut |_, _, r| {
            r.as_ref()
                .is_ok_and(|p| parse_listing(p).is_ok_and(|rows| rows == expected))
        },
    )
    .map_err(io("omv reads"))
}

/// The per-workload scratch directory, emptied at the start of a run.
pub fn work_dir(wl: Workload) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work").join(wl.name());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
