//! The repository's benchmark: three workloads against the release
//! `ivme-server` binary, measured end to end (`--trace 0`) and layer by
//! layer (`--trace 1`). See `perfbench/README.md`.
//!
//! ```text
//! ivme-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--server-bin PATH]
//! ivme-perfbench --workload NAME --capacity [--seed N] [--seconds S] [--server-bin PATH]
//! ivme-perfbench compare A.rec B.rec
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every correctness check passed.

mod e2e;
mod inputs;
mod record;
mod server;
mod spec;
mod trace;
mod wire;

use std::path::{Path, PathBuf};

use record::{Metric, Record};
use spec::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Measure the open-loop connections' capacity instead (see
    /// `e2e::capacity`).
    capacity: bool,
    server_bin: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, spec::DEFAULT_SEED, 10, false);
    let mut capacity = false;
    let mut server_bin = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("release/ivme-server");
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds must be an integer")?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                }
            }
            "--server-bin" => server_bin = PathBuf::from(value()?),
            "--capacity" => capacity = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        capacity,
        server_bin,
    })
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("compare") {
        args.next();
        let (Some(a), Some(b)) = (args.next(), args.next()) else {
            eprintln!("usage: ivme-perfbench compare A.rec B.rec");
            std::process::exit(2);
        };
        if let Err(e) = record::compare(Path::new(&a), Path::new(&b)) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    let code = match parse_args(args).and_then(|a| {
        if a.capacity {
            capacity(&a).map(|()| true)
        } else {
            run(&a)
        }
    }) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Prints each open-loop connection's closed-loop capacity while the
/// other runs at its frozen rate: the basis of `spec`'s rates.
fn capacity(args: &Args) -> Result<(), String> {
    let wl = args.workload;
    if wl == Workload::OmvBatch {
        return Err("omv_batch is closed loop: its throughput is write_ups".to_owned());
    }
    let work = e2e::work_dir(wl)?;
    let secs = args.seconds as f64;
    // Request streams long enough for a closed loop far above the rates.
    let inp = inputs::Inputs::generate(wl, secs * 32.0, 1, args.seed);
    let opts = e2e::Opts {
        bin: &args.server_bin,
        work: &work,
        segment: std::time::Duration::from_secs_f64(secs),
        sample: false,
    };
    let [writes, reads] = e2e::capacity(wl, &inp, &opts, secs)?;
    println!(
        "{} seed {}: closed-loop writes {writes:.1}/s with reads at {}/s; closed-loop reads {reads:.1}/s with writes at {}/s",
        wl.name(),
        args.seed,
        inp.read_rate,
        inp.write_rate
    );
    Ok(())
}

/// Runs one workload; `Ok(correct)`.
fn run(args: &Args) -> Result<bool, String> {
    if !args.server_bin.is_file() {
        return Err(format!("no server binary at {}", args.server_bin.display()));
    }
    let wl = args.workload;
    let work = e2e::work_dir(wl)?;
    // The traced run repeats the end-to-end run once, as one segment.
    let segments = if args.trace { 1 } else { spec::SEGMENTS };
    let segment = args.seconds as f64 / segments as f64;
    let inp = inputs::Inputs::generate(wl, segment, segments, args.seed);
    let opts = e2e::Opts {
        bin: &args.server_bin,
        work: &work,
        segment: std::time::Duration::from_secs_f64(segment),
        sample: args.trace,
    };
    let run = e2e::run(wl, &inp, &opts)?;
    write_timings(&work.join("timings.csv"), &run)?;
    let mut mismatches = run.mismatches.clone();
    let metrics = if args.trace {
        per_layer(wl, &inp, &run, &work, args.seed, &mut mismatches)?
    } else {
        end_to_end(&run)
    };
    let correct = mismatches.is_empty() && run.failed == 0;
    for m in &mismatches {
        println!("MISMATCH: {m}");
    }
    if run.failed > 0 {
        println!(
            "FAILED: {} of {} requests failed",
            run.failed, run.attempted
        );
    }

    let prov = record::provenance(&work);
    let params = wl.params();
    let head = [
        ("workload", wl.name().to_owned()),
        ("seed", args.seed.to_string()),
        (
            "seed_role",
            match args.seed {
                spec::DEFAULT_SEED => "default",
                spec::VERIFY_SEED => "held-out",
                _ => "other",
            }
            .to_owned(),
        ),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("correct", correct.to_string()),
        ("attempted", run.attempted.to_string()),
        ("failed", run.failed.to_string()),
    ];
    let rec = Record::render(&head, &params, &prov, &metrics);
    let results = PathBuf::from(".bench_work/results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let rec_path = results.join(format!(
        "{}-seed{}-trace{}.rec",
        wl.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&rec_path, &rec).map_err(|e| format!("{}: {e}", rec_path.display()))?;

    println!(
        "{} seed {} ({} s, trace {}): {} requests, {} failed, record {}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.attempted,
        run.failed,
        rec_path.display()
    );
    for (k, v) in prov.iter().chain(params.iter()) {
        println!("  {k} = {v}");
    }
    for (i, seg) in run.segments.iter().enumerate() {
        let lat = |ts: &[wire::Timing], q| quantile(&latencies(ts), q);
        println!(
            "  segment {i}: setup {:.1} ms, writes p50/p99 {:.0}/{:.0} us, reads p50/p99 {:.0}/{:.0} us, rss {:.1} MiB, steal {:.1}%",
            seg.setup_s * 1e3,
            lat(&seg.writes, 0.5),
            lat(&seg.writes, 0.99),
            lat(&seg.reads, 0.5),
            lat(&seg.reads, 0.99),
            seg.rss_mb,
            seg.steal_share * 100.0
        );
    }
    let reboots: Vec<String> = run
        .recovery_s
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    println!("  reboots after kill -9 (ms): {}", reboots.join(" "));
    for m in &metrics {
        println!("  {:<28} {:>14.3} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// Every request's timing, for looking past the summary metrics.
fn write_timings(path: &Path, run: &e2e::E2e) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = String::from("segment,kind,intended_us,sent_us,done_us,ok\n");
    for (i, seg) in run.segments.iter().enumerate() {
        for (kind, ts) in [("write", &seg.writes), ("read", &seg.reads)] {
            for t in ts {
                let _ = writeln!(
                    out,
                    "{i},{kind},{},{},{},{}",
                    t.intended.as_micros(),
                    t.sent.as_micros(),
                    t.done.as_micros(),
                    u8::from(t.ok)
                );
            }
        }
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Nearest-rank quantile of unsorted values; 0 for no values.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn latencies(ts: &[wire::Timing]) -> Vec<f64> {
    ts.iter().map(|t| t.latency_us()).collect()
}

/// The median over segments of `f`.
fn per_segment(run: &e2e::E2e, f: impl Fn(&e2e::SegmentRun) -> f64) -> f64 {
    median(&run.segments.iter().map(f).collect::<Vec<_>>())
}

/// Acked updates per second of one segment, from the first write's
/// intended send time to the last write's ack.
fn updates_per_sec(seg: &e2e::SegmentRun) -> f64 {
    let first = seg
        .writes
        .iter()
        .map(|t| t.intended)
        .min()
        .unwrap_or_default();
    let last = seg.writes.iter().map(|t| t.done).max().unwrap_or_default();
    seg.write_updates.iter().sum::<u64>() as f64 / (last - first).as_secs_f64().max(1e-9)
}

/// Every metric is a median, over segments, set-ups or reboots, so a few
/// disturbed ones do not move it. The p99 latencies are not among them:
/// they are the per-layer metrics `server.write_p99_us` and
/// `server.read_p99_us`, see the README.
fn end_to_end(run: &e2e::E2e) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&run.setups), "s"),
        metric(
            "write_p50_us",
            per_segment(run, |s| median(&latencies(&s.writes))),
            "us",
        ),
        metric("write_ups", per_segment(run, updates_per_sec), "1/s"),
        metric(
            "read_p50_us",
            per_segment(run, |s| median(&latencies(&s.reads))),
            "us",
        ),
        metric("recovery_s", median(&run.recovery_s), "s"),
        metric("rss_mb", per_segment(run, |s| s.rss_mb), "MiB"),
    ]
}

/// The traced run's per-layer metrics: an untraced and a traced replay
/// of the same requests, plus what the samplers saw end to end. A layer
/// the workload does not exercise reports 0.
fn per_layer(
    wl: Workload,
    inp: &inputs::Inputs,
    run: &e2e::E2e,
    work: &Path,
    seed: u64,
    mismatches: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let requests = inp.replay_requests();
    // Untraced replays before and after the traced one, so that warm-up
    // does not count as tracing overhead.
    let mut plain = trace::Tracer::new(false);
    let untraced = trace::replay(&mut plain, inp, &requests, &work.join("replay-plain"))?;
    let mut tr = trace::Tracer::new(true);
    let traced = trace::replay(&mut tr, inp, &requests, &work.join("replay-traced"))?;
    let again = trace::replay(&mut plain, inp, &requests, &work.join("replay-plain"))?;
    let untraced_secs = (untraced.requests_secs + again.requests_secs) / 2.0;
    tr.write_out(&work.join(format!("spans-seed{seed}.jsonl")))?;

    // The replay must land where brute force and the server did.
    let mut db = inp.db.clone();
    for script in &requests {
        for line in script.lines() {
            if let Ok(Some(ivme_cli::proto::Command::Update {
                relation,
                tuple,
                delta,
            })) = ivme_cli::proto::parse_command(line)
            {
                db.apply(&relation, tuple, delta);
            }
        }
    }
    let oracle = inp.oracle(&db);
    for (what, rows) in [
        ("replay", &traced.result),
        ("recovered replay", &traced.recovered),
    ] {
        if *rows != oracle {
            mismatches.push(format!("{}: {what} differs from brute force", wl.name()));
        }
    }
    if untraced.result != traced.result {
        mismatches.push(format!("{}: traced and untraced replays differ", wl.name()));
    }

    let us = |name: &str| median(&tr.durations(name)) / 1e3;
    let ms = |name: &str| median(&tr.durations(name)) / 1e6;
    let counts = |name: &str| tr.counts.get(name).cloned().unwrap_or_default();

    // Per write request: apply time per update, and the sum of its
    // layers' times (the children of its `request` span).
    let mut children: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    for s in &tr.spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.end - s.start;
        }
    }
    let writes: std::collections::HashSet<u64> = traced.write_ids.iter().copied().collect();
    let layer_sums: Vec<f64> = tr
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "request" && writes.contains(&s.request_id))
        .map(|(i, _)| children.get(&i).copied().unwrap_or(0) as f64 / 1e3)
        .collect();
    let apply = tr.durations("core.apply");
    let per_update: Vec<f64> = apply
        .iter()
        .zip(counts("core.updates"))
        .filter(|(_, n)| *n > 0.0)
        .map(|(d, n)| d / n / 1e3)
        .collect();
    let enum_tuples: f64 = counts("core.enum_tuples").iter().sum();
    let fsync = tr.durations("wal.fsync");

    let sampled = run
        .sampled
        .as_ref()
        .ok_or("the traced run sampled nothing")?;
    let seg = run
        .segments
        .first()
        .ok_or("the traced run has no segment")?;
    let write_p50 = median(&latencies(&seg.writes));
    let acked_requests = seg.writes.iter().filter(|t| t.ok).count() as f64;
    let rounds = sampled.epochs.1.saturating_sub(sampled.epochs.0) as f64;
    let late: Vec<f64> = seg
        .writes
        .iter()
        .chain(&seg.reads)
        .map(|t| t.late_us())
        .collect();
    let publish = us("core.publish");
    let layers = median(&layer_sums);

    if wl == Workload::TwopathChurn {
        let share = publish / write_p50;
        println!(
            "publish check: core.publish_us = {publish:.1} us is {:.0}% of write_p50_us = {write_p50:.1} us, so publish {} most of the write latency on {}",
            share * 100.0,
            if share > 0.5 { "accounts for" } else { "does NOT account for" },
            wl.name()
        );
    }

    Ok(vec![
        metric("query.parse_us", us("query.parse"), "us"),
        metric("plan.compile_us", us("plan.compile"), "us"),
        metric("core.build_ms", ms("core.build"), "ms"),
        metric("core.aux_tuples", traced.aux_tuples as f64, "count"),
        metric("core.update_us", median(&per_update), "us"),
        metric("core.rebalances", traced.rebalances as f64, "count"),
        metric(
            "core.enum_ns_per_tuple",
            tr.durations("core.enum").iter().sum::<f64>() / enum_tuples.max(1.0),
            "ns",
        ),
        metric("core.publish_us", publish, "us"),
        metric(
            "core.publish_tuples",
            median(&counts("core.publish_tuples")),
            "count",
        ),
        metric("core.publish_share", publish / write_p50.max(1e-9), "ratio"),
        metric("core.lookup_ns", median(&tr.durations("core.lookup")), "ns"),
        metric("proto.parse_ns", median(&tr.durations("proto.parse")), "ns"),
        metric("proto.encode_us", us("proto.encode"), "us"),
        metric("render.us", us("render"), "us"),
        metric("render.bytes", median(&counts("render.bytes")), "bytes"),
        metric("wal.append_us", us("wal.append"), "us"),
        metric("wal.fsync_p50_us", quantile(&fsync, 0.5) / 1e3, "us"),
        metric("wal.fsync_p99_us", quantile(&fsync, 0.99) / 1e3, "us"),
        metric(
            "wal.bytes_per_update",
            traced.wal_bytes as f64 / (traced.updates.max(1)) as f64,
            "bytes",
        ),
        metric("snapshot.write_ms", ms("snapshot.write"), "ms"),
        metric("snapshot.bytes", traced.snapshot_bytes as f64, "bytes"),
        metric("snapshot.parse_ms", ms("snapshot.parse"), "ms"),
        metric("recovery.scan_ms", ms("recovery.scan"), "ms"),
        metric("recovery.apply_ms", ms("recovery.apply"), "ms"),
        metric(
            "server.group_size_mean",
            acked_requests / rounds.max(1.0),
            "count",
        ),
        metric(
            "server.fsync_backlog_max",
            sampled.fsync_backlog_max as f64,
            "count",
        ),
        metric(
            "server.snapshot_busy_share",
            sampled.snapshot_busy_share,
            "ratio",
        ),
        metric(
            "repl.lag_frames_max",
            sampled.repl_lag_frames_max as f64,
            "count",
        ),
        metric("repl.lag_ms", median(&sampled.repl_lag_ms), "ms"),
        metric("wire.noop_us", median(&sampled.noop_us), "us"),
        metric(
            "server.write_p99_us",
            quantile(&latencies(&seg.writes), 0.99),
            "us",
        ),
        metric(
            "server.read_p99_us",
            quantile(&latencies(&seg.reads), 0.99),
            "us",
        ),
        metric("driver.late_p99_us", quantile(&late, 0.99), "us"),
        metric(
            "trace.overhead_pct",
            (traced.requests_secs - untraced_secs) / untraced_secs.max(1e-9) * 100.0,
            "%",
        ),
        metric(
            "trace.unexplained_share",
            (write_p50 - layers) / write_p50.max(1e-9),
            "ratio",
        ),
    ])
}
