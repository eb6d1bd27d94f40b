//! Result records: provenance, parameters and metrics of one run, saved
//! as `key = value` lines, and the comparison that refuses to set two
//! results side by side unless they were made with the same parameters.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use ivme_server::crc::Crc32;

/// One metric: name, value and unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Where and with what the run was made.
pub fn provenance(work: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", tool_output("rustc", &["--version"])),
        ("git_commit", tool_output("git", &["rev-parse", "HEAD"])),
        ("source_crc", source_crc()),
        ("data_dir_fs", filesystem_of(work)),
    ]
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// CRC-32 over the program's sources, which identifies the code even
/// in a checkout that is not a git repository.
fn source_crc() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut crc = Crc32::new();
    for f in &files {
        crc.update(f.display().to_string().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            crc.update(&bytes);
        }
    }
    format!("{:08x} ({} files)", crc.finish(), files.len())
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_owned());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        }
    }
}

/// The filesystem type and mount point holding `path`, from
/// `/proc/self/mountinfo`.
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".to_owned();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let fstype = fields.get(dash + 1).copied().unwrap_or("unknown");
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), format!("{fstype} on {mount}")));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, s)| s)
}

/// A saved result.
pub struct Record {
    pub fields: BTreeMap<String, String>,
}

impl Record {
    pub fn render(
        head: &[(&str, String)],
        params: &[(&str, String)],
        prov: &[(&str, String)],
        metrics: &[Metric],
    ) -> String {
        let mut out = String::new();
        for (k, v) in head {
            out.push_str(&format!("{k} = {v}\n"));
        }
        for (k, v) in params {
            out.push_str(&format!("param.{k} = {v}\n"));
        }
        for (k, v) in prov {
            out.push_str(&format!("prov.{k} = {v}\n"));
        }
        for m in metrics {
            out.push_str(&format!("metric.{} = {} {}\n", m.name, m.value, m.unit));
        }
        out
    }

    pub fn load(path: &Path) -> Result<Record, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let fields = text
            .lines()
            .filter_map(|l| l.split_once(" = "))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        Ok(Record { fields })
    }

    /// The fields two comparable results must share: the workload, its
    /// seed, length and tracing, every workload parameter, and the core
    /// count.
    fn identity(&self) -> BTreeMap<&str, &str> {
        self.fields
            .iter()
            .filter(|(k, _)| {
                k.starts_with("param.")
                    || ["workload", "seed", "seconds", "trace", "prov.nproc"].contains(&k.as_str())
            })
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }
}

/// Prints the metrics of two results side by side; refuses when their
/// parameters differ.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (ra, rb) = (Record::load(a)?, Record::load(b)?);
    let (ia, ib) = (ra.identity(), rb.identity());
    if ia != ib {
        let mut diff = Vec::new();
        for k in ia.keys().chain(ib.keys()) {
            if ia.get(k) != ib.get(k) && !diff.contains(k) {
                diff.push(*k);
            }
        }
        return Err(format!(
            "refusing to compare: the results were made with different parameters ({})",
            diff.iter()
                .map(|k| format!(
                    "{k}: {} vs {}",
                    ia.get(k).unwrap_or(&"-"),
                    ib.get(k).unwrap_or(&"-")
                ))
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    for key in ["prov.rustc", "prov.data_dir_fs"] {
        if ra.fields.get(key) != rb.fields.get(key) {
            eprintln!("note: {key} differs between the two results");
        }
    }
    println!("{:<28} {:>16} {:>16} {:>9}", "metric", "a", "b", "b/a");
    for (k, va) in ra.fields.iter().filter(|(k, _)| k.starts_with("metric.")) {
        let Some(vb) = rb.fields.get(k) else { continue };
        let num = |s: &str| s.split(' ').next().and_then(|v| v.parse::<f64>().ok());
        let ratio = match (num(va), num(vb)) {
            (Some(x), Some(y)) if x != 0.0 => format!("{:.3}", y / x),
            _ => "-".to_owned(),
        };
        println!(
            "{:<28} {:>16} {:>16} {:>9}",
            k.trim_start_matches("metric."),
            va,
            vb,
            ratio
        );
    }
    Ok(())
}
