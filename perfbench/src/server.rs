//! `ivme-server` child processes: start, stop, `kill -9`, and memory.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ivme_workload::Client;

/// A running server or replica process. Dropping it kills the process
/// and waits for it, so no child outlives the benchmark.
pub struct Proc {
    child: Child,
    /// Kept open so the child never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub repl_addr: Option<SocketAddr>,
}

/// How to start one server: binary, arguments, and where its stderr goes.
pub struct Launch {
    pub bin: PathBuf,
    pub args: Vec<String>,
    pub log: PathBuf,
}

impl Launch {
    /// A primary serving from `data_dir` with `--fsync group`.
    pub fn primary(bin: &Path, data_dir: &Path, repl: bool, log: PathBuf) -> Launch {
        let mut args = vec![
            "--addr".to_owned(),
            "127.0.0.1:0".to_owned(),
            "--data-dir".to_owned(),
            data_dir.display().to_string(),
            "--fsync".to_owned(),
            "group".to_owned(),
        ];
        if repl {
            args.push("--repl-listen".to_owned());
            args.push("127.0.0.1:0".to_owned());
        }
        Launch {
            bin: bin.to_owned(),
            args,
            log,
        }
    }

    /// A replica following the primary's replication listener.
    pub fn replica(bin: &Path, primary_repl: SocketAddr, log: PathBuf) -> Launch {
        Launch {
            bin: bin.to_owned(),
            args: vec![
                "replica".to_owned(),
                primary_repl.to_string(),
                "--listen".to_owned(),
                "127.0.0.1:0".to_owned(),
            ],
            log,
        }
    }

    /// Starts the process and waits until it prints its listening
    /// address(es) — for a primary that is after boot recovery.
    pub fn start(&self) -> Result<Proc, String> {
        let log = File::options()
            .create(true)
            .append(true)
            .open(&self.log)
            .map_err(|e| format!("cannot open {}: {e}", self.log.display()))?;
        let mut cmd = Command::new(&self.bin);
        cmd.args(&self.args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log);
        die_with_parent(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let want_repl = self.args.iter().any(|a| a == "--repl-listen");
        let (mut addr, mut repl_addr) = (None, None);
        let mut line = String::new();
        while addr.is_none() || (want_repl && repl_addr.is_none()) {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{} {:?} exited before listening (see {})",
                    self.bin.display(),
                    self.args,
                    self.log.display()
                ));
            }
            let parsed = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
            if line.contains("replication listener on") {
                repl_addr = parsed;
            } else if line.contains("listening on") || line.contains("serving reads on") {
                addr = parsed;
            }
        }
        Ok(Proc {
            child,
            _stdout: stdout,
            addr: addr.expect("loop ends with an address"),
            repl_addr,
        })
    }
}

/// Makes the child receive SIGKILL when the thread that started it dies,
/// so a driver killed from outside leaves no server running. Servers are
/// started only from the driver's main thread.
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the hook runs in the forked child before exec and only
    // makes one async-signal-safe system call.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

impl Proc {
    /// Peak resident memory (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// `kill -9`: no drain, no fsync, no final snapshot.
    pub fn kill9(mut self) {
        self.reap();
    }

    /// Clean shutdown through the `shutdown` command, then wait for exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Client::connect(self.addr).map_err(|e| format!("shutdown: {e}"))?;
        match conn.request("shutdown") {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => return Err(format!("shutdown refused: {e}")),
            Err(e) => return Err(format!("shutdown: {e}")),
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    self.reap();
                    return Err("server did not exit after `shutdown`".to_owned());
                }
            }
        }
    }

    fn reap(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.reap();
    }
}
