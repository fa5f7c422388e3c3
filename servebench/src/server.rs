//! The `mileena-server` child process: spawn, banner, `/proc` readings,
//! kill and graceful shutdown. Every spawned child is waited for, also
//! when the benchmark unwinds.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every architecture the kernel exports to user space.
const TICKS_PER_SECOND: f64 = 100.0;
/// How long a spawned server may take to print its banner.
const BANNER_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn the server binary on an OS-assigned loopback port and wait for
    /// its `listening on` banner. The child's stderr goes to `log`.
    pub fn spawn(
        binary: &Path,
        args: &[String],
        dir: Option<&Path>,
        log: &Path,
    ) -> Result<Server, String> {
        let log_file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let mut cmd = Command::new(binary);
        cmd.args(["--addr", "127.0.0.1:0"]).args(args);
        if let Some(dir) = dir {
            cmd.arg("--dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // The banner is read on a helper thread so a server that hangs
        // before printing it cannot hang the benchmark.
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            let mut line = String::new();
            let addr = loop {
                line.clear();
                match stdout.read_line(&mut line) {
                    Ok(0) | Err(_) => break None,
                    Ok(_) => {
                        if let Some(addr) = line.trim().strip_prefix("listening on ") {
                            break addr.parse::<SocketAddr>().ok();
                        }
                    }
                }
            };
            let _ = tx.send(());
            (addr, stdout)
        });
        let waited = rx.recv_timeout(BANNER_TIMEOUT);
        if waited.is_err() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err("server printed no banner in time".to_string());
        }
        let (addr, stdout) = reader.join().expect("banner reader does not panic");
        match addr {
            Some(addr) => Ok(Server { child, addr, _stdout: stdout }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server exited before its banner; see {}", log.display()))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU time the server has used so far.
    pub fn cpu_time(&self) -> Duration {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        Duration::from_secs_f64((ticks(11) + ticks(12)) as f64 / TICKS_PER_SECOND)
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILL, then reap: the crash a restart recovers from.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful stop through the stdin `shutdown` line; the server drains,
    /// checkpoints durable state and exits 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Some(stdin) = self.child.stdin.as_mut() {
            let _ = stdin.write_all(b"shutdown\n");
            let _ = stdin.flush();
        }
        drop(self.child.stdin.take());
        let status = self.child.wait().map_err(|e| format!("wait for server: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(path) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&path) else { continue };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}
