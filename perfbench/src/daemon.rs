//! `hattd` child processes: boot, address discovery, observability
//! probes, memory, and teardown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

use hatt_service::{client, StatsReply, TraceDumpReply, TraceDumpRequest};

/// Traces read back per daemon for the stage breakdown.
const TRACES_KEPT: usize = 256;

/// One running `hattd`. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Daemon {
    /// Starts `hattd` on an ephemeral loopback port with `flags` and
    /// waits for its `hattd listening on <addr>` line.
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("hattd stdout not piped")?;
        let mut reader = BufReader::new(stdout);
        // The listening line comes first, or after a router's banner.
        let mut addr = None;
        let mut seen = String::new();
        for _ in 0..4 {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            if let Some(a) = line.trim().strip_prefix("hattd listening on ") {
                addr = Some(a.to_string());
                break;
            }
            seen.push_str(&line);
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("hattd {flags:?} did not start (printed {seen:?})"));
        };
        // Keep draining stdout so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader.take(u64::MAX), &mut std::io::sink());
        });
        Ok(Daemon {
            child,
            drain: Some(drain),
            addr,
        })
    }

    pub fn stats(&self) -> Result<StatsReply, String> {
        client::stats(self.addr.as_str(), "bench-stats")
            .map_err(|e| format!("stats {}: {e}", self.addr))
    }

    /// The most recent traces (a full ring is a multi-megabyte line).
    pub fn trace_dump(&self) -> Result<TraceDumpReply, String> {
        let err = |e: &dyn std::fmt::Display| format!("trace_dump {}: {e}", self.addr);
        let req = TraceDumpRequest::new("bench-trace").with_max_traces(TRACES_KEPT);
        let mut stream = TcpStream::connect(self.addr.as_str()).map_err(|e| err(&e))?;
        stream
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .map_err(|e| err(&e))?;
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .map_err(|e| err(&e))?;
        TraceDumpReply::from_line(line.trim()).map_err(|e| err(&e))
    }

    pub fn peak_rss_mb(&self) -> f64 {
        crate::util::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Flags shared by every daemon the benchmark boots: one scheduler
/// worker and one event loop, so two daemons plus the load generator
/// fit a two-core host without the kernel scheduler deciding results.
pub fn base_flags(trace: bool) -> Vec<String> {
    let mut flags: Vec<String> = ["--threads", "1", "--event-workers", "1", "--queue", "256"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    if trace {
        flags.push("--trace".into());
    }
    flags
}

/// A router over two store-backed shards, booted shards first.
pub struct Cluster {
    pub router: Daemon,
    pub shards: Vec<Daemon>,
}

impl Cluster {
    pub fn spawn(bin: &Path, work: &Path, trace: bool) -> Result<Cluster, String> {
        let mut shards = Vec::new();
        for i in 0..2 {
            let dir = work.join(format!("shard{i}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let mut flags = base_flags(trace);
            flags.push("--store".into());
            flags.push(dir.join("store.log").display().to_string());
            shards.push(Daemon::spawn(bin, &flags)?);
        }
        let mut flags = base_flags(trace);
        flags.push("--route".into());
        flags.push(
            shards
                .iter()
                .map(|s| s.addr.as_str())
                .collect::<Vec<_>>()
                .join(","),
        );
        let router = Daemon::spawn(bin, &flags)?;
        Ok(Cluster { router, shards })
    }

    pub fn daemons(&self) -> impl Iterator<Item = &Daemon> {
        std::iter::once(&self.router).chain(self.shards.iter())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Router first, so no forwarder reconnects to a dying shard.
        let _ = self.router.child.kill();
        let _ = self.router.child.wait();
    }
}
