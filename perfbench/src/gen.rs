//! Pipelined open-loop load generator: one sender thread writes
//! pre-encoded request lines on a fixed schedule over at most two
//! connections; one receiver thread polls both and matches replies to
//! requests by id. Latency counts from the *scheduled* send, so a stall
//! delays every later request instead of silently lowering the load.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The verb a request exercises; latencies are kept per verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Map,
    Delta,
}

/// One scheduled request. `line` ends in `\n` and carries id `g<index>`.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: Vec<u8>,
    pub verb: Verb,
    /// Offset of the scheduled send from the start of the run.
    pub due: Duration,
}

/// What one open-loop run observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Latency from scheduled send to the `map_done` line, per verb, ms.
    /// A failed request counts here too, at no less than the grace
    /// period, so it misses any latency limit.
    pub map_ms: Vec<f64>,
    pub delta_ms: Vec<f64>,
    /// How late each send left, ms.
    pub late_ms: Vec<f64>,
    /// Reply bytes received, all lines.
    pub reply_bytes: u64,
    /// Kept reply lines (`map_item`), by request index.
    pub kept: Vec<(usize, String)>,
    /// Completed requests (ok or failed) over the wall time from the
    /// first scheduled send to the last reply. A sender that falls
    /// behind its schedule or a backlog that drains late both lower it.
    pub completed_per_s: f64,
}

fn parse_index(line: &str) -> Option<usize> {
    let payload = line.find("\"payload\":{")?;
    let rest = &line[payload..];
    let at = rest.find("\"id\":\"g")? + 7;
    let digits: String = rest[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn kind_of(line: &str) -> &str {
    line.find("\"kind\":\"")
        .and_then(|i| {
            let rest = &line[i + 8..];
            rest.find('"').map(|j| &rest[..j])
        })
        .unwrap_or("")
}

fn item_failed(line: &str) -> bool {
    match line.find("\"ok\":") {
        Some(i) => line[i + 5..].starts_with('f'),
        None => true,
    }
}

/// `write_all` for a socket the receiver switched to non-blocking mode
/// (the flag is shared by both handles): waits for writability, and
/// gives up after `limit` without progress.
fn write_all(stream: &mut TcpStream, mut buf: &[u8], limit: Duration) -> std::io::Result<()> {
    let mut ready = Vec::new();
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(k) => buf = &buf[k..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let fds = [(stream.as_raw_fd(), poll::Interest::WRITABLE)];
                if poll::wait(&fds, Some(limit), &mut ready)? == 0 {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Runs `reqs` open-loop against `addr` over `conns` (1 or 2)
/// connections. Replies of requests for which `keep(index)` holds are
/// returned whole. Requests unanswered `grace` after the last send
/// count as failed.
pub fn run(
    addr: &str,
    reqs: Arc<Vec<Req>>,
    conns: usize,
    keep: impl Fn(usize) -> bool + Send + 'static,
    grace: Duration,
) -> Result<Outcome, String> {
    let conns = conns.clamp(1, 2);
    let mut streams = Vec::new();
    for _ in 0..conns {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = s.set_nodelay(true);
        streams.push(s);
    }
    let readers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("clone stream: {e}"))?;

    let n = reqs.len();
    let grace_ms = grace.as_secs_f64() * 1e3;
    let sent = Arc::new(AtomicUsize::new(0));
    let sender_done = Arc::new(AtomicBool::new(false));
    for s in &streams {
        s.set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
    }
    let start = Instant::now() + Duration::from_millis(5);

    let sender = {
        let reqs = Arc::clone(&reqs);
        let sent = Arc::clone(&sent);
        let sender_done = Arc::clone(&sender_done);
        std::thread::spawn(move || {
            let mut late = Vec::with_capacity(reqs.len());
            for (i, req) in reqs.iter().enumerate() {
                let due = start + req.due;
                // Sleep, never spin: a spinning sender takes a core from
                // the daemon on a small host.
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late.push((Instant::now() - due).as_secs_f64() * 1e3);
                let c = i % streams.len();
                if write_all(&mut streams[c], &req.line, grace).is_err() {
                    break;
                }
                sent.fetch_add(1, Ordering::Release);
            }
            sender_done.store(true, Ordering::Release);
            late
        })
    };

    let receiver = {
        let reqs = Arc::clone(&reqs);
        let sent = Arc::clone(&sent);
        let sender_done = Arc::clone(&sender_done);
        std::thread::spawn(move || {
            let mut readers = readers;
            let mut out = Outcome::default();
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); readers.len()];
            let mut finished = vec![false; n];
            let mut failed = vec![false; n];
            let mut done = 0usize;
            let mut chunk = vec![0u8; 1 << 16];
            let mut ready = Vec::new();
            let mut closed = vec![false; readers.len()];
            let mut give_up: Option<Instant> = None;
            loop {
                let all_sent = sender_done.load(Ordering::Acquire);
                if all_sent && done >= sent.load(Ordering::Acquire) {
                    break;
                }
                if all_sent {
                    let limit = *give_up.get_or_insert_with(|| Instant::now() + grace);
                    if Instant::now() >= limit || closed.iter().all(|&c| c) {
                        break;
                    }
                }
                let fds: Vec<_> = readers
                    .iter()
                    .map(|r| (r.as_raw_fd(), poll::Interest::READABLE))
                    .collect();
                if poll::wait(&fds, Some(Duration::from_millis(20)), &mut ready).is_err() {
                    break;
                }
                for (c, reader) in readers.iter_mut().enumerate() {
                    if closed[c] || !ready[c].any() {
                        continue;
                    }
                    loop {
                        match reader.read(&mut chunk) {
                            Ok(0) => {
                                closed[c] = true;
                                break;
                            }
                            Ok(k) => bufs[c].extend_from_slice(&chunk[..k]),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(_) => {
                                closed[c] = true;
                                break;
                            }
                        }
                    }
                    let now = Instant::now();
                    let mut consumed = 0;
                    while let Some(nl) = bufs[c][consumed..].iter().position(|&b| b == b'\n') {
                        let raw = &bufs[c][consumed..consumed + nl];
                        consumed += nl + 1;
                        out.reply_bytes += raw.len() as u64 + 1;
                        let line = String::from_utf8_lossy(raw);
                        let Some(i) = parse_index(&line).filter(|&i| i < n) else {
                            continue;
                        };
                        match kind_of(&line) {
                            "map_item" => {
                                if item_failed(&line) {
                                    failed[i] = true;
                                }
                                if keep(i) {
                                    out.kept.push((i, line.into_owned()));
                                }
                            }
                            "map_done" if !finished[i] => {
                                finished[i] = true;
                                done += 1;
                                let mut lat = (now - (start + reqs[i].due)).as_secs_f64() * 1e3;
                                if failed[i] {
                                    lat = lat.max(grace_ms);
                                }
                                match reqs[i].verb {
                                    Verb::Map => out.map_ms.push(lat),
                                    Verb::Delta => out.delta_ms.push(lat),
                                }
                                if failed[i] {
                                    out.failed += 1;
                                } else {
                                    out.ok += 1;
                                }
                            }
                            _ => {}
                        }
                    }
                    bufs[c].drain(..consumed);
                }
            }
            let end = Instant::now();
            let sent_n = sent.load(Ordering::Acquire);
            for (i, req) in reqs.iter().enumerate().take(sent_n) {
                if !finished[i] {
                    out.failed += 1;
                    let lat = ((end - (start + req.due)).as_secs_f64() * 1e3).max(grace_ms);
                    match req.verb {
                        Verb::Map => out.map_ms.push(lat),
                        Verb::Delta => out.delta_ms.push(lat),
                    }
                }
            }
            out.sent = sent_n as u64;
            out.completed_per_s = done as f64 / (end - start).as_secs_f64().max(1e-9);
            out
        })
    };

    let late = sender.join().map_err(|_| "sender thread panicked")?;
    let mut out = receiver.join().map_err(|_| "receiver thread panicked")?;
    out.late_ms = late;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_parser_reads_kind_index_and_status() {
        let item = r#"{"format":"hatt-wire/1","kind":"map_item","payload":{"id":"g42","index":0,"ok":false,"error":{}}}"#;
        assert_eq!(kind_of(item), "map_item");
        assert_eq!(parse_index(item), Some(42));
        assert!(item_failed(item));
        let done = r#"{"format":"hatt-wire/1","kind":"map_done","payload":{"id":"g7","items":1,"errors":0}}"#;
        assert_eq!(kind_of(done), "map_done");
        assert_eq!(parse_index(done), Some(7));
    }
}
