//! The server under test: spawning `cfq serve`, reading its process
//! counters from `/proc`, and line round trips over TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// A running `cfq serve`.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Server {
    /// Spawns `cfq serve ARGS` and waits for its `listening on` line.
    pub fn spawn(cfq: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(cfq)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cfq.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let Ok(line) = line else { break };
            if let Some(a) = line.strip_prefix("listening on ") {
                addr = Some(a.trim().to_string());
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let status = child.wait();
            return Err(format!("cfq serve exited before listening: {status:?}"));
        };
        // Keep draining stdout so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines {});
        Ok(Server {
            child,
            drain: Some(drain),
            addr,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// User + system CPU time consumed so far, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        (ticks(11) + ticks(12)) / TICKS_PER_S * 1000.0
    }

    /// Kills the server and waits for it and its output drain to end.
    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `stop` is the normal path; this covers early returns.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking one line per request and reply.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    /// Connects with `TCP_NODELAY`, as the server sets on its side.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            buf: String::new(),
        })
    }

    /// Sends `line` and reads the one-line reply; returns the reply and
    /// the instant the send began.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<(&str, Instant)> {
        let sent = Instant::now();
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok((self.buf.trim_end(), sent))
    }
}

/// The value of a counter in a Prometheus text scrape (summed over
/// label sets), 0 when absent.
pub fn scrape_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|r| r.starts_with(' ') || r.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::scrape_value;

    #[test]
    fn scrape_sums_label_sets_and_skips_prefixes() {
        let text =
            "# HELP x\ncfq_a_total 3\ncfq_a_total_more 9\ncfq_b{k=\"1\"} 2\ncfq_b{k=\"2\"} 5\n";
        assert_eq!(scrape_value(text, "cfq_a_total"), 3.0);
        assert_eq!(scrape_value(text, "cfq_b"), 7.0);
        assert_eq!(scrape_value(text, "cfq_c"), 0.0);
    }
}
