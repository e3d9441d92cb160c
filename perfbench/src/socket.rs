//! The end-to-end half of the benchmark: a real `fsmd serve` child process
//! driven over TCP by one closed-loop client.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

use fsm_fsmd::proto::put_patterns;
use fsm_fsmd::FsmdClient;
use fsm_types::{FrequentPattern, FsmError};

use crate::workload::{Op, Plan};
use crate::BenchError;

/// A running `fsmd serve` child.  Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    addr: String,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `fsmd serve <args>` and waits for its "listening on" line.
    pub fn spawn(fsmd: &Path, args: &[String]) -> Result<Self, BenchError> {
        let mut child = Command::new(fsmd)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|err| BenchError(format!("cannot spawn {}: {err}", fsmd.display())))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut server = Self {
            child,
            addr: String::new(),
            stderr_drain: None,
        };
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        loop {
            line.clear();
            let read = reader
                .read_line(&mut line)
                .map_err(|err| BenchError(format!("reading fsmd stderr: {err}")))?;
            if read == 0 {
                return Err(BenchError("fsmd exited before listening".into()));
            }
            if let Some(addr) = line.trim().strip_prefix("fsmd listening on ") {
                server.addr = addr.to_string();
                break;
            }
            eprint!("fsmd: {line}");
        }
        server.stderr_drain = Some(std::thread::spawn(move || relay(reader)));
        Ok(server)
    }

    /// Connects a client (reads and checks the protocol hello).
    pub fn connect(&self) -> Result<FsmdClient, BenchError> {
        FsmdClient::connect(self.addr.as_str())
            .map_err(|err| BenchError(format!("connecting to fsmd at {}: {err}", self.addr)))
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, BenchError> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path)
            .map_err(|err| BenchError(format!("reading {path}: {err}")))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| BenchError(format!("no VmHWM line in {path}")))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

/// Forwards the server's later stderr (error reports) until it exits.
fn relay(mut reader: BufReader<ChildStderr>) {
    let mut rest = String::new();
    if reader.read_to_string(&mut rest).is_ok() && !rest.is_empty() {
        eprint!("fsmd: {rest}");
    }
}

/// What one request did.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Client round-trip time.
    pub nanos: u64,
    /// `None` on success; the server's message on a failed or refused
    /// request.
    pub error: Option<String>,
    /// Hash of the wire encoding of a successful mine's patterns.
    pub patterns_hash: Option<u64>,
}

/// Runs `ops` in order, one request in flight at a time.  A failed or
/// refused request is recorded and the script goes on — nothing is
/// retried; a transport failure ends the run.
pub fn run_ops(
    client: &mut FsmdClient,
    plan: &Plan,
    ops: &[Op],
) -> Result<Vec<Outcome>, BenchError> {
    let mut outcomes = Vec::with_capacity(ops.len());
    for op in ops {
        let (nanos, result) = match *op {
            Op::Ingest { tenant, seq } => {
                let batch = plan.tenants[tenant].batch(seq);
                let tenant = &plan.tenants[tenant].spec.tenant;
                let started = Instant::now();
                let result = client.ingest(tenant, &batch);
                (started.elapsed(), classify(result)?.map(|_| None))
            }
            Op::Mine { tenant } => {
                let tenant = &plan.tenants[tenant].spec.tenant;
                let started = Instant::now();
                let result = client.mine(tenant);
                let nanos = started.elapsed();
                (nanos, classify(result)?.map(|p| Some(patterns_hash(&p))))
            }
        };
        let (error, patterns_hash) = match result {
            Ok(hash) => (None, hash),
            Err(error) => (Some(error), None),
        };
        outcomes.push(Outcome {
            nanos: nanos.as_nanos() as u64,
            error,
            patterns_hash,
        });
    }
    Ok(outcomes)
}

/// Splits request-level failures (a server `Err` status, backpressure) from
/// transport failures, which abort the run.
fn classify<T>(result: fsm_types::Result<T>) -> Result<Result<T, String>, BenchError> {
    match result {
        Ok(value) => Ok(Ok(value)),
        Err(FsmError::InvalidConfig(message)) if message.starts_with("server: ") => {
            Ok(Err(message))
        }
        Err(err @ FsmError::Backpressure { .. }) => Ok(Err(err.to_string())),
        Err(err) => Err(BenchError(format!("fsmd transport failure: {err}"))),
    }
}

/// The pattern list in wire order, as `fsmd` encodes it.
pub fn wire_patterns(patterns: &[FrequentPattern]) -> Vec<u8> {
    let mut bytes = Vec::new();
    put_patterns(&mut bytes, patterns);
    bytes
}

/// FNV-1a over the wire encoding — equal hashes stand for byte-identical
/// answers without keeping every answer in memory.
pub fn patterns_hash(patterns: &[FrequentPattern]) -> u64 {
    bytes_hash(&wire_patterns(patterns))
}

/// FNV-1a, 64 bit.
pub fn bytes_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
