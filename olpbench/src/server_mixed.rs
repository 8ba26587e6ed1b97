//! `server_mixed`: `olp serve --db DIR --durability commit` under an
//! open-loop mix of reads and writes.
//!
//! The server serves the `mutation_stream` base chain (`N_BASE` nodes).
//! Connection R sends `truth anc(a0,aJ)` at `READ_RATE` per second and
//! connection W asserts and retracts edges of its own pool of
//! `EDGE_POOL` at `WRITE_RATE` per second, each write fsynced to the WAL before it
//! is acknowledged. Requests are pipelined on an evenly spaced schedule
//! and each is timed from when it was due, so a stall also counts
//! against the requests queued behind it. This is the only workload
//! with TCP, JSON, queue wait, the single writer, snapshot publication
//! and the WAL fsync.
//!
//! The server is a separate process, measured from outside (`/proc`).
//! The traced run replays the same requests in process through `Kb`,
//! `Db` and `KbSnapshot` to split each request's time into layers; what
//! the replay does not account for is the server layer's.

use crate::report::{self, Outcome, Sample};
use crate::rng::Rng;
use crate::stats;
use crate::sys;
use crate::trace::{ms, Tracer};
use crate::RunCfg;
use olp_workload::{mutation_stream, MutationCfg};
use ordered_logic::core::{Eval, Truth};
use ordered_logic::kb::{GroundStrategy, KbBuilder};
use ordered_logic::store::{Db, Durability, WalOp, WalOpKind, WAL_FILE};
use std::collections::{BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Length of the served base chain.
pub const N_BASE: usize = 64;
/// Reads per second on connection R.
pub const READ_RATE: f64 = 400.0;
/// The edges connection W toggles: each write asserts a pool edge that
/// is absent or retracts one that is present. A bounded pool keeps the
/// served program, and so the cost of a write, the same from the first
/// second of the load to the last; fresh edges would grow it without
/// bound.
pub const EDGE_POOL: usize = 64;
/// Writes per second on connection W. Writes cost about ten times a
/// read, so they are a fifth of the requests: the 90th percentile then
/// falls mid-way through the writes instead of on the boundary between
/// the two populations, where it would jump from run to run. The server
/// runs on one CPU and a read that arrives while the writer computes
/// waits for it; at this rate that is about one read in six, so the
/// median stays among the reads that do not wait. Each write period is
/// 0.3 ms longer than four read periods, so the writes drift across the
/// read slots; at 100/s every fourth read was sent together with a
/// write and waited for it every time.
pub const WRITE_RATE: f64 = 97.0;
/// Connections the server admits, and so its worker threads: the two of
/// the load and one for `ping`, `stats` and `shutdown`, plus one spare.
/// Each idle worker polls for work every 2 ms; at the default 64 they
/// share the server's CPU with the request being timed.
pub const MAX_CONNS: usize = 4;
const IDLE_WINDOW: Duration = Duration::from_secs(2);
/// How often the server's CPU time is read during the load.
const CPU_SAMPLE: Duration = Duration::from_millis(100);
/// How long answers may trail the end of the schedule.
const DRAIN: Duration = Duration::from_secs(5);
/// A send later than this is late.
const LATE: Duration = Duration::from_millis(1);

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// `truth anc(a0, aJ)`.
    Truth(usize),
    /// Assert a `parent` edge.
    Assert(String),
    /// Retract an edge this connection asserted.
    Retract(String),
}

impl Req {
    /// The request as one protocol line.
    pub fn line(&self) -> String {
        match self {
            Req::Truth(j) => {
                format!("{{\"cmd\":\"truth\",\"object\":\"main\",\"query\":\"anc(a0, a{j})\"}}\n")
            }
            Req::Assert(rule) => {
                format!("{{\"cmd\":\"assert\",\"object\":\"main\",\"rule\":\"{rule}\"}}\n")
            }
            Req::Retract(rule) => {
                format!("{{\"cmd\":\"retract\",\"object\":\"main\",\"rule\":\"{rule}\"}}\n")
            }
        }
    }

    fn span(&self) -> &'static str {
        match self {
            Req::Truth(_) => "server.truth",
            Req::Assert(_) => "server.assert",
            Req::Retract(_) => "server.retract",
        }
    }
}

/// A request and when it is due, relative to the start of the load.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Operation id, unique across both connections, in due order.
    pub id: u64,
    /// When to send.
    pub due: Duration,
    /// What to send.
    pub req: Req,
}

/// The two connections' schedules for `seconds` of load: reads evenly
/// spaced at [`READ_RATE`], writes at [`WRITE_RATE`] offset by half a
/// period. Ids follow the merged due order.
pub fn schedules(seed: u64, seconds: f64) -> (Vec<Scheduled>, Vec<Scheduled>) {
    let mut rng = Rng::stream(seed, 0);
    let n_reads = (READ_RATE * seconds).round() as usize;
    let reads = (0..n_reads).map(|i| {
        let due = Duration::from_secs_f64(i as f64 / READ_RATE);
        (due, Req::Truth(1 + rng.below(N_BASE as u64 - 1) as usize))
    });
    let reads: Vec<(Duration, Req)> = reads.collect();
    let mut rng = Rng::stream(seed, 1);
    let mut live = [false; EDGE_POOL];
    let n_writes = (WRITE_RATE * seconds).round() as usize;
    let writes: Vec<(Duration, Req)> = (0..n_writes)
        .map(|i| {
            let due = Duration::from_secs_f64((i as f64 + 0.5) / WRITE_RATE);
            let k = rng.below(EDGE_POOL as u64) as usize;
            let rule = format!("parent(w{k}_a, w{k}_b).");
            live[k] = !live[k];
            let req = if live[k] {
                Req::Assert(rule)
            } else {
                Req::Retract(rule)
            };
            (due, req)
        })
        .collect();
    let mut all: Vec<(Duration, bool)> = reads
        .iter()
        .map(|r| (r.0, true))
        .chain(writes.iter().map(|w| (w.0, false)))
        .collect();
    all.sort_by_key(|&(due, is_read)| (due, !is_read));
    let (mut r, mut w) = (reads.into_iter(), writes.into_iter());
    let (mut rs, mut ws) = (Vec::new(), Vec::new());
    for (id, (_, is_read)) in (0u64..).zip(all) {
        let (src, dst) = if is_read {
            (&mut r, &mut rs)
        } else {
            (&mut w, &mut ws)
        };
        let (due, req) = src.next().expect("one entry per merged slot");
        dst.push(Scheduled { id, due, req });
    }
    (rs, ws)
}

/// Extracts the integer value of `"key":N` from a response line.
fn field_u64(resp: &str, key: &str) -> Option<u64> {
    let at = resp.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &resp[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Checks one response against the oracle: an acknowledgement, an
/// epoch no older than the connection's last, `true` for every chain
/// read and `removed` for every retract.
pub fn check_response(req: &Req, resp: &str, last_epoch: &mut u64) -> Result<(), String> {
    if !resp.starts_with("{\"ok\":true") {
        return Err(format!("refused: {resp}"));
    }
    let epoch = field_u64(resp, "epoch").ok_or_else(|| format!("no epoch: {resp}"))?;
    if epoch < *last_epoch {
        return Err(format!("epoch went back from {last_epoch} to {epoch}"));
    }
    *last_epoch = epoch;
    let ok = match req {
        Req::Truth(_) => resp.contains("\"truth\":\"true\""),
        Req::Assert(_) => true,
        Req::Retract(_) => resp.contains("\"removed\":true"),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{req:?}: {resp}"))
    }
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// `(index into the schedule, answered at, response line)`.
    pub answers: Vec<(usize, Instant, String)>,
    /// How late each send was.
    pub late: Vec<Duration>,
    /// Requests unanswered when the last one was sent.
    pub backlog_end: usize,
}

/// Drives one connection through `schedule` from `start`: sends each
/// request when due (pipelined) and reads answers as they arrive. Stops
/// when every request is answered or [`DRAIN`] after the last send.
pub fn drive(
    stream: TcpStream,
    schedule: &[Scheduled],
    start: Instant,
    cpu: Option<usize>,
) -> std::io::Result<ConnLog> {
    if let Some(cpu) = cpu {
        sys::pin_current_thread(cpu)?;
    }
    stream.set_nodelay(true)?;
    // A server that stops reading fails the run instead of hanging it.
    stream.set_write_timeout(Some(DRAIN))?;
    let fd = stream.as_raw_fd();
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let mut log = ConnLog::default();
    let mut outstanding = VecDeque::new();
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut next = 0;
    let mut give_up = None;
    loop {
        let now = Instant::now();
        while next < schedule.len() && start + schedule[next].due <= now {
            let sent = Instant::now();
            writer.write_all(schedule[next].req.line().as_bytes())?;
            log.late
                .push(sent.saturating_duration_since(start + schedule[next].due));
            outstanding.push_back(next);
            next += 1;
            if next == schedule.len() {
                log.backlog_end = outstanding.len();
                give_up = Some(Instant::now() + DRAIN);
            }
        }
        if outstanding.is_empty() && next == schedule.len() {
            break;
        }
        let wake = match give_up {
            Some(at) if now >= at => break,
            Some(at) => at,
            None => start + schedule[next].due,
        };
        if !sys::wait_readable(fd, wake.saturating_duration_since(now))? {
            continue;
        }
        let n = reader.read(&mut chunk)?;
        let at = Instant::now();
        if n == 0 {
            break;
        }
        pending.extend_from_slice(&chunk[..n]);
        while let Some(eol) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=eol).collect();
            let Some(ix) = outstanding.pop_front() else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "unrequested answer",
                ));
            };
            log.answers.push((
                ix,
                at,
                String::from_utf8_lossy(&line).trim_end().to_string(),
            ));
        }
    }
    Ok(log)
}

/// Removes the directory when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `olp serve`; stopped and waited for when dropped.
struct Server {
    child: Child,
    /// Held open until the child exits, so its last line cannot fail.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

/// Where the server and the load generator run: on a host with two or
/// more CPUs, the server on the last and the generator on the first.
/// Left to the scheduler, their threads share CPUs differently from run
/// to run, and the request latency with them.
#[derive(Debug, Clone, Copy)]
struct Placement {
    server: Option<usize>,
    client: Option<usize>,
}

impl Placement {
    fn choose() -> Placement {
        match sys::allowed_cpus().as_deref() {
            Ok([first, .., last]) => Placement {
                server: Some(*last),
                client: Some(*first),
            },
            _ => Placement {
                server: None,
                client: None,
            },
        }
    }
}

impl Server {
    fn spawn(olp: &Path, program: &Path, db: &Path, cpu: Option<usize>) -> Result<Server, String> {
        let mut cmd = Command::new(olp);
        if let Some(cpu) = cpu {
            // SAFETY: the hook only makes one system call, which
            // allocates nothing and takes no lock.
            unsafe {
                cmd.pre_exec(move || sys::pin_current_thread(cpu));
            }
        }
        let mut child = cmd
            .arg("serve")
            .arg(program)
            .arg("--db")
            .arg(db)
            .args(["--durability", "commit", "--listen", "127.0.0.1:0"])
            .args(["--max-conns", &MAX_CONNS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", olp.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("olp serve exited before listening".to_string());
            }
            if let Some(a) = line.trim().strip_prefix("listening on ") {
                break a.parse().map_err(|e| format!("bad address `{a}`: {e}"))?;
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request on a fresh connection and returns the answer.
    fn ask(&self, line: &str) -> Result<String, String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(DRAIN)).map_err(|e| e.to_string())?;
        s.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        let mut resp = String::new();
        BufReader::new(s)
            .read_line(&mut resp)
            .map_err(|e| e.to_string())?;
        Ok(resp)
    }

    /// Asks the server to shut down and waits (at most [`DRAIN`]) for it
    /// to exit.
    fn stop(mut self) -> Result<(), String> {
        self.ask("{\"cmd\":\"shutdown\"}\n")?;
        let deadline = Instant::now() + DRAIN;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("olp serve exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("olp serve did not stop after `shutdown`".to_string())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Answered requests of both connections: `(scheduled, answered at,
/// response)`.
type Answered<'a> = Vec<(&'a Scheduled, Instant, &'a str)>;

/// What the in-process replay counted.
struct Replayed {
    /// Ground rules of `main` at the end.
    rules: usize,
    /// Atoms interned at the end.
    atoms: usize,
    /// WAL bytes appended per logged write.
    wal_bytes_per_write: f64,
}

/// Replays the answered requests in process, in due order, through the
/// layers the server's writer and readers call, with a span around
/// each call. (The server also folds its WAL into a snapshot every
/// 1024 writes; the replay does not, so that time is the server
/// layer's.)
fn replay(t: &mut Tracer, dir: &Path, base: &str, answered: &Answered) -> Result<Replayed, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut b = KbBuilder::new();
    b.rules("main", base).map_err(|e| err(&e))?;
    let mut kb = b.build(GroundStrategy::Smart).map_err(|e| err(&e))?;
    kb.model("main").map_err(|e| err(&e))?;
    kb.component_profile("main").map_err(|e| err(&e))?;
    let mut snap = kb.snapshot();
    let mut db = Db::create(
        dir,
        kb.world(),
        kb.program(),
        kb.ground_program(),
        Durability::Off,
    )
    .map_err(|e| err(&e))?;
    let wal = dir.join(WAL_FILE);
    let wal_size = || {
        std::fs::metadata(&wal)
            .map(|m| m.len())
            .map_err(|e| err(&e))
    };
    let wal0 = wal_size()?;
    let mut writes = 0u64;
    for (s, ..) in answered {
        let id = s.id;
        let (kind, rule) = match &s.req {
            Req::Truth(j) => {
                let q = format!("anc(a0, a{j})");
                let opts = snap.default_opts();
                match t.time("semantics.truth", id, || snap.truth_with("main", &q, &opts)) {
                    Ok(Eval::Complete(Truth::True)) => continue,
                    other => return Err(format!("replayed {q}: {other:?}")),
                }
            }
            Req::Assert(rule) => {
                t.time("kb.assert", id, || kb.assert_rule("main", rule))
                    .map_err(|e| err(&e))?;
                (WalOpKind::Assert, rule)
            }
            Req::Retract(rule) => {
                t.time("kb.retract", id, || kb.retract_rule("main", rule))
                    .map_err(|e| err(&e))?;
                (WalOpKind::Retract, rule)
            }
        };
        let op = WalOp {
            kind,
            object: "main".to_string(),
            rule: rule.clone(),
        };
        t.time("store.log", id, || db.log(op))
            .map_err(|e| err(&e))?;
        writes += 1;
        t.time("store.sync", id, || db.sync())
            .map_err(|e| err(&e))?;
        t.time("semantics.model", id, || kb.model("main").map(|_| ()))
            .map_err(|e| err(&e))?;
        t.time("analyze.profile", id, || kb.component_profile("main"))
            .map_err(|e| err(&e))?;
        snap = t.time("kb.snapshot", id, || kb.snapshot());
    }
    Ok(Replayed {
        rules: kb.flat_view("main").map_err(|e| err(&e))?.len(),
        atoms: snap.world().atoms.len(),
        wal_bytes_per_write: (wal_size()? - wal0) as f64 / writes.max(1) as f64,
    })
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let olp = exe.with_file_name("olp");
    let scratch = Scratch(crate::work_dir()?.join(format!("server_mixed-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| e.to_string())?;
    let base = mutation_stream(
        &MutationCfg {
            n_base: N_BASE,
            n_mutations: 0,
            ..MutationCfg::default()
        },
        cfg.seed,
    )
    .0;
    let program = scratch.0.join("base.olp");
    std::fs::write(&program, format!("module main {{\n{base}}}\n")).map_err(|e| e.to_string())?;

    let mut out = Outcome::default();
    let placement = Placement::choose();
    // Set-up `i`: a server on a fresh database, timed from spawn to its
    // answer to `ping`.
    let set_up = |out: &mut Outcome, i: usize| -> Result<Server, String> {
        let db = scratch.0.join(format!("db{i}"));
        let start = Instant::now();
        let s = Server::spawn(&olp, &program, &db, placement.server)?;
        let pong = s.ask("{\"cmd\":\"ping\"}\n")?;
        out.setups_s.push(start.elapsed().as_secs_f64());
        if !pong.starts_with("{\"ok\":true") {
            return Err(format!("ping answered {pong}"));
        }
        Ok(s)
    };
    // A server spawned during the load would take CPU from the load
    // generator or from the served server, so the set-ups come before
    // and after it; the last one before it serves the load.
    let before = crate::SETUPS.div_ceil(2);
    let mut server = set_up(&mut out, 0)?;
    for i in 1..before {
        server.stop()?;
        server = set_up(&mut out, i)?;
    }

    let mut idle_cpu_pct = 0.0;
    if cfg.trace {
        let cpu0 = sys::process_cpu_of(server.pid()).map_err(|e| e.to_string())?;
        std::thread::sleep(IDLE_WINDOW);
        let cpu1 = sys::process_cpu_of(server.pid()).map_err(|e| e.to_string())?;
        idle_cpu_pct = 100.0 * (cpu1 - cpu0).as_secs_f64() / IDLE_WINDOW.as_secs_f64();
    }

    // Created before the load: recorded request spans start after its
    // origin.
    let mut t = Tracer::new(cfg.trace);
    let (reads, writes) = schedules(cfg.seed, cfg.seconds);
    let conn = || TcpStream::connect(server.addr).map_err(|e| e.to_string());
    let (r_conn, w_conn) = (conn()?, conn()?);
    let start = Instant::now() + Duration::from_millis(20);
    let cpu0 = sys::process_cpu_of(server.pid()).map_err(|e| e.to_string())?;
    let mut cpu = vec![(start, cpu0)];
    let (r_log, w_log) = std::thread::scope(|s| {
        let r = s.spawn(|| drive(r_conn, &reads, start, placement.client));
        let w = s.spawn(|| drive(w_conn, &writes, start, placement.client));
        while !(r.is_finished() && w.is_finished()) {
            std::thread::sleep(CPU_SAMPLE);
            if let Ok(c) = sys::process_cpu_of(server.pid()) {
                cpu.push((Instant::now(), c));
            }
        }
        (r.join(), w.join())
    });
    let r_log = r_log
        .map_err(|_| "reader thread panicked")?
        .map_err(|e| e.to_string())?;
    let w_log = w_log
        .map_err(|_| "writer thread panicked")?
        .map_err(|e| e.to_string())?;
    out.peak_rss_mib = sys::peak_rss_mib(Some(server.pid())).map_err(|e| e.to_string())?;
    out.open_loop = true;
    out.cpu = cpu
        .iter()
        .map(|(at, c)| {
            (
                at.saturating_duration_since(start).as_secs_f64(),
                (*c - cpu0).as_secs_f64(),
            )
        })
        .collect();

    out.attempted = (reads.len() + writes.len()) as u64;
    let mut answered: Answered = Vec::new();
    let mut acked_writes = 0u64;
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut traced_ops = BTreeSet::new();
    for (schedule, log) in [(&reads, &r_log), (&writes, &w_log)] {
        let mut epoch = 0;
        for (ix, at, resp) in &log.answers {
            let s = &schedule[*ix];
            let lat = ms(at.saturating_duration_since(start + s.due));
            out.samples.push(Sample {
                done_s: at.saturating_duration_since(start).as_secs_f64(),
                lat_ms: lat,
            });
            // Every other request of each connection is traced.
            if cfg.traced(*ix as u64) {
                t.record(s.req.span(), s.id, start + s.due, *at);
                traced.push(lat);
                traced_ops.insert(s.id);
            } else {
                untraced.push(lat);
            }
            match check_response(&s.req, resp, &mut epoch) {
                Ok(()) => {
                    acked_writes += u64::from(!matches!(s.req, Req::Truth(_)));
                    answered.push((s, *at, resp));
                }
                Err(e) => out.wrong(e),
            }
        }
        let unanswered = schedule.len() - log.answers.len();
        out.failed += unanswered as u64;
        if unanswered > 0 {
            out.notes.push(format!("{unanswered} requests unanswered"));
        }
    }
    out.samples.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let counters = server.ask("{\"cmd\":\"stats\"}\n")?;
    if field_u64(&counters, "writes") != Some(acked_writes) {
        out.wrong(format!(
            "stats reports {counters:?}, but {acked_writes} writes were acknowledged"
        ));
    }
    server.stop()?;
    for i in before..crate::SETUPS {
        set_up(&mut out, i)?.stop()?;
    }

    let late: Vec<f64> = r_log
        .late
        .iter()
        .chain(&w_log.late)
        .map(|&d| ms(d))
        .collect();
    let late_p99 = stats::percentile(&late, 99);
    out.notes.push(format!(
        "load: {} requests, generator lateness p99 {late_p99:.3} ms{}",
        late.len(),
        if late_p99 > ms(LATE) {
            " (over 1 ms: this run is invalid)"
        } else {
            ""
        }
    ));
    if cfg.trace {
        answered.sort_by_key(|a| a.0.id);
        let rep = replay(&mut t, &scratch.0.join("replay"), &base, &answered)?;
        let mut own = t.self_ms_by_name(|s| traced_ops.contains(&s.op));
        // A request's time not spent in the replayed layer calls is the
        // server layer's: TCP, JSON, queueing and hand-offs.
        let replayed: f64 = own
            .iter()
            .filter(|(n, _)| !n.starts_with("server."))
            .map(|(_, v)| v)
            .sum();
        let total: f64 = own
            .iter()
            .filter(|(n, _)| n.starts_with("server."))
            .map(|(_, v)| v)
            .sum();
        own.retain(|n, _| !n.starts_with("server."));
        own.insert("server.remainder", total - replayed);
        out.layers = report::layer_values(&traced, &untraced, &own);
        let values = [
            ("ground.rules", rep.rules as f64),
            ("core.atoms", rep.atoms as f64),
            ("store.wal_bytes_per_write", rep.wal_bytes_per_write),
            ("server.idle_cpu_pct", idle_cpu_pct),
            (
                "loadgen.late_over_1ms_pct",
                100.0 * late.iter().filter(|&&l| l > ms(LATE)).count() as f64 / late.len() as f64,
            ),
            (
                "loadgen.backlog_end",
                (r_log.backlog_end + w_log.backlog_end) as f64,
            ),
        ];
        for (k, v) in values {
            out.layers.insert(k.to_string(), v);
        }
        cfg.finish_trace(&t, "server_mixed", &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_open_loop_schedule_is_evenly_spaced_and_seeded() {
        let (r, w) = schedules(42, 2.0);
        assert_eq!(r.len(), (READ_RATE * 2.0) as usize);
        assert_eq!(w.len(), (WRITE_RATE * 2.0) as usize);
        let gap = |s: &[Scheduled]| {
            s.windows(2)
                .map(|p| p[1].due - p[0].due)
                .collect::<Vec<_>>()
        };
        let period = Duration::from_secs_f64(1.0 / READ_RATE);
        assert!(gap(&r)
            .iter()
            .all(|g| g.abs_diff(period) < Duration::from_micros(2)));
        assert_eq!(w[0].due, Duration::from_secs_f64(0.5 / WRITE_RATE));
        // Ids are unique and follow due order across both connections.
        let mut all: Vec<&Scheduled> = r.iter().chain(&w).collect();
        all.sort_by_key(|s| s.id);
        assert!(all.windows(2).all(|p| p[0].due <= p[1].due));
        assert_eq!(all.len() as u64, all.last().unwrap().id + 1);
        // Writes assert absent pool edges and retract present ones.
        let mut live = std::collections::HashSet::new();
        for s in &w {
            match &s.req {
                Req::Assert(rule) => assert!(live.insert(rule.clone())),
                Req::Retract(rule) => assert!(live.remove(rule), "retract of an absent edge"),
                Req::Truth(_) => panic!("a read on the write connection"),
            }
        }
        assert!(live.len() <= EDGE_POOL);
        assert_eq!(schedules(42, 2.0), (r.clone(), w.clone()));
        assert_ne!(schedules(43, 2.0).0, r);
    }

    #[test]
    fn responses_are_checked() {
        let mut epoch = 0;
        let t = Req::Truth(3);
        assert!(check_response(&t, r#"{"ok":true,"epoch":2,"truth":"true"}"#, &mut epoch).is_ok());
        assert_eq!(epoch, 2);
        assert!(check_response(&t, r#"{"ok":true,"epoch":1,"truth":"true"}"#, &mut epoch).is_err());
        assert!(
            check_response(&t, r#"{"ok":true,"epoch":2,"truth":"false"}"#, &mut epoch).is_err()
        );
        assert!(
            check_response(&t, r#"{"ok":false,"error":"busy","epoch":2}"#, &mut epoch).is_err()
        );
        let r = Req::Retract("parent(w1_a, w1_b).".into());
        assert!(check_response(
            &r,
            r#"{"ok":true,"epoch":3,"removed":true,"seq":3}"#,
            &mut epoch
        )
        .is_ok());
        assert!(check_response(
            &r,
            r#"{"ok":true,"epoch":4,"removed":false,"seq":4}"#,
            &mut epoch
        )
        .is_err());
        assert_eq!(
            field_u64(r#"{"ok":true,"writes":17,"busy":0}"#, "writes"),
            Some(17)
        );
    }

    #[test]
    fn requests_are_timed_from_their_due_time() {
        // A loopback peer that answers every line after a fixed stall:
        // with pipelining, later requests wait behind earlier ones.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let schedule: Vec<Scheduled> = (0..5)
            .map(|i| Scheduled {
                id: i,
                due: Duration::from_millis(2 * i),
                req: Req::Truth(1),
            })
            .collect();
        let peer = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut w = s.try_clone().unwrap();
            for line in BufReader::new(s).lines().take(5) {
                line.unwrap();
                std::thread::sleep(Duration::from_millis(5));
                w.write_all(b"{\"ok\":true,\"epoch\":0,\"truth\":\"true\"}\n")
                    .unwrap();
            }
        });
        let start = Instant::now();
        let log = drive(TcpStream::connect(addr).unwrap(), &schedule, start, None).unwrap();
        peer.join().unwrap();
        assert_eq!(log.answers.len(), 5);
        assert_eq!(log.late.len(), 5);
        let lat: Vec<Duration> = log
            .answers
            .iter()
            .map(|(ix, at, _)| at.saturating_duration_since(start + schedule[*ix].due))
            .collect();
        // Each answer takes at least 5 ms of service and requests are
        // due every 2 ms, so the queue grows: answer 4 comes at least
        // 20 ms after answer 0 but was due only 8 ms after it.
        assert!(lat[4] >= lat[0] + Duration::from_millis(12), "{lat:?}");
    }
}
