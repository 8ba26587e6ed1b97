//! Integration battery for `olp serve`: protocol goldens over real TCP
//! against the real binary, malformed-frame fuzzing, per-request and
//! per-connection resource limits (the JSON twin of the CLI's PARTIAL
//! banner), admission control, a snapshot-isolation differential
//! property test (concurrent readers must see exactly the sequential
//! model of the epoch each response reports), a writer-stall test
//! (`OLP_SERVE_WRITE_DELAY_MS` must never block readers), and
//! crash-recovery-under-traffic (`kill -9` a `--db` server mid-stream,
//! restart, and the recovered KB must resume from its logged sequence
//! number with models identical to a never-crashed survivor).

use ordered_logic::kb::{GroundStrategy, Kb, KbBuilder};
use ordered_logic::server::{ServeKb, Server, ServerConfig, MAX_LINE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The paper's Fig.1 penguin program: `c1` sees the exception, `c2`
/// does not, and every literal is defined (the default
/// `-ground_animal` rule makes the least model total).
const PENGUIN: &str = "module c2 {\n\
                         bird(tweety). bird(pengu).\n\
                         fly(X) :- bird(X).\n\
                         -ground_animal(X) :- bird(X).\n\
                       }\n\
                       module c1 < c2 {\n\
                         ground_animal(pengu).\n\
                         -fly(X) :- ground_animal(X).\n\
                       }\n";

fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("olp_server_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    let _ = std::fs::remove_file(&d);
    d
}

fn write_program(name: &str, src: &str) -> PathBuf {
    let p = scratch(name).with_extension("olp");
    std::fs::write(&p, src).expect("program file written");
    p
}

/// A spawned `olp serve` child plus the address it bound. Killed on
/// drop so a failing test never leaks a listener.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the real binary with `serve <args> --listen 127.0.0.1:0` and
/// parses the bound address off stdout (skipping recovery/creation
/// lines a `--db` start prints first).
fn spawn_serve(args: &[&str], envs: &[(&str, &str)]) -> ServerProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_olp"));
    cmd.arg("serve")
        .args(args)
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("olp serve spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(a) = line.strip_prefix("listening on ") {
                    break a.trim().parse().expect("listen address parses");
                }
            }
            _ => panic!("server exited before printing its listen address"),
        }
    };
    std::thread::spawn(move || for _ in lines {});
    ServerProc { child, addr }
}

/// One protocol connection: send a request line, read the response
/// line.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).ok();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clones")),
            writer: stream,
        }
    }

    fn send(&mut self, req: &str) -> String {
        self.writer.write_all(req.as_bytes()).expect("request sent");
        self.writer.write_all(b"\n").expect("newline sent");
        self.read_line().expect("response line")
    }

    /// Reads one response line; `None` on EOF.
    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(_) => None,
        }
    }
}

/// Extracts `"key":N` from a single-line JSON response.
fn field_u64(resp: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = resp.find(&needle)? + needle.len();
    let rest = &resp[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key":"..."` (the rendered-model case: the value never
/// contains escapes).
fn field_str<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let at = resp.find(&needle)? + needle.len();
    let rest = &resp[at..];
    Some(&rest[..rest.find('"')?])
}

// ------------------------------------------------------------ goldens

#[test]
fn golden_protocol_over_tcp() {
    let program = write_program("golden", PENGUIN);
    let server = spawn_serve(&[program.to_str().unwrap()], &[]);
    let mut c = Client::connect(server.addr);

    assert_eq!(c.send(r#"{"cmd":"ping"}"#), r#"{"ok":true,"epoch":0}"#);
    assert_eq!(
        c.send(r#"{"cmd":"truth","object":"c1","query":"fly(pengu)"}"#),
        r#"{"ok":true,"epoch":0,"truth":"false"}"#
    );
    assert_eq!(
        c.send(r#"{"cmd":"truth","object":"c2","query":"fly(pengu)"}"#),
        r#"{"ok":true,"epoch":0,"truth":"true"}"#
    );
    assert_eq!(
        c.send(r#"{"cmd":"query","object":"c1","pattern":"fly(X)"}"#),
        r#"{"ok":true,"epoch":0,"answers":["X=tweety"]}"#
    );

    // Full-model and multi-semantics reads: structural checks (the
    // exact interpretation render is the KB layer's contract).
    let model = c.send(r#"{"cmd":"query","object":"c1"}"#);
    assert!(
        model.starts_with(r#"{"ok":true,"epoch":0,"model":"#),
        "{model}"
    );
    assert!(model.contains("-fly(pengu)"), "{model}");
    let stable = c.send(r#"{"cmd":"query","object":"c1","semantics":"stable"}"#);
    assert!(stable.contains(r#""models":["#), "{stable}");
    let skep = c.send(r#"{"cmd":"query","object":"c1","semantics":"skeptical"}"#);
    assert!(skep.contains(r#""model":"#), "{skep}");
    let cred = c.send(r#"{"cmd":"query","object":"c1","semantics":"credulous"}"#);
    assert!(cred.contains(r#""literals":["#), "{cred}");
    assert_eq!(
        c.send(r#"{"cmd":"why","object":"c1","query":"fly(pengu)"}"#),
        r#"{"ok":true,"epoch":0,"text":"not derivable:\n  rule [0] fly(pengu) :- bird(pengu). — overruled by [1] -fly(pengu) :- ground_animal(pengu).\n"}"#
    );

    // Mutations bump the epoch; a no-match retract does not.
    assert_eq!(
        c.send(r#"{"cmd":"assert","object":"c2","rule":"bird(robin)."}"#),
        r#"{"ok":true,"epoch":1,"seq":null}"#
    );
    let after = c.send(r#"{"cmd":"query","object":"c1","pattern":"fly(X)"}"#);
    assert!(after.starts_with(r#"{"ok":true,"epoch":1,"#), "{after}");
    assert!(after.contains("X=robin"), "{after}");
    assert_eq!(
        c.send(r#"{"cmd":"retract","object":"c2","rule":"bird(robin)."}"#),
        r#"{"ok":true,"epoch":2,"removed":true,"seq":null}"#
    );
    assert_eq!(
        c.send(r#"{"cmd":"retract","object":"c2","rule":"bird(robin)."}"#),
        r#"{"ok":true,"epoch":2,"removed":false,"seq":null}"#
    );

    // Error surface, each still reporting the epoch it observed.
    assert_eq!(
        c.send(r#"{"cmd":"save"}"#),
        r#"{"ok":false,"error":"no durable store attached (start with --db)","epoch":2}"#
    );
    let unknown = c.send(r#"{"cmd":"truth","object":"mars","query":"fly(pengu)"}"#);
    assert!(unknown.contains("unknown object"), "{unknown}");
    let nonground = c.send(r#"{"cmd":"truth","object":"c1","query":"fly(X)"}"#);
    assert!(nonground.contains("not ground"), "{nonground}");
    assert_eq!(
        c.send(r#"{"cmd":"bogus"}"#),
        r#"{"ok":false,"error":"unknown cmd `bogus`","epoch":2}"#
    );
    assert_eq!(
        c.send("[1,2,3]"),
        r#"{"ok":false,"error":"request must be a json object","epoch":2}"#
    );
    assert_eq!(
        c.send(r#"{"nope":1}"#),
        r#"{"ok":false,"error":"missing string field `cmd`","epoch":2}"#
    );

    let stats = c.send(r#"{"cmd":"stats"}"#);
    assert!(stats.contains(r#""objects":2"#), "{stats}");
    assert!(stats.contains(r#""seq":null"#), "{stats}");
    assert_eq!(field_u64(&stats, "epoch"), Some(2));
    // The writer publishes each component's analysis profile with the
    // snapshot; the penguin program is stratified and order-relevant
    // in c1 (the engine's single-model fast path applies).
    assert!(stats.contains(r#""profiles":{"#), "{stats}");
    assert!(
        stats.contains(r#""c1":"strat=stratified order=relevant"#),
        "{stats}"
    );
    assert!(stats.contains("single-model=yes"), "{stats}");

    // Graceful protocol shutdown: acknowledged, then EOF, exit 0.
    assert_eq!(c.send(r#"{"cmd":"shutdown"}"#), r#"{"ok":true,"epoch":2}"#);
    assert_eq!(c.read_line(), None);
    let mut server = server;
    let status = server.child.wait().expect("server reaped");
    assert!(status.success(), "server exited {status:?}");
    std::fs::remove_file(&program).ok();
}

// ----------------------------------------------------- malformed fuzz

#[test]
fn malformed_frames_never_wedge_the_accept_loop() {
    let program = write_program("fuzz", PENGUIN);
    let mut server = spawn_serve(&[program.to_str().unwrap()], &[]);
    let mut rng = StdRng::seed_from_u64(0xBAD_F00D);

    // Random byte garbage (including invalid UTF-8): each frame must
    // get an error response and leave the connection usable.
    for _ in 0..40 {
        let mut c = Client::connect(server.addr);
        let n = rng.gen_range(1usize..200);
        let mut bytes: Vec<u8> = (0..n).map(|_| rng.gen_range(0u16..256) as u8).collect();
        bytes.retain(|&b| b != b'\n' && b != b'\r');
        if bytes.is_empty() {
            // A blank line is legitimately skipped, not answered.
            bytes.push(b'{');
        }
        bytes.push(b'\n');
        c.writer.write_all(&bytes).expect("garbage sent");
        let resp = c.read_line().expect("error response");
        assert!(resp.starts_with(r#"{"ok":false,"error":""#), "{resp}");
        assert_eq!(c.send(r#"{"cmd":"ping"}"#), r#"{"ok":true,"epoch":0}"#);
    }

    // Mid-frame disconnects: a partial request with no newline, then
    // the client vanishes. The server must just reap the connection.
    for i in 0..20 {
        let mut c = Client::connect(server.addr);
        let partial = &r#"{"cmd":"ping"#[..4 + (i % 9)];
        c.writer
            .write_all(partial.as_bytes())
            .expect("partial sent");
        drop(c);
    }

    // An oversized line is rejected with a diagnostic, then the
    // connection is closed — without disturbing anyone else.
    {
        let mut c = Client::connect(server.addr);
        let big = vec![b'a'; MAX_LINE + 4096];
        c.writer.write_all(&big).expect("oversized frame sent");
        let resp = c.read_line().expect("error response before close");
        assert!(resp.contains("line too long"), "{resp}");
        assert_eq!(c.read_line(), None, "connection closes after overflow");
    }

    // Pipelined frames and CRLF both work.
    {
        let mut c = Client::connect(server.addr);
        c.writer
            .write_all(b"{\"cmd\":\"ping\"}\r\n\r\n{\"cmd\":\"ping\"}\n")
            .expect("pipelined frames sent");
        assert_eq!(c.read_line().as_deref(), Some(r#"{"ok":true,"epoch":0}"#));
        assert_eq!(c.read_line().as_deref(), Some(r#"{"ok":true,"epoch":0}"#));
    }

    // After all the abuse the server is still alive and serving.
    assert!(
        server.child.try_wait().expect("probe").is_none(),
        "server died during the fuzz run"
    );
    let mut c = Client::connect(server.addr);
    assert_eq!(
        c.send(r#"{"cmd":"truth","object":"c1","query":"fly(tweety)"}"#),
        r#"{"ok":true,"epoch":0,"truth":"true"}"#
    );
    c.send(r#"{"cmd":"shutdown"}"#);
    std::fs::remove_file(&program).ok();
}

// ------------------------------------------------- limits and partial

/// `n` mutually defeating pairs in an incomparable layout: 2^n stable
/// models, enough to outlast any small budget (the CLI suite's
/// `big_choice`, served).
fn big_choice_src(n: usize) -> String {
    let mut src = String::from("module c2 {\n");
    for i in 0..n {
        src.push_str(&format!("  a{i}. b{i}.\n"));
    }
    src.push_str("}\nmodule c1 < c2 {\n");
    for i in 0..n {
        src.push_str(&format!("  -a{i} :- b{i}.\n  -b{i} :- a{i}.\n"));
    }
    src.push_str("}\n");
    src
}

#[test]
fn exhausted_budgets_answer_partial_json_not_failure() {
    let program = write_program("limits", &big_choice_src(16));
    let server = spawn_serve(&[program.to_str().unwrap()], &[]);
    let mut c = Client::connect(server.addr);

    // Per-request deadline on a 2^16-model enumeration: the JSON twin
    // of the CLI's PARTIAL banner — ok:true, partial:true, a reason,
    // and whatever sound prefix was enumerated.
    let resp = c.send(r#"{"cmd":"query","object":"c1","semantics":"stable","timeout_ms":20}"#);
    assert!(
        resp.starts_with(r#"{"ok":true,"epoch":0,"partial":true,"#),
        "{resp}"
    );
    assert!(resp.contains(r#""reason":"deadline exceeded""#), "{resp}");
    assert!(resp.contains(r#""models":["#), "{resp}");

    // A model cap interrupts deterministically with exactly that many
    // models in the partial payload.
    let resp = c.send(r#"{"cmd":"query","object":"c1","semantics":"stable","max_models":3}"#);
    assert!(resp.contains(r#""reason":"model cap reached""#), "{resp}");
    // Each rendered model in the partial payload is a `"{...}"` string:
    // a sound, non-empty prefix never exceeding the cap (under parallel
    // enumeration the exact count at the interrupt point can be lower).
    let n_models = resp.matches("\"{").count();
    assert!((1..=3).contains(&n_models), "{resp}");

    // Connection-level default via `set`: later requests inherit it.
    assert_eq!(
        c.send(r#"{"cmd":"set","timeout_ms":20}"#),
        r#"{"ok":true,"epoch":0}"#
    );
    let resp = c.send(r#"{"cmd":"query","object":"c1","semantics":"stable"}"#);
    assert!(resp.contains(r#""partial":true"#), "{resp}");
    // ...and a per-request 0 lifts it again (unlimited), so a cheap
    // read completes.
    let resp = c.send(r#"{"cmd":"truth","object":"c1","query":"a0","timeout_ms":0}"#);
    assert_eq!(resp, r#"{"ok":true,"epoch":0,"truth":"undefined"}"#);

    // An interrupted WRITE is not applied: the epoch must not move and
    // the error is explicit.
    let resp = c.send(r#"{"cmd":"assert","object":"c2","rule":"c0.","max_steps":1}"#);
    assert!(
        resp.starts_with(r#"{"ok":false,"error":"interrupted","reason":""#),
        "{resp}"
    );
    assert_eq!(c.send(r#"{"cmd":"ping"}"#), r#"{"ok":true,"epoch":0}"#);
    // Without the budget the same mutation applies (`timeout_ms:0`
    // lifts the connection's 20 ms default set above).
    assert_eq!(
        c.send(r#"{"cmd":"assert","object":"c2","rule":"c0.","timeout_ms":0}"#),
        r#"{"ok":true,"epoch":1,"seq":null}"#
    );

    c.send(r#"{"cmd":"shutdown"}"#);
    std::fs::remove_file(&program).ok();
}

// ------------------------------------------------- admission control

#[test]
fn admission_control_refuses_excess_connections_cleanly() {
    let mut b = KbBuilder::new();
    b.rules("main", "p.").expect("parses");
    let kb = b.build(GroundStrategy::Smart).expect("grounds");
    let server = Server::bind(
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            max_conns: 2,
            max_queries: 8,
            default_timeout: None,
        },
        ServeKb::Plain(Box::new(kb)),
    )
    .expect("binds");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let mut c1 = Client::connect(addr);
    let mut c2 = Client::connect(addr);
    assert!(c1.send(r#"{"cmd":"ping"}"#).contains("true"));
    assert!(c2.send(r#"{"cmd":"ping"}"#).contains("true"));

    // The third connection is refused with a protocol-level busy line,
    // not a hang and not a silent reset.
    let mut c3 = Client::connect(addr);
    let resp = c3.read_line().expect("busy line");
    assert_eq!(resp, r#"{"ok":false,"error":"busy","epoch":0}"#);
    assert_eq!(c3.read_line(), None);

    // Freeing a slot readmits new clients (the worker notices the EOF
    // within its poll interval).
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut c = Client::connect(addr);
        if let Some(resp) = c.read_line_after_ping() {
            if resp.contains(r#""ok":true"#) {
                c.send(r#"{"cmd":"shutdown"}"#);
                break;
            }
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(c2);
    handle.join().expect("server thread").expect("clean exit");
}

impl Client {
    /// Sends a ping and reads one line, tolerating a connection the
    /// server refused (returns the busy line) or reset (`None`).
    fn read_line_after_ping(&mut self) -> Option<String> {
        if self.writer.write_all(b"{\"cmd\":\"ping\"}\n").is_err() {
            return None;
        }
        self.read_line()
    }
}

// ------------------------------------- snapshot isolation (proptest)

/// Starts an in-process server on an ephemeral port serving a
/// mutation-stream base program over object `main`.
fn start_inproc(
    base: &str,
    max_conns: usize,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let mut b = KbBuilder::new();
    b.rules("main", base).expect("base parses");
    let kb = b.build(GroundStrategy::Smart).expect("base grounds");
    let server = Server::bind(
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            max_conns,
            max_queries: 16,
            default_timeout: None,
        },
        ServeKb::Plain(Box::new(kb)),
    )
    .expect("binds");
    let addr = server.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || server.run()))
}

/// Sequentially replays `ops` on a fresh KB and records the rendered
/// least model after every prefix: `models[e]` is the unique correct
/// answer at epoch `e`.
fn sequential_models(base: &str, ops: &[olp_workload::Mutation]) -> Vec<String> {
    let mut b = KbBuilder::new();
    b.rules("main", base).expect("base parses");
    let mut kb: Kb = b.build(GroundStrategy::Smart).expect("base grounds");
    let render = |kb: &mut Kb| {
        let m = kb.model("main").expect("least model").clone();
        kb.render(&m)
    };
    let mut out = vec![render(&mut kb)];
    for op in ops {
        match op {
            olp_workload::Mutation::Assert { object, rule } => {
                kb.assert_rule(object, rule).expect("assert applies")
            }
            olp_workload::Mutation::Retract { object, rule } => {
                assert!(kb.retract_rule(object, rule).expect("retract applies"));
            }
        }
        out.push(render(&mut kb));
    }
    out
}

proptest! {
    // Scaled by PROPTEST_CASES (the deep-fuzz CI job sets 256).
    #![proptest_config(ProptestConfig::default())]

    /// Readers racing a writer must each see EXACTLY the sequential
    /// model of the epoch their response reports — byte-identical, at
    /// every interleaving. Epochs must also never run backwards on one
    /// connection.
    #[test]
    fn concurrent_reads_match_sequential_replay_at_reported_epoch(
        seed in 0u64..10_000,
        n_ops in 4usize..14,
    ) {
        let cfg = olp_workload::MutationCfg {
            n_base: 10,
            n_mutations: n_ops,
            ..olp_workload::MutationCfg::default()
        };
        let (base, ops) = olp_workload::mutation_stream(&cfg, seed);
        let (addr, handle) = start_inproc(&base, 4);

        let done = AtomicBool::new(false);
        let observed: Vec<(u64, String)> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let done = &done;
                    s.spawn(move || {
                        let mut c = Client::connect(addr);
                        let mut seen = Vec::new();
                        let mut last = 0u64;
                        while !done.load(Ordering::SeqCst) {
                            let resp = c.send(r#"{"cmd":"query","object":"main"}"#);
                            let epoch = field_u64(&resp, "epoch").expect("epoch field");
                            assert!(epoch >= last, "epoch ran backwards: {last} -> {epoch}");
                            last = epoch;
                            let model = field_str(&resp, "model").expect("model field");
                            seen.push((epoch, model.to_string()));
                        }
                        seen
                    })
                })
                .collect();

            // The writer: one op at a time, tiny jitter so responses
            // land at many different epochs.
            let mut w = Client::connect(addr);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            for (i, op) in ops.iter().enumerate() {
                let (cmd, object, rule) = match op {
                    olp_workload::Mutation::Assert { object, rule } => ("assert", object, rule),
                    olp_workload::Mutation::Retract { object, rule } => ("retract", object, rule),
                };
                let resp = w.send(&format!(
                    r#"{{"cmd":"{cmd}","object":"{object}","rule":"{rule}"}}"#
                ));
                assert!(resp.starts_with(r#"{"ok":true"#), "write {i} failed: {resp}");
                assert_eq!(field_u64(&resp, "epoch"), Some(i as u64 + 1), "{resp}");
                if rng.gen_bool(0.5) {
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0u64..1500)));
                }
            }
            done.store(true, Ordering::SeqCst);
            let mut all = Vec::new();
            for r in readers {
                all.extend(r.join().expect("reader thread"));
            }
            w.send(r#"{"cmd":"shutdown"}"#);
            all
        });
        handle.join().expect("server thread").expect("clean exit");

        let reference = sequential_models(&base, &ops);
        for (epoch, model) in &observed {
            prop_assert_eq!(
                model,
                &reference[*epoch as usize],
                "response at epoch {} diverged from the sequential replay (seed {})",
                epoch,
                seed
            );
        }
    }
}

// ------------------------------------------------------ writer stall

#[test]
fn slow_writer_never_blocks_readers() {
    let program = write_program("stall", PENGUIN);
    let server = spawn_serve(
        &[program.to_str().unwrap()],
        &[("OLP_SERVE_WRITE_DELAY_MS", "400")],
    );
    let addr = server.addr;

    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut w = Client::connect(addr);
            let t = Instant::now();
            let resp = w.send(r#"{"cmd":"assert","object":"c2","rule":"bird(robin)."}"#);
            (resp, t.elapsed())
        });
        // Give the write a moment to reach the stalled writer thread,
        // then hammer reads: each must come back immediately off the
        // still-published previous snapshot.
        std::thread::sleep(Duration::from_millis(60));
        let mut r = Client::connect(addr);
        for _ in 0..8 {
            let t = Instant::now();
            let resp = r.send(r#"{"cmd":"truth","object":"c1","query":"fly(tweety)"}"#);
            let lat = t.elapsed();
            assert!(resp.contains(r#""truth":"true""#), "{resp}");
            assert!(
                lat < Duration::from_millis(300),
                "read stalled {lat:?} behind a slow writer"
            );
        }
        let (resp, took) = writer.join().expect("writer thread");
        assert_eq!(resp, r#"{"ok":true,"epoch":1,"seq":null}"#);
        assert!(
            took >= Duration::from_millis(400),
            "stall env ignored ({took:?})"
        );
        let mut c = Client::connect(addr);
        c.send(r#"{"cmd":"shutdown"}"#);
    });
    std::fs::remove_file(&program).ok();
}

// --------------------------------------- crash recovery under traffic

#[test]
fn kill9_under_traffic_recovers_and_resumes_from_logged_seq() {
    const SEED: u64 = 0xC0FFEE ^ 9;
    const N_OPS: usize = 80;
    let cfg = olp_workload::MutationCfg {
        n_base: 32,
        n_mutations: N_OPS,
        ..olp_workload::MutationCfg::default()
    };
    let (base, ops) = olp_workload::mutation_stream(&cfg, SEED);
    let program = write_program("crash", &format!("module main {{\n{base}}}\n"));
    let db = scratch("crashdb");
    let db_arg = db.to_str().unwrap().to_string();

    // Round 1: serve --db, apply the stream over TCP with reader
    // traffic racing it, and kill -9 mid-stream.
    let mut server = spawn_serve(&[program.to_str().unwrap(), "--db", &db_arg], &[]);
    let addr = server.addr;
    let stop = AtomicBool::new(false);
    let acked = std::thread::scope(|s| {
        let stop_ref = &stop;
        let reader = s.spawn(move || {
            // Background read traffic; the connection dying when the
            // server is killed is expected, not an error.
            let mut c = Client::connect(addr);
            let mut n = 0u64;
            while !stop_ref.load(Ordering::SeqCst) {
                if c.read_line_after_ping().is_none() {
                    break;
                }
                n += 1;
            }
            n
        });
        let mut w = Client::connect(addr);
        let kill_at = N_OPS / 2;
        let mut applied = 0usize;
        for op in ops.iter().take(kill_at) {
            let (cmd, object, rule) = match op {
                olp_workload::Mutation::Assert { object, rule } => ("assert", object, rule),
                olp_workload::Mutation::Retract { object, rule } => ("retract", object, rule),
            };
            let resp = w.send(&format!(
                r#"{{"cmd":"{cmd}","object":"{object}","rule":"{rule}"}}"#
            ));
            assert!(resp.starts_with(r#"{"ok":true"#), "write failed: {resp}");
            assert_eq!(field_u64(&resp, "seq"), Some(applied as u64 + 1), "{resp}");
            applied += 1;
        }
        server.child.kill().expect("SIGKILL delivered");
        let _ = server.child.wait();
        stop.store(true, Ordering::SeqCst);
        let reads = reader.join().expect("reader thread");
        assert!(reads > 0, "reader never got a response before the kill");
        applied
    });
    drop(server);

    // Round 2: restart on the same database. Recovery must land
    // exactly at the acknowledged sequence number — every acked op
    // durable, no op applied twice (the kill landed between ops here,
    // so there is no in-flight ambiguity).
    let server = spawn_serve(&[program.to_str().unwrap(), "--db", &db_arg], &[]);
    let mut c = Client::connect(server.addr);
    let stats = c.send(r#"{"cmd":"stats"}"#);
    let recovered_seq = field_u64(&stats, "seq").expect("seq field") as usize;
    assert_eq!(
        recovered_seq, acked,
        "recovery lost or duplicated acked ops: {stats}"
    );

    // Resume the stream from where the log says we are.
    for op in ops.iter().skip(recovered_seq) {
        let (cmd, object, rule) = match op {
            olp_workload::Mutation::Assert { object, rule } => ("assert", object, rule),
            olp_workload::Mutation::Retract { object, rule } => ("retract", object, rule),
        };
        let resp = c.send(&format!(
            r#"{{"cmd":"{cmd}","object":"{object}","rule":"{rule}"}}"#
        ));
        assert!(
            resp.starts_with(r#"{"ok":true"#),
            "resumed write failed: {resp}"
        );
        if cmd == "retract" {
            assert!(resp.contains(r#""removed":true"#), "{resp}");
        }
    }
    let stats = c.send(r#"{"cmd":"stats"}"#);
    assert_eq!(field_u64(&stats, "seq"), Some(N_OPS as u64), "{stats}");

    // The served model must be byte-identical to a survivor that
    // applied the whole stream in-process without ever crashing.
    let resp = c.send(r#"{"cmd":"query","object":"main"}"#);
    let served = field_str(&resp, "model").expect("model field").to_string();
    let survivor = {
        let mut b = KbBuilder::new();
        b.rules("main", &base).expect("base parses");
        let mut kb = b.build(GroundStrategy::Smart).expect("base grounds");
        for op in &ops {
            match op {
                olp_workload::Mutation::Assert { object, rule } => {
                    kb.assert_rule(object, rule).expect("assert applies")
                }
                olp_workload::Mutation::Retract { object, rule } => {
                    assert!(kb.retract_rule(object, rule).expect("retract applies"));
                }
            }
        }
        let m = kb.model("main").expect("least model").clone();
        kb.render(&m)
    };
    assert_eq!(
        served, survivor,
        "recovered server diverged from the survivor"
    );

    c.send(r#"{"cmd":"shutdown"}"#);
    std::fs::remove_file(&program).ok();
    std::fs::remove_dir_all(&db).ok();
}
