//! `serve-burst` and `serve-paced`: an in-process `pcap_serve::start`
//! daemon on a Unix socket (shipped defaults except one shard) fed a
//! pre-encoded replay plan over one connection.
//!
//! Set-up generates the plan (`ReplayOrder::Interleaved`, runs capped at
//! `QUICK_RUNS`), encodes every client frame, and starts the daemon, so
//! a pass sends only bytes. `serve-burst` writes the frames unthrottled
//! (closed loop: the pass ends when every `DeviceSummary` is back) and
//! saturates the shard queue. `serve-paced` sends on a fixed 1 ms
//! schedule at [`PACED_EVENTS_PER_S`] (open loop): each run's latency
//! counts from the *due* time of its `RunEnd`, so a late generator
//! shows up in the latencies instead of hiding in a slower send rate,
//! and the generator reports how late it ran.
//!
//! Every pass checks each device's decision stream, re-encoded, against
//! the offline `audit_prepared` stream: same length, same FNV-1a digest.

use crate::trace::{self, Tracer};
use crate::{coverage, layer_s, measure, median_items, Options, Outcome};
use pcap_report::profiling::QUICK_RUNS;
use pcap_serve::{
    decode_server, encode_client, put_record, start, ClientFrame, Endpoint, ServeConfig,
    ServerFrame, ServerHandle, PROTOCOL_VERSION,
};
use pcap_sim::{audit_prepared, DecisionRecord, PreparedTrace};
use pcap_trace::ApplicationTrace;
use pcap_types::wire;
use pcap_workload::{DevicePopulation, ReplayOrder, ReplayPlan};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Offered load of `serve-paced`: about a fifth of the closed-loop
/// rate on one shard.
pub const PACED_EVENTS_PER_S: u64 = 100_000;

/// Send schedule granularity.
const TICK: Duration = Duration::from_millis(1);

/// Devices in the replay plan: 216 runs, so the 95th-percentile run
/// has ten beyond it.
pub const DEVICES: u64 = 36;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Passes per untraced run: each run's latency is its median over these.
const MIN_PASSES: usize = 3;

/// Bytes per socket write in `serve-burst`.
const BURST_WRITE: usize = 64 * 1024;

/// Give up on a pass whose replies stop arriving for this long.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Open or closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unthrottled writes; the pass ends when every reply is back.
    Burst,
    /// A fixed-rate schedule regardless of replies.
    Paced,
}

/// One scheduled run of the plan.
struct RunMeta {
    /// Index of the tick whose bytes carry this run's `RunEnd`.
    tick: usize,
}

/// The encoded replay plan.
struct Plan {
    /// `Hello` plus every run's frames, in send order.
    bytes: Vec<u8>,
    /// Tick `k` sends `bytes[cuts[k]..cuts[k + 1]]`.
    cuts: Vec<usize>,
    /// `DeviceEnd` for every device, sent after the last tick.
    tail: Vec<u8>,
    runs: Vec<RunMeta>,
    /// Per device, the plan position of each of its runs.
    positions: Vec<Vec<usize>>,
    devices: u64,
    events: u64,
}

fn build_plan(seed: u64, devices: u64, per_tick: u64) -> (Plan, ReplayPlan) {
    let replay = ReplayPlan::new(
        DevicePopulation::new(devices, seed),
        Some(QUICK_RUNS),
        ReplayOrder::Interleaved,
    );
    let mut plan = Plan {
        bytes: Vec::new(),
        cuts: vec![0],
        tail: Vec::new(),
        runs: Vec::new(),
        positions: vec![Vec::new(); devices as usize],
        devices,
        events: 0,
    };
    encode_client(
        &ClientFrame::Hello {
            version: PROTOCOL_VERSION,
        },
        &mut plan.bytes,
    );
    for item in replay.iter() {
        let item = item.expect("replay runs generate");
        let device = item.device;
        encode_client(
            &ClientFrame::RunStart {
                device,
                root: item.trace.root,
            },
            &mut plan.bytes,
        );
        for event in &item.trace.events {
            if plan.events > 0 && plan.events.is_multiple_of(per_tick) {
                plan.cuts.push(plan.bytes.len());
            }
            encode_client(
                &ClientFrame::Event {
                    device,
                    event: *event,
                },
                &mut plan.bytes,
            );
            plan.events += 1;
        }
        encode_client(&ClientFrame::RunEnd { device }, &mut plan.bytes);
        plan.positions[device as usize].push(plan.runs.len());
        plan.runs.push(RunMeta {
            tick: plan.cuts.len() - 1,
        });
    }
    plan.cuts.push(plan.bytes.len());
    for device in 0..devices {
        encode_client(&ClientFrame::DeviceEnd { device }, &mut plan.tail);
    }
    (plan, replay)
}

/// A device's decision stream, re-encoded as the wire encodes it,
/// folded into its length and FNV-1a digest so a pass holds no copy of
/// the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamDigest {
    bytes: u64,
    hash: u64,
}

impl StreamDigest {
    const EMPTY: StreamDigest = StreamDigest {
        bytes: 0,
        hash: trace::FNV_BASIS,
    };

    fn push(&mut self, record: &DecisionRecord, scratch: &mut Vec<u8>) {
        scratch.clear();
        put_record(scratch, record);
        self.bytes += scratch.len() as u64;
        self.hash = trace::fnv1a(self.hash, scratch);
    }
}

/// The offline reference: each device's `audit_prepared` decisions.
fn expected_decisions(replay: &ReplayPlan, config: &ServeConfig) -> Vec<StreamDigest> {
    let pop = replay.population();
    (0..pop.devices())
        .map(|d| {
            let mut app_trace = ApplicationTrace::new(pop.device(d).app.name());
            for run in 0..replay.runs(d) {
                app_trace
                    .runs
                    .push(pop.generate_run(d, run).expect("replay runs generate"));
            }
            let prepared = PreparedTrace::build(&app_trace, &config.sim);
            let mut digest = StreamDigest::EMPTY;
            let mut scratch = Vec::new();
            for record in &audit_prepared(&prepared, &config.sim, config.kind).records {
                digest.push(record, &mut scratch);
            }
            digest
        })
        .collect()
}

/// What the reply reader collected over one pass.
struct Replies {
    decisions: Vec<StreamDigest>,
    decision_count: u64,
    /// Receipt time of each plan run's `RunSummary`.
    summary_at: Vec<Option<Instant>>,
    rejected: u64,
    device_summaries: u64,
    unexpected: u64,
    bytes: u64,
    /// Time spent decoding and checking replies (not waiting for them).
    busy: Duration,
    done: Instant,
}

fn read_replies(mut stream: UnixStream, plan: &Plan) -> Replies {
    let mut r = Replies {
        decisions: vec![StreamDigest::EMPTY; plan.devices as usize],
        decision_count: 0,
        summary_at: vec![None; plan.runs.len()],
        rejected: 0,
        device_summaries: 0,
        unexpected: 0,
        bytes: 0,
        busy: Duration::ZERO,
        done: Instant::now(),
    };
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("socket read timeout");
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 17);
    let mut chunk = vec![0u8; 1 << 16];
    let mut scratch = Vec::new();
    let mut last_reply = Instant::now();
    while r.device_summaries < plan.devices {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if last_reply.elapsed() > REPLY_TIMEOUT {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let now = Instant::now();
        last_reply = now;
        r.bytes += n as u64;
        buf.extend_from_slice(&chunk[..n]);
        let mut used = 0;
        while let Ok(Some((payload, len))) = wire::read_frame(&buf[used..]) {
            used += len;
            match decode_server(payload) {
                Ok(ServerFrame::Decision { device, record }) => {
                    r.decision_count += 1;
                    match r.decisions.get_mut(device as usize) {
                        Some(digest) => digest.push(&record, &mut scratch),
                        None => r.unexpected += 1,
                    }
                }
                Ok(ServerFrame::RunSummary { device, run, .. }) => {
                    let position = plan
                        .positions
                        .get(device as usize)
                        .and_then(|p| p.get(run as usize));
                    match position {
                        Some(&k) if r.summary_at[k].is_none() => r.summary_at[k] = Some(now),
                        _ => r.unexpected += 1,
                    }
                }
                Ok(ServerFrame::RunRejected { .. }) => r.rejected += 1,
                Ok(ServerFrame::DeviceSummary { .. }) => {
                    r.device_summaries += 1;
                    r.done = now;
                }
                Err(_) => r.unexpected += 1,
            }
        }
        buf.drain(..used);
        r.busy += now.elapsed();
    }
    r
}

/// One pass's client-side measurements.
struct PassOut {
    wall: f64,
    replies: Replies,
    /// Per tick: when it was due (paced) or its bytes were written
    /// (burst).
    tick_at: Vec<Instant>,
    /// Per tick, how late the generator ran (paced only).
    late_ms: Vec<f64>,
}

fn run_pass(
    sock: &PathBuf,
    plan: &Plan,
    mode: Mode,
    stall: Option<Duration>,
    tracer: &mut Tracer,
) -> PassOut {
    let mut stream = UnixStream::connect(sock).expect("connect to the daemon");
    let reader = stream.try_clone().expect("clone the socket");
    let ticks = plan.cuts.len() - 1;
    let mut tick_at = Vec::with_capacity(ticks);
    let mut late_ms = Vec::new();
    std::thread::scope(|scope| {
        let replies = scope.spawn(|| read_replies(reader, plan));
        let started = Instant::now();
        let mut from = 0;
        for k in 0..ticks {
            let due = started + TICK * k as u32;
            if mode == Mode::Paced {
                if let Some(stall) = stall.filter(|_| k == ticks / 2) {
                    std::thread::sleep(stall);
                }
                let now = Instant::now();
                if now < due {
                    tracer.span("pace", || std::thread::sleep(due - now));
                }
                late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            // Burst coalesces ticks into large writes; paced writes each
            // tick when it is due.
            let last = k + 1 == ticks;
            if mode == Mode::Burst && !last && plan.cuts[k + 1] - plan.cuts[from] < BURST_WRITE {
                continue;
            }
            let open = tracer.begin("client_write");
            stream
                .write_all(&plan.bytes[plan.cuts[from]..plan.cuts[k + 1]])
                .expect("write to the daemon");
            tracer.end(open);
            let sent = if mode == Mode::Paced {
                due
            } else {
                Instant::now()
            };
            tick_at.resize(k + 1, sent);
            from = k + 1;
        }
        tracer.span("client_write", || {
            stream.write_all(&plan.tail).expect("write to the daemon")
        });
        let open = tracer.begin("await_replies");
        let replies = replies.join().expect("reply reader");
        tracer.end(open);
        let wall = replies
            .done
            .saturating_duration_since(started)
            .as_secs_f64();
        let _ = stream.shutdown(std::net::Shutdown::Both);
        PassOut {
            wall,
            replies,
            tick_at,
            late_ms,
        }
    })
}

/// Sum and count of one daemon stage histogram.
fn stage(h: &pcap_serve::AtomicHistogram) -> (u64, u64) {
    let (hist, sum) = h.snapshot();
    (sum, hist.total())
}

/// Sums and counts of the shard's decode, queue-wait, eval and encode
/// histograms.
fn stages(handle: &ServerHandle) -> [(u64, u64); 4] {
    let s = &handle.metrics().shards[0];
    [
        stage(&s.decode_ns),
        stage(&s.queue_wait_us),
        stage(&s.eval_us),
        stage(&s.encode_us),
    ]
}

/// A socket path inside the working directory, unique per daemon.
fn socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).expect("create .perfbench");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("serve-{}-{n}.sock", std::process::id()))
}

/// Runs `serve-burst` or `serve-paced`.
pub fn run(options: &Options, mode: Mode) -> Outcome {
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let devices = options.size.unwrap_or(DEVICES);
    let per_tick = PACED_EVENTS_PER_S / 1000;
    let sock = socket_path();
    let mut outcome = Outcome::default();

    let mut setup_s = Vec::new();
    let mut gen = Tracer::new(options.trace);
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some((_, _, handle)) = ready.take() {
            ServerHandle::shutdown(handle);
        }
        let t = Instant::now();
        trace::arm_allocs(options.trace);
        let (plan, replay) = gen.span("generate", || build_plan(options.seed, devices, per_tick));
        trace::arm_allocs(false);
        let handle =
            start(config.clone(), &[Endpoint::Uds(sock.clone())], None).expect("start the daemon");
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((plan, replay, handle));
    }
    let (plan, replay, handle) = ready.expect("at least one set-up");
    let expected = expected_decisions(&replay, &config);

    let mut run_ms: Vec<Vec<f64>> = Vec::new();
    let mut late_ms = Vec::new();
    let mut stage_delta = [(0u64, 0u64); 4];
    let mut client_read = Duration::ZERO;
    let (mut bytes_out, mut decisions) = (0u64, 0u64);
    let mut pass_count = 0u64;
    let passes = measure(options, MIN_PASSES, |tracer, _| {
        let before = stages(&handle);
        let pass = run_pass(&sock, &plan, mode, options.stall, tracer);
        let after = stages(&handle);
        pass_count += 1;
        let r = &pass.replies;
        let mut failed = 0;
        let mut latencies = Vec::with_capacity(plan.runs.len());
        for (k, run) in plan.runs.iter().enumerate() {
            let at = r.summary_at[k].unwrap_or_else(|| {
                failed += 1;
                r.done
            });
            latencies.push(
                at.saturating_duration_since(pass.tick_at[run.tick])
                    .as_secs_f64()
                    * 1e3,
            );
        }
        if !tracer.enabled() {
            run_ms.push(latencies);
        }
        for (d, (got, want)) in r.decisions.iter().zip(&expected).enumerate() {
            if got != want {
                let runs = plan.positions[d].len() as u64;
                outcome.fail(
                    runs,
                    format!("serve: device {d} decisions differ from audit_prepared"),
                );
            }
        }
        if failed + r.rejected + r.unexpected > 0 {
            outcome.fail(
                failed + r.rejected,
                format!(
                    "serve: {failed} summaries missing, {} runs rejected, {} unexpected frames",
                    r.rejected, r.unexpected
                ),
            );
        }
        if r.device_summaries != plan.devices {
            outcome.fail(
                0,
                format!(
                    "serve: {} of {} devices retired",
                    r.device_summaries, plan.devices
                ),
            );
        }
        if tracer.enabled() {
            for (acc, (a, b)) in stage_delta.iter_mut().zip(after.iter().zip(before.iter())) {
                acc.0 += a.0 - b.0;
                acc.1 += a.1 - b.1;
            }
            client_read += r.busy;
            bytes_out += r.bytes;
            decisions += r.decision_count;
            late_ms.extend_from_slice(&pass.late_ms);
        } else if mode == Mode::Paced {
            late_ms.extend_from_slice(&pass.late_ms);
        }
        pass.wall
    });
    handle.shutdown();
    outcome.attempted = pass_count * plan.runs.len() as u64;

    if options.trace {
        let n = passes.traced.len() as f64;
        let mean = |(sum, count): (u64, u64)| sum as f64 / count.max(1) as f64;
        let gen_s = layer_s(&gen, "generate");
        let l = &mut outcome.layers;
        l.insert(
            "workload.generate_ns_per_event".into(),
            gen_s * 1e9 / (plan.events as f64 * SETUPS as f64),
        );
        l.insert("workload.events".into(), plan.events as f64);
        l.insert(
            "workload.allocs_per_run".into(),
            crate::layer_allocs(&gen, "generate") as f64 / (plan.runs.len() * SETUPS) as f64,
        );
        l.insert("sim.decisions".into(), decisions as f64 / n);
        l.insert("serve.decode_ns_per_frame".into(), mean(stage_delta[0]));
        l.insert("serve.queue_wait_us_mean".into(), mean(stage_delta[1]));
        l.insert("serve.eval_us_per_run".into(), mean(stage_delta[2]));
        l.insert(
            "serve.encode_ns_per_decision".into(),
            stage_delta[3].0 as f64 * 1e3 / decisions.max(1) as f64,
        );
        l.insert(
            "serve.client_write_s".into(),
            layer_s(&passes.tracer, "client_write") / n,
        );
        l.insert("serve.client_read_s".into(), client_read.as_secs_f64() / n);
        l.insert(
            "serve.bytes_in_per_event".into(),
            (plan.bytes.len() + plan.tail.len()) as f64 / plan.events as f64,
        );
        l.insert(
            "serve.bytes_out_per_decision".into(),
            bytes_out as f64 / decisions.max(1) as f64,
        );
        l.insert(
            "serve.gen_late_p95_ms".into(),
            if late_ms.is_empty() {
                0.0
            } else {
                trace::quantile(&late_ms, 0.95)
            },
        );
        coverage(&mut outcome, &passes);
        outcome.tracer = Some(passes.tracer);
    } else {
        let pass_s = trace::median(&passes.untraced);
        let op_ms = median_items(&run_ms);
        outcome.set_end_to_end(
            passes.scale,
            &setup_s,
            pass_s,
            plan.runs.len() as u64,
            &op_ms,
        );
        if mode == Mode::Paced {
            eprintln!(
                "serve-paced: generator late p95 {:.3} ms over {} ticks",
                trace::quantile(&late_ms, 0.95),
                late_ms.len()
            );
        }
    }
    outcome
}
