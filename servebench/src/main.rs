//! `selc-servebench`: the `selc-serve` benchmark, as a client sees it.
//!
//! ```text
//! selc-servebench --workload <warm_repeat|cold_chain|mixed_tenants>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it spawns an in-process server with the shipped
//! defaults, sets it up several times (reporting the median set-up
//! time), drives the workload's seeded traffic at it from two closed-loop
//! client connections for `--seconds`, checks every answer against the
//! reference winners, and prints the end-to-end metrics. With
//! `--trace 1` it serves the same traffic for half the time, then
//! replays it in-process layer by layer (see `replay`) and prints the
//! per-layer metrics.
//!
//! The last stdout line is the result object; the lines before it record
//! the host and the traffic. See `README.md` beside this crate.

mod alloc;
mod replay;
mod served;
mod stats;
mod traffic;

use selc_serve::{Response, WireStats};
use served::Sample;
use stats::{error_rate_upper, median, num, string, Metrics};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traffic::{judge, Kind, References, Rng, Verdict};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per `--trace 0` run; `setup_s` is their median. The first
/// one serves the measured traffic; the rest run after it.
const SETUPS: usize = 5;

/// Time windows the served run is cut into for `requests_per_s` and
/// `latency_p50_us` (each the median over the windows).
const TIME_WINDOWS: usize = 10;

/// Requests every client completes, however long they take: a fixed
/// prefix of the traffic. The traffic line sums its counters separately
/// (so those sums repeat exactly for a seed), `peak_rss_mb` is read at
/// its end, and `error_rate` is taken over it.
const PREFIX: usize = 200;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every number must be the shipped default: any `SELC_*` knob in the
/// environment would change threads, workers, caches or metrics.
fn refuse_selc_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SELC_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the defaults",
            set.join(", ")
        ))
    }
}

/// The checkout's commit, when the working directory is a git checkout.
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(PathBuf::from).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Milliseconds of a fixed integer kernel (median of five): a host-speed
/// reference printed beside the results, not a gated metric.
fn calibration_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut rng = Rng::new(1);
            let mut acc = 0u64;
            for _ in 0..(1 << 22) {
                acc = acc.wrapping_add(rng.next());
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

fn host_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let config = served::default_config();
    format!(
        "host {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"threads\": {}, \"serve_workers\": {}, \"max_sessions\": {}, \"commit\": {}, \"calibration_ms\": {}}}",
        string(args.kind.name()),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        selc_engine::configured_threads(),
        config.workers,
        config.max_sessions,
        string(&commit()),
        num(calibration_ms()),
    )
}

fn wire_fields(s: &WireStats) -> [(&'static str, u64); 12] {
    [
        ("evaluated", s.evaluated),
        ("pruned", s.pruned),
        ("threads", s.threads),
        ("cache_hits", s.cache_hits),
        ("cache_misses", s.cache_misses),
        ("cache_insertions", s.cache_insertions),
        ("cache_evictions", s.cache_evictions),
        ("summary_exact_hits", s.summary_exact_hits),
        ("summary_bound_hits", s.summary_bound_hits),
        ("summary_misses", s.summary_misses),
        ("summary_exact_installs", s.summary_exact_installs),
        ("summary_bound_installs", s.summary_bound_installs),
    ]
}

fn sum_stats<'a>(samples: impl Iterator<Item = &'a Sample>) -> String {
    let mut sums = [0u64; 12];
    for sample in samples {
        if let Some(Response::Ok { stats, .. }) = &sample.response {
            for (sum, (_, v)) in sums.iter_mut().zip(wire_fields(stats)) {
                *sum += v;
            }
        }
    }
    let names = wire_fields(&WireStats::default()).map(|(n, _)| n);
    let body: Vec<String> = names.iter().zip(sums).map(|(n, v)| format!("\"{n}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// Share of chain searches the server answered without evaluating a
/// leaf: a property of the traffic, not a speed.
fn warm_share(streams: &[Vec<Sample>]) -> f64 {
    let (mut chains, mut warm) = (0u64, 0u64);
    for sample in streams.iter().flatten() {
        if let (traffic::Op::Chain { .. }, Some(Response::Ok { stats, .. })) =
            (sample.op, &sample.response)
        {
            chains += 1;
            warm += u64::from(stats.evaluated == 0);
        }
    }
    stats::ratio(warm as f64, chains as f64)
}

/// Prints the op mix, warm share and summed server counters, and the
/// share of CPU time the hypervisor stole while they were served.
fn traffic_line(kind: Kind, streams: &[Vec<Sample>], steal: f64) {
    // Per op: how many were sent, how many the server answered without
    // evaluating a leaf, and their median client latency.
    let mut mix: BTreeMap<&str, (u64, u64, Vec<u64>)> = BTreeMap::new();
    for sample in streams.iter().flatten() {
        let entry = mix.entry(sample.op.label()).or_default();
        entry.0 += 1;
        if let Some(Response::Ok { stats, .. }) = &sample.response {
            entry.1 += u64::from(stats.evaluated == 0);
        }
        entry.2.push(sample.latency_ns);
    }
    let mix: Vec<String> = mix
        .iter()
        .map(|(k, (n, warm, lat))| {
            format!(
                "\"{k}\": {{\"count\": {n}, \"warm\": {warm}, \"p50_us\": {}}}",
                num(stats::median_ns(lat, 1e3))
            )
        })
        .collect();
    println!(
        "traffic {{\"workload\": {}, \"requests\": {}, \"op_mix\": {{{}}}, \"warm_share\": {}, \
         \"wire_totals\": {}, \"prefix_per_client\": {PREFIX}, \"prefix_totals\": {}, \
         \"steal_share\": {}}}",
        string(kind.name()),
        streams.iter().map(Vec::len).sum::<usize>(),
        mix.join(", "),
        num(warm_share(streams)),
        sum_stats(streams.iter().flatten()),
        sum_stats(streams.iter().flat_map(|s| &s[..PREFIX])),
        num(steal),
    );
}

/// How many requests were attempted and how many failed.
struct Tally {
    attempted: u64,
    failed: u64,
    /// Failures among each client's first [`PREFIX`] requests.
    prefix_failed: u64,
}

/// Judges every served response; returns the tally or the first wrong
/// winner.
fn judge_all(refs: &References, streams: &[Vec<Sample>]) -> Result<Tally, String> {
    let mut tally = Tally { attempted: 0, failed: 0, prefix_failed: 0 };
    for stream in streams {
        for (i, sample) in stream.iter().enumerate() {
            tally.attempted += 1;
            match judge(refs, sample.op, sample.response.as_ref()) {
                Verdict::Correct => {}
                Verdict::Failed => {
                    tally.failed += 1;
                    tally.prefix_failed += u64::from(i < PREFIX);
                }
                Verdict::Wrong => {
                    return Err(format!("{:?} answered {:?}", sample.op, sample.response));
                }
            }
        }
    }
    Ok(tally)
}

/// A [`stats::Done`] for every request. A failed request counts as
/// missing every latency limit: it takes the whole run's length.
fn latencies(streams: &[Vec<Sample>], refs: &References, run_s: f64) -> Vec<stats::Done> {
    streams
        .iter()
        .flatten()
        .map(|s| {
            let ok = judge(refs, s.op, s.response.as_ref()) == Verdict::Correct;
            let latency_us = if ok { s.latency_ns as f64 / 1e3 } else { run_s * 1e6 };
            stats::Done { at_s: s.done_s, latency_us, ok }
        })
        .collect()
}

fn end_to_end(args: &Args, refs: &References) -> Result<(Tally, Metrics), String> {
    let set_up = || served::set_up(args.kind).map_err(|e| format!("set-up failed: {e}"));
    let (server, first_setup) = set_up()?;
    let run = served::drive(server.addr(), args.kind, args.seed, args.seconds, PREFIX);
    drop(server);
    let tally = judge_all(refs, &run.streams).map_err(|e| format!("wrong winner: {e}"))?;
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        setups.push(set_up()?.1); // each server shuts down as it drops
    }
    traffic_line(args.kind, &run.streams, run.steal.share(0.0, args.seconds));
    let done = latencies(&run.streams, refs, args.seconds);
    let w = stats::windowed(&done, args.seconds, TIME_WINDOWS, |a, b| run.steal.share(a, b))
        .ok_or("no request completed in the served phase")?;
    let all = stats::windowed(&done, args.seconds, TIME_WINDOWS, |_, _| 0.0)
        .ok_or("no request completed in the served phase")?;
    eprintln!(
        "selc-servebench: unfiltered {{\"requests_per_s\": {}, \"latency_p50_us\": {}, \"latency_p99_us\": {}}}",
        num(all.rate),
        num(all.p50),
        num(all.p99)
    );
    eprintln!("selc-servebench: latency_p99_us is the median of {} windows", w.p99_windows);
    if tally.attempted < stats::P99_WINDOW as u64 {
        eprintln!(
            "selc-servebench: warning: only {} requests completed; \
             the p99 has fewer than 10 samples beyond it",
            tally.attempted
        );
    }
    let peak_rss_mb = run.prefix_peak_rss_mb.ok_or("cannot read VmHWM")?;
    let prefix_requests = (PREFIX * traffic::CLIENTS) as u64;
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("requests_per_s", w.rate, "1/s");
    m.put("latency_p50_us", w.p50, "us");
    m.put("latency_p99_us", w.p99, "us");
    m.put("error_rate", error_rate_upper(tally.prefix_failed, prefix_requests), "ratio");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    Ok((tally, m))
}

fn per_layer(args: &Args, refs: &References) -> Result<(Tally, Metrics), String> {
    let (server, _) = served::set_up(args.kind).map_err(|e| format!("set-up failed: {e}"))?;
    let half = args.seconds / 2.0;
    let run = served::drive(server.addr(), args.kind, args.seed, half, PREFIX);
    drop(server);
    let streams = run.streams;
    let tally = judge_all(refs, &streams).map_err(|e| format!("wrong winner: {e}"))?;
    traffic_line(args.kind, &streams, run.steal.share(0.0, half));
    let plain = replay::plain(args.kind, &streams, Duration::from_secs_f64(args.seconds / 4.0));
    let spans = PathBuf::from(replay::OUT_DIR).join(format!("spans-{}.tsv", args.kind.name()));
    let trace = replay::traced(args.kind, &streams, plain.replayed, &spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    let mut problems = replay::self_check(refs, &streams, "plain", &plain.responses);
    problems.extend(replay::self_check(refs, &streams, "traced", &trace.responses));
    if !problems.is_empty() {
        return Err(format!("replay self-check failed:\n  {}", problems.join("\n  ")));
    }
    println!(
        "replay {{\"requests\": {}, \"self_check\": \"passed\", \"spans\": {}}}",
        plain.replayed,
        string(&spans.display().to_string())
    );
    let m = replay::layer_metrics(&streams, &plain, &trace, warm_share(&streams));
    Ok((tally, m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("selc-servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = refuse_selc_knobs() {
        eprintln!("selc-servebench: {e}");
        return ExitCode::from(2);
    }
    println!("{}", host_line(&args));
    // Reference winners first, outside every timed phase.
    let refs = References::compute(args.kind);
    let run = if args.trace { per_layer(&args, &refs) } else { end_to_end(&args, &refs) };
    match run {
        Ok((Tally { attempted, failed, .. }, metrics)) => {
            if metrics.0.iter().any(|(_, v, _)| !v.is_finite()) {
                eprintln!("selc-servebench: a metric is not a finite number: {}", metrics.json());
                return ExitCode::from(4);
            }
            // Every answer was checked: a wrong one would have ended the
            // run above with no result.
            println!(
                "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \
                 \"metrics\": {}}}",
                metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("selc-servebench: {e}");
            ExitCode::from(3)
        }
    }
}
